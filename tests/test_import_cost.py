"""Importing memwave and its CLI leaves scipy's slow-loading subpackages unloaded.

Every benchmark workload's set-up time includes `import memwave`.  scipy.io
and scipy.ndimage each add tens of milliseconds to it (about 30 ms and
73 ms measured), and scipy.signal loads scipy.ndimage; so the package
imports them only inside the call that uses them (sparse_linalg's
write_matrix_market imports scipy.io there).  The import runs in a fresh
interpreter, since this test process may have loaded them already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SLOW = ("scipy.io", "scipy.ndimage", "scipy.signal")


def test_import_loads_no_slow_scipy_subpackage():
    code = "import sys, memwave, memwave.cli; print(*sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    loaded = done.stdout.split()
    assert "memwave.cli" in loaded
    slow = [name for name in loaded if any(name == p or name.startswith(p + ".") for p in SLOW)]
    assert slow == []
