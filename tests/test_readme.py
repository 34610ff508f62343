"""The README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the linear-algebra example solves the first slab of the fractional solve
    first_slab = namespace["field"].coefficients[:8].ravel()
    assert np.max(np.abs(namespace["x"] - first_slab)) < 1e-8
    assert namespace["report"].converged
