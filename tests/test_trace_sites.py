"""Every module attribute that perfbench's tracer wraps still exists.

perfbench/harness.py lists its trace sites in SITES as "module.attr" or
"module.Class.attr" under memwave.  Some of them, such as solver_2d's
solve-route imports and cli's sup_error, bicg_solve and
build_preconditioner imports, are otherwise unused, so
this check keeps a cleanup from removing a layer from traced runs.  The
file is parsed, not imported, so the benchmark code is never executed.
"""

import ast
import importlib
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"


def trace_sites() -> list:
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets
        ):
            sites = ast.literal_eval(node.value)
            return sorted(site for names in sites.values() for site in names)
    raise AssertionError(f"no SITES assignment in {HARNESS}")


def resolve(site: str):
    module, *owners, attr = site.split(".")
    owner = importlib.import_module(f"memwave.{module}")
    for part in owners + [attr]:
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_site_resolves():
    sites = trace_sites()
    assert sites
    missing = [f"memwave.{site}" for site in sites if not callable(resolve(site))]
    assert not missing, f"trace sites gone: {missing}"
