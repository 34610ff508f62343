"""Every module attribute that perfbench's tracer wraps still exists, and no more.

perfbench/harness.py lists its trace sites in SITES as "module.attr" or
"module.Class.attr" under memwave.  Some of them, such as solver_2d's
solve-route and reconstruct imports and cli's sup_error, bicg_solve and
build_preconditioner imports, are otherwise unused and marked
"# noqa: F401".  The first check keeps a cleanup from removing a layer
from traced runs; the second keeps such trace-only imports from outliving
their site.  The harness is parsed, not imported, so the benchmark code is
never executed.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness.py"
PACKAGE = ROOT / "src" / "memwave"


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


def unused_imports() -> list:
    """Every name imported on a "# noqa: F401" line of the package, as "module.name"."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                found += [f"{path.stem}.{alias.asname or alias.name}" for alias in node.names]
    return found


def test_every_unused_import_is_a_trace_site():
    names, sites = unused_imports(), trace_sites()
    assert names
    stale = [f"memwave.{name}" for name in names if name not in sites]
    assert not stale, f"imported only for tracing, but no trace site: {stale}"
