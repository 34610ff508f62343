"""Every name a memwave module exports in __all__ exists, and a star import of the package works."""

import importlib
import pkgutil

import memwave

MODULES = ["memwave"] + [f"memwave.{info.name}" for info in pkgutil.iter_modules(memwave.__path__)]


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"__all__ names that do not exist: {missing}"


def test_star_import_fills_a_fresh_namespace():
    namespace = {}
    exec("from memwave import *", namespace)
    assert set(memwave.__all__) <= set(namespace)
