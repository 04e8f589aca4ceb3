"""Every exported name resolves, so a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import videosynopsis

MODULES = ["videosynopsis"] + [
    f"videosynopsis.{m.name}" for m in pkgutil.iter_modules(videosynopsis.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
