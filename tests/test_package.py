"""Every name in a krybound module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import krybound

MODULES = sorted(m.name for m in pkgutil.iter_modules(krybound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"krybound.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
