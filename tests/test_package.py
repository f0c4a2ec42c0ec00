"""Every name that the package or one of its modules lists in ``__all__``
resolves; a stale entry breaks ``import *`` and any tool that walks
``__all__`` with ``getattr``."""

import importlib
import pkgutil

import pytest

import hydromom

MODULES = ["hydromom"] + [f"hydromom.{info.name}" for info in pkgutil.iter_modules(hydromom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
