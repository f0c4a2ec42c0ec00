"""Every name that the package or one of its modules lists in ``__all__``
resolves; a stale entry breaks ``import *`` and any tool that walks
``__all__`` with ``getattr``.  Each package-level name is the very object of
the one module that lists it, and each module's names are used outside it."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hydromom

SUBMODULES = [f"hydromom.{info.name}" for info in pkgutil.iter_modules(hydromom.__path__)]
MODULES = ["hydromom"] + SUBMODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", [n for n in hydromom.__all__ if n != "__version__"])
def test_package_name_is_its_home_modules_object(name):
    homes = [m for m in map(importlib.import_module, SUBMODULES) if name in getattr(m, "__all__", ())]
    assert len(homes) == 1, [m.__name__ for m in homes]
    assert getattr(hydromom, name) is getattr(homes[0], name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hydromom import *", namespace)
    assert set(hydromom.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(hydromom, name) for name in hydromom.__all__)


def _sources_outside(home: Path) -> str:
    """Every Python file of src, tests, bench and demos but ``home``."""
    root = Path(__file__).resolve().parents[1]
    files = [p for d in ("src", "tests", "bench", "demos") for p in sorted((root / d).rglob("*.py"))]
    return "\n".join(p.read_text() for p in files if p.resolve() != home)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_is_used_outside_its_module(name):
    # A name exported but named nowhere else is a public name nothing reads.
    module = importlib.import_module(name)
    text = _sources_outside(Path(module.__file__).resolve())
    unused = [attr for attr in getattr(module, "__all__", ()) if not re.search(rf"\b{re.escape(attr)}\b", text)]
    assert unused == []
