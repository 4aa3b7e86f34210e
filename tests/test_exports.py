"""The package's exports: every ``__all__`` names what its module
defines, and the package namespace imports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import myerson_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(myerson_lab.__path__))


def _package_imports() -> dict[str, list[str]]:
    """module -> the names ``myerson_lab/__init__.py`` imports from it."""
    tree = ast.parse(Path(myerson_lab.__file__).read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_every_exported_name_exists():
    # cli is the command-line entry point and exports nothing
    assert [m for m in MODULES if not hasattr(importlib.import_module(f"myerson_lab.{m}"), "__all__")] == ["cli"]
    for m in MODULES:
        module = importlib.import_module(f"myerson_lab.{m}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"myerson_lab.{m}.__all__ names missing {name!r}"


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports, "the package imports nothing from its modules"
    for m, names in imports.items():
        exported = importlib.import_module(f"myerson_lab.{m}").__all__
        for name in names:
            assert name in exported, f"myerson_lab imports {name!r}, which myerson_lab.{m}.__all__ lacks"


def test_star_import_brings_every_package_name():
    namespace: dict = {}
    exec("from myerson_lab import *", namespace)
    for names in _package_imports().values():
        for name in names:
            assert namespace[name] is getattr(myerson_lab, name)
