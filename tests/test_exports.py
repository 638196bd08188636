"""Every exported name resolves: each module's __all__, and every name the
package's __init__ imports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import cflat

MODULES = sorted(m.name for m in pkgutil.iter_modules(cflat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cflat.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(cflat))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cflat.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(cflat, alias.name) is getattr(module, alias.name)
