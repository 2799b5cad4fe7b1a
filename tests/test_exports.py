"""Every exported name resolves: each module's ``__all__`` and each name the
package re-exports. Tools walk ``__all__`` with getattr, so a name left
behind by a deletion would break them, not the import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lntlab

MODULES = sorted(f"lntlab.{m.name}" for m in pkgutil.iter_modules(lntlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"


def test_package_reexports_resolve():
    tree = ast.parse(Path(lntlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"lntlab.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(lntlab, name) is getattr(source, alias.name)
            exported = getattr(source, "__all__", None)
            assert exported is None or alias.name in exported, (
                f"lntlab re-exports {alias.name}, which lntlab.{node.module}.__all__ omits")
