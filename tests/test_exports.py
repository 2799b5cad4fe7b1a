"""Every exported name resolves: each module's ``__all__`` and each name the
package re-exports. Tools walk ``__all__`` with getattr, so a name left
behind by a deletion would break them, not the import. And every exported
function has a reader in the package itself, so one that only tests call
does not linger."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import lntlab

MODULES = sorted(f"lntlab.{m.name}" for m in pkgutil.iter_modules(lntlab.__path__))

# exported functions that no package code calls, each kept for its check
UNCALLED = {
    "asymptotic_limits": "acceptance C01 compares the constants with their large-p limits",
    "convergence_to_singular": "acceptance C08, the oracle of shots against the singular solution",
}


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


def _referenced_names():
    names = set()
    for path in Path(lntlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_exported_functions_have_a_reader_in_the_package():
    referenced = _referenced_names()
    unread = []
    for name in MODULES:
        mod = importlib.import_module(name)
        unread += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                   if inspect.isfunction(getattr(mod, attr))
                   and attr not in referenced and attr not in UNCALLED]
    assert not unread, f"exported functions that only tests read: {unread}"
    assert not referenced & UNCALLED.keys(), "an exempt function has a reader now"
