"""Private names stay in their module: the ``_``-prefixed names that each
module of the package takes from another, read from its source with ``ast``.

A private import ties two modules to one implementation detail: no
module of the package takes one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markovspectra"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(module: str) -> set[str]:
    """The private names (dunders aside) that ``module`` imports from another
    module of the package, or reads off one it imports whole, as "source.name"."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found, modules = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("markovspectra"):
            continue
        source = (node.module or "").rpartition(".")[2] if node.level == 0 else node.module
        for alias in node.names:
            if source is None:  # from . import module
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.add(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_private_imports(module):
    assert private_imports(module) == set()
