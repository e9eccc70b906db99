"""Static guards on the package source: no unused import, no unreferenced private name, no bare tolerance."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "swapcert"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), path.name) for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in ``tree``: bare names and attribute names, not assignment targets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree``, ``from __future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def private_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names of ``tree`` that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    assert [name for name in imported_names(tree) if name not in loaded_names(tree)] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    referenced = set().union(*(loaded_names(tree) for tree in TREES.values()))
    assert [name for name in private_names(TREES[module]) if name not in referenced] == []


def bare_small_floats(tree: ast.Module) -> list[tuple[int, float]]:
    """(line, value) of each float literal in (0, 1e-3) outside the value of an UPPER_CASE module-level assignment."""
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if all(isinstance(target, ast.Name) and target.id.isupper() for target in targets):
            named |= {id(sub) for sub in ast.walk(node.value)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-3
            and id(node) not in named]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_tolerance_is_a_named_constant(module):
    # a tolerance is named once, beside a comment on what sets it, and the checks read the name
    assert bare_small_floats(TREES[module]) == []
