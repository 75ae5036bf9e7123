"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "biquad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports, ``__future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def declared_exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"core", "monic", "cli", "exactla"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree)
              if name not in used and name not in declared_exports(tree)]
    assert not unused, f"{path.name} imports {unused} but neither uses nor exports them"
