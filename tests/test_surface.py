"""The public surface has a use: every name in a module's `__all__` is read by
code in `src/` or imported by the acceptance suite.

A name that only its own unit tests call is a surface nothing in the system
needs; it gets a caller, moves into `tests/` as an oracle, or goes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matrixdiff"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def _loaded(tree: ast.Module) -> set:
    """Names that code reads.  Docstrings and `__all__` hold strings, and an
    import binds a name without reading it, so none of them counts."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported(tree: ast.Module) -> set:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


READ_IN_SRC = set().union(*(_loaded(_tree(path)) for path in MODULES))
ACCEPTANCE_IMPORTS = _imported(_tree(ROOT / "tests" / "test_acceptance.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_exported_name_has_a_use(path):
    unused = [name for name in _exported(_tree(path))
              if name not in READ_IN_SRC and name not in ACCEPTANCE_IMPORTS]
    assert not unused, (f"{path.stem} exports names that no code in src/ reads and the "
                        f"acceptance suite does not import: {unused}")
