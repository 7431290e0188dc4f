"""Every top-level import in ``src/`` is read in its module.

``__init__.py`` re-exports are exempt.  A name inside a string that
parses as an expression (a quoted annotation, an ``__all__`` entry)
counts as read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names(ast.parse(node.value.strip(), mode="eval"))
            except SyntaxError:
                pass
    return names


def test_no_unused_top_level_imports():
    unused = {}
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        if imported - _names(tree):
            unused[str(path.relative_to(SRC))] = sorted(imported - _names(tree))
    assert unused == {}
