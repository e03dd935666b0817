"""No module-level import that nothing in its own file uses.

Checked with the standard library's ast: a name bound by a top-level
import must appear as a name somewhere in the file (attribute bases
count; docstrings and comments do not).  Package __init__ files are
left out, since re-exporting is what their imports are for.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "purcat").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []
