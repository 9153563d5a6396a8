"""Every name the package exports has a caller: something in the package
or in the benchmark reads it, apart from the statement that defines it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "statefx" / "__init__.py"


def exported_names():
    tree = ast.parse(INIT.read_text())
    return sorted(a.asname or a.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for a in node.names)


def read_names(path):
    """Bare names and attributes a module loads, plus its string constants
    (the benchmark tracer names the functions it wraps as strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_is_referenced():
    files = [p for p in (ROOT / "src" / "statefx").glob("*.py") if p != INIT]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(read_names(p) for p in files))
    exports = exported_names()
    assert exports
    assert [n for n in exports if n not in used] == []
