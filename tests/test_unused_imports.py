"""Every top-level import in tests/*.py is read by its module.

An import nothing reads keeps a dependency alive after its last use, as
the libmp names did once their tests went. The scan is by name: a bound
name counts as read when the module loads it anywhere (a call, an
attribute's base, a decorator). __future__ imports bind nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _unread_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(full for name, full in bound.items() if name not in read)


def test_every_top_level_import_under_tests_is_read():
    unread = {path.name: names for path in sorted(TESTS.glob("*.py"))
              if (names := _unread_imports(ast.parse(path.read_text())))}
    assert not unread, unread


def test_the_scan_finds_an_unread_import():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw()\n")
    assert _unread_imports(tree) == ["a.b", "os", "x.y"]
