"""Every name a ``smalearn`` module imports is used in that module.

A name that is imported only to be looked up from outside the module carries
``# noqa: F401`` on its line.  ``__init__.py`` imports to re-export and is not
checked, nor are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "smalearn").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name imported by ``source`` and used nowhere in it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_dead_and_skips_marked_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from bisect import bisect_left, insort\n"
              "from heapq import heappop  # noqa: F401  looked up from outside\n"
              "insort([], 1)\n")
    assert unused_imports(source) == [(2, "os"), (3, "bisect_left")]
