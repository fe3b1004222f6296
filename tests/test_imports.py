"""Every name a ``smalearn`` module imports is used in that module, and every
module-level function or class is exported or used.

A name that is imported only to be looked up from outside the module carries
``# noqa: F401`` on its line.  ``__init__.py`` imports to re-export and is not
checked, nor are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import smalearn

PACKAGE = Path(__file__).parent.parent / "src" / "smalearn"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# defined only for the benchmark's span list to wrap, which lies outside src/
UNREFERENCED_ALLOWED = {"partition.partition_equality"}


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


def unreferenced_definitions(sources: dict, exported) -> list:
    """``module.name`` of each module-level function or class of ``sources`` (module name ->
    source) that is not in ``exported`` and that no code outside its own definition names,
    as a name or as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((module, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used and name not in exported)


def test_every_definition_is_exported_or_used():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources, smalearn.__all__) == sorted(UNREFERENCED_ALLOWED)


def test_unreferenced_definitions_skips_exported_used_and_self_calls():
    sources = {"a": ("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return h.x\n"
                     "class C:\n    pass\n"),
               "b": "def x():\n    return C()\n",
               "c": "def h():\n    pass\n"}
    assert unreferenced_definitions(sources, ["h"]) == ["a.f", "a.g"]
