"""Every name a module of the package imports is used in it.

A name counts as used when the module reads it anywhere in its code
(annotations included) or lists it in `__all__`.
"""

import ast
from pathlib import Path

import pytest

import gburge

SOURCES = sorted(Path(gburge.__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["math", "path"]
