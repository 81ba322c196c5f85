"""Rules the package source keeps."""

import ast
from pathlib import Path

import qhpp

SOURCES = sorted(Path(qhpp.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must hold under ``python -O``, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_private_names_across_modules():
    # a module's private names are its own: importing one from another
    # qhpp module means the two share state that has no public name
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "qhpp")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
