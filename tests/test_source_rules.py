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
