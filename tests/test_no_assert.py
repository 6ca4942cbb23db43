"""Verdict checks in the library must survive `python -O`, which strips
every `assert` statement."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "lineargames").glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
