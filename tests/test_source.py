"""Checks on the library's source text."""

import ast
from pathlib import Path

import setpart

PACKAGE = Path(setpart.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, and every exactness check must
    # stay in force there; raise a SetpartError instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "verify.py" in modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
