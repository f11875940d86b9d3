"""Checks on the library's source text."""

import ast
import re
from pathlib import Path

import setpart
from setpart import verify

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


def test_cli_reads_integer_flags_with_the_package_reader():
    # argparse's type=int takes "1_0" and non-ASCII digits
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "type"
        and isinstance(node.value, ast.Name)
        and node.value.id == "int"
    ]
    assert found == []


def test_errors_alone_decides_what_an_integer_is():
    # errors._is_int and errors._index are the one rule for integer
    # arguments: no other module tests for bool or raises NegativeIndex
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            if name(node.func) == "NegativeIndex":
                found.append("%s:%d" % (path.name, node.lineno))
            elif name(node.func) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if "bool" in map(name, kinds):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_readme_token_table_lists_every_identity():
    # the table right after "`verify` identity tokens:" in the README
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("`verify` identity tokens:\n\n", 1)[1].split("\n\n", 1)[0]
    tokens = re.findall(r"^\| `([^`]+)`", table, re.MULTILINE)
    assert tokens == list(verify.IDENTITIES)
