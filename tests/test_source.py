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


# public names that only tests call, each kept for a reason
UNCALLED_BUT_KEPT = {
    "Monomial.one": "the monomial 1, which a constant term is built on",
    "BellPolynomial.coefficient": "reads one term without rendering the polynomial",
    "complete_bell_by_enumeration": "the reference route for the formula route",
    "weight_monomial": "the pair weight that partner must preserve",
}


def test_every_public_name_has_a_caller():
    # a public def or class must be named outside its own definition by
    # the package, perfbench, the README, the acceptance tests or the
    # oracles; __init__'s re-exports do not count as callers
    root = PACKAGE.parents[1]
    modules = sorted(PACKAGE.glob("*.py"))
    readers = [p for p in modules if p.name != "__init__.py"]
    readers += sorted((root / "perfbench").glob("*.py"))
    readers += [root / "README.md"]
    readers += [root / "tests" / name for name in ("test_acceptance.py", "oracles.py")]
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in readers}

    kinds = (ast.FunctionDef, ast.ClassDef)

    def defined(body, owner=""):
        for node in body:
            if isinstance(node, kinds) and not node.name.startswith("_"):
                yield owner + node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from defined(node.body, node.name + ".")

    uncalled = []
    for path in modules:
        for name, node in defined(ast.parse(path.read_text(), str(path)).body):
            # a method is called as .name, anything else by its bare name
            lead = r"\." if "." in name else r"\b"
            use = re.compile(lead + re.escape(node.name) + r"\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                use.search(line)
                for reader, lines in texts.items()
                for i, line in enumerate(lines)
                if not (reader == path and i in own)
            ):
                uncalled.append(name)
    assert [name for name in uncalled if name not in UNCALLED_BUT_KEPT] == []
    assert sorted(uncalled) == sorted(UNCALLED_BUT_KEPT)
