"""Checks on the library's source text."""

import ast
import json
import os
import re
import subprocess
import sys
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


# stdlib packages whose import costs a command's start-up more than the
# command uses of them
HEAVY_IMPORTS = ("concurrent", "multiprocessing", "dataclasses", "inspect", "logging")


def test_start_up_loads_no_heavy_module():
    snippet = (
        "import json, sys\n"
        "import setpart\n"
        "from setpart import cli\n"
        "cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = json.loads(done.stdout)
    assert "setpart.verify" in loaded
    heavy = [m for m in loaded if m.split(".")[0] in HEAVY_IMPORTS]
    assert heavy == []


def test_readme_token_table_lists_every_identity():
    # the table right after "`verify` identity tokens:" in the README
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("`verify` identity tokens:\n\n", 1)[1].split("\n\n", 1)[0]
    tokens = re.findall(r"^\| `([^`]+)`", table, re.MULTILINE)
    assert tokens == list(verify.IDENTITIES)


def test_readme_library_examples_run():
    # every >>> line of the Library block runs in one namespace; a line
    # followed by a non-prompt line is an expression whose repr must read
    # as that line, with its trailing "# ..." comment stripped
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith(">>> "):
            continue
        source = line[4:].split("#", 1)[0].strip()
        if after.strip() and not after.startswith(">>>"):
            want = after.split("#", 1)[0].strip()
            assert repr(eval(source, namespace)) == want, source
            checked.append(source)
        else:
            exec(source, namespace)
    assert "complete_bell_by_sum(3).to_text()" in checked  # the term order
    assert "complete_bell_by_sum(9).evaluate(WeightVector.factorials(9))" in checked
    assert len(checked) == 7


# public names that only tests call, each kept for a reason
UNCALLED_BUT_KEPT = {
    "Monomial.one": "the monomial 1, which a constant term is built on",
    "BellPolynomial.coefficient": "reads one term without rendering the polynomial",
    "weight_monomial": "the pair weight that partner must preserve",
}


def public_definitions(body, owner=""):
    """(name, node) for each public def or class in body; a method is
    named Class.method."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield owner + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body, node.name + ".")


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

    uncalled = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for name, node in public_definitions(tree.body):
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


# public names that two definitions share, so the caller guard above, which
# matches a method by its bare .name, counts either one's callers for both;
# each is listed with a caller (file, text) that uses this definition
SHARED_NAMES = {
    "SetPartition.from_text": ("src/setpart/cli.py", "SetPartition.from_text(args"),
    "RGS.from_text": ("tests/test_acceptance.py", 'RGS.from_text("112321442")'),
    "Monomial.to_jsonable": ("src/setpart/bellpoly.py", "m.to_jsonable()"),
    "BellPolynomial.to_jsonable": ("src/setpart/cli.py", "poly.to_jsonable()"),
    "SetPartition.to_jsonable": ("src/setpart/verify.py", "lam.pi.to_jsonable()"),
    "CellResult.to_jsonable": ("src/setpart/verify.py", "c.to_jsonable() for c in"),
    "VerificationReport.to_jsonable": ("src/setpart/cli.py", "report.to_jsonable()"),
    "Monomial.to_text": ("src/setpart/bellpoly.py", "mono.to_text()"),
    "BellPolynomial.to_text": ("src/setpart/verify.py", "lhs.to_text()"),
    "SetPartition.to_text": ("src/setpart/cli.py", "lam.pi.to_text()"),
    "RGS.to_text": ("README.md", "to_rgs(p).to_text()"),
    "_kernels.count_noncrossing": ("src/setpart/noncrossing.py", ".count_noncrossing("),
    "noncrossing.count_noncrossing": ("src/setpart/verify.py", '("count_noncrossing",'),
}


def test_shared_public_names_are_reviewed():
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in public_definitions(tree.body):
            qualified = name if "." in name else path.stem + "." + name
            owners.setdefault(node.name, []).append(qualified)
    shared = {q for names in owners.values() if len(names) > 1 for q in names}
    assert sorted(shared) == sorted(SHARED_NAMES)
    root = PACKAGE.parents[1]
    for name, (path, call) in SHARED_NAMES.items():
        assert call in (root / path).read_text(encoding="utf-8"), name
