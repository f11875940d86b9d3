"""Golden outputs, pinned byte for byte under tests/golden/: every
`verify` token's JSON report, elapsed times removed, two failing reports
made under falsified maps, the text of three `trace` runs and four
`bellpoly` outputs.

A change that alters what a checker covers, what a counterexample says,
how a report is laid out or what `trace` or `bellpoly` prints shows up
here as a diff.
After an intended change, regenerate every file from the root of a
checkout with

    PYTHONPATH=src python tests/test_golden.py

and name each changed file, with the reason, in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from setpart import cli, involutions, verify

GOLDEN = Path(__file__).resolve().parent / "golden"

# the depth each token's report is pinned at; the sweeps stop at 7 so that
# all of them together take a few seconds
DEPTHS = {
    "thm1": 7,
    "cor2": 7,
    "cor3": 7,
    "cor4": 7,
    "thm2": 10,
    "nc-catalan": 13,
    "nc-k": 13,
    "nc-firstj": 12,
    "involution": 7,
    "psi": 7,
    "bijections": 7,
}


# golden file name -> `trace` arguments: the whole carrier of one small
# cell, the worked example of the README and a fixed pair
TRACES = {
    "trace-full": ["--full", "--n", "4", "--j", "2"],
    "trace-example": ["--n", "8", "--j", "4", "--S", "1,3", "--pi", "2/4,5/6,8,9/7"],
    "trace-fixed": ["--n", "4", "--j", "2", "--S", "-", "--pi", "1,3/2,5/4"],
}


def _kept_sign(partner):
    """partner, except that the pair ({}, 1,3/2/4) at n = 3, j = 2 is sent
    to itself, so it keeps its sign."""

    def kept(lam):
        if (lam.n, lam.j, lam.S, lam.pi.to_text()) == (3, 2, set(), "1,3/2/4"):
            return lam
        return partner(lam)

    return kept


def _dropped_image(build):
    """build_singleton_free, except that (T = {}, rho = 1,2/3) at n = 3,
    j = 1 is sent to the image of (T = {}, rho = 1,2,3), whose own image
    is then the only one of the two left."""

    def dropped(n, j, t, rho):
        if (n, j, t, rho.to_text()) == (3, 1, set(), "1,2/3"):
            rho = rho.from_text("1,2,3")
        return build(n, j, t, rho)

    return dropped


# the weights of the benchmark's `weighted` workload at seed 1
# (perfbench/workloads.py, weights(1, 40))
SEED_1_WEIGHTS = (
    "-2,1,3,3,3,-3,-1,-3,0,3,0,0,2,0,3,-2,-3,0,-3,3,"
    "0,0,1,3,3,-3,2,0,-1,2,3,-2,1,-3,-1,-3,-3,-3,2,1"
)

# golden file name -> `bellpoly` arguments: the symbolic Y_13 in each
# format, and Y_40 evaluated at the seed-1 weights
BELLPOLY = {
    "bellpoly-13.json": ["--n", "13", "--format", "json"],
    "bellpoly-13.txt": ["--n", "13", "--format", "table"],
    "bellpoly-13.csv": ["--n", "13", "--format", "csv"],
    "bellpoly-40-weights.json": [
        "--n", "40", "--weights=" + SEED_1_WEIGHTS, "--format", "json",
    ],
}


# golden file name -> (token, depth, the involutions map replaced, and
# its falsified form built from the original): failing reports, which pin
# the exact counterexample text
FALSIFIED = {
    "involution-kept-sign": ("involution", 4, "partner", _kept_sign),
    "psi-dropped-image": ("psi", 4, "build_singleton_free", _dropped_image),
}


def run(argv):
    """The exit code and standard output of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def report_text(token, jobs=1, depth=None):
    """The JSON report of `verify <token>` at its golden depth, or at
    depth, without its timings, as the golden file holds it."""
    argv = ["verify", token, "--max-n", str(depth or DEPTHS[token])]
    argv += ["--format", "json", "--jobs", str(jobs)]
    code, text = run(argv)
    document = json.loads(text)
    del document["elapsed_s"]
    for cell in document["cells"]:
        del cell["elapsed_s"]
    return code, json.dumps(document, indent=1) + "\n"


def failing_report_text(name):
    """report_text of a FALSIFIED entry, with its map replaced meanwhile."""
    token, depth, attribute, falsify = FALSIFIED[name]
    original = getattr(involutions, attribute)
    setattr(involutions, attribute, falsify(original))
    try:
        return report_text(token, depth=depth)
    finally:
        setattr(involutions, attribute, original)


def test_every_token_has_a_golden_depth():
    assert tuple(DEPTHS) == verify.IDENTITIES


@pytest.mark.parametrize(
    "token, jobs",
    [(token, 1) for token in DEPTHS] + [("psi", 2)],
    ids=lambda value: str(value),
)
def test_report_matches_golden_file(token, jobs):
    code, text = report_text(token, jobs)
    assert code == 0
    assert text == (GOLDEN / (token + ".json")).read_text()


@pytest.mark.parametrize("name", FALSIFIED)
def test_failing_report_matches_golden_file(name):
    code, text = failing_report_text(name)
    assert code == 1
    assert text == (GOLDEN / (name + ".json")).read_text()


@pytest.mark.parametrize("name", TRACES)
def test_trace_matches_golden_file(name):
    code, text = run(["trace"] + TRACES[name])
    assert code == 0
    assert text == (GOLDEN / (name + ".txt")).read_text()


@pytest.mark.parametrize("name", BELLPOLY)
def test_bellpoly_matches_golden_file(name):
    code, text = run(["bellpoly"] + BELLPOLY[name])
    assert code == 0
    assert text == (GOLDEN / name).read_text()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for token in DEPTHS:
        code, text = report_text(token)
        if code != 0:
            raise SystemExit("verify %s failed; its report is not golden" % token)
        (GOLDEN / (token + ".json")).write_text(text)
    for name in FALSIFIED:
        code, text = failing_report_text(name)
        if code != 1:
            raise SystemExit("%s passed; a falsified report must fail" % name)
        (GOLDEN / (name + ".json")).write_text(text)
    for name, argv in TRACES.items():
        code, text = run(["trace"] + argv)
        if code != 0:
            raise SystemExit("trace %s failed; its text is not golden" % name)
        (GOLDEN / (name + ".txt")).write_text(text)
    for name, argv in BELLPOLY.items():
        code, text = run(["bellpoly"] + argv)
        if code != 0:
            raise SystemExit("bellpoly %s failed; its text is not golden" % name)
        (GOLDEN / name).write_text(text)


if __name__ == "__main__":
    sys.exit(regenerate())
