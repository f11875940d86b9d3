"""Golden `verify` reports: every token's JSON report, elapsed times removed,
pinned byte for byte under tests/golden/.

A change that alters what a checker covers, what a counterexample says or
how a report is laid out shows up here as a diff.  After an intended
change, regenerate every file from the root of a checkout with

    PYTHONPATH=src python tests/test_golden.py

and name each changed file, with the reason, in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from setpart import cli, verify

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


def report_text(token, jobs=1):
    """The JSON report of `verify <token>` at its golden depth, without its
    timings, as the golden file holds it."""
    argv = ["verify", token, "--max-n", str(DEPTHS[token])]
    argv += ["--format", "json", "--jobs", str(jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    document = json.loads(out.getvalue())
    del document["elapsed_s"]
    for cell in document["cells"]:
        del cell["elapsed_s"]
    return code, json.dumps(document, indent=1) + "\n"


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


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for token in DEPTHS:
        code, text = report_text(token)
        if code != 0:
            raise SystemExit("verify %s failed; its report is not golden" % token)
        (GOLDEN / (token + ".json")).write_text(text)


if __name__ == "__main__":
    sys.exit(regenerate())
