"""Command-line front end.

Subcommands: ``numbers`` prints sequence tables, ``verify`` sweeps an
identity and reports per-cell results, ``trace`` shows the involution's
action on one pair or a whole carrier, ``bellpoly`` prints the block-size
polynomial or its value at given weights.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error.
"""

import argparse
import json
import sys
from itertools import chain

from . import bellpoly, involutions, numbers, verify
from .errors import (
    MalformedInput,
    SetpartError,
    WeightVectorTooShort,
    _index,
    _printed,
    _shown,
)
from .partitions import SetPartition, _read_integers

SYMBOLIC_POLY_CEILING = 13

_NUMBER_KINDS = {
    "bell": "bell",
    "catalan": "catalan",
    "kdiff": "catalan_difference",
    "factorial": "factorial",
    "derangement": "derangement",
    "a000262": "a000262",
}


def _integer(text: str) -> int:
    """The one integer of an integer flag, read by _read_integers."""
    try:
        (value,) = _read_integers(text, "integer")
    except ValueError:
        raise argparse.ArgumentTypeError("bad integer %s" % _shown(text)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setpart",
        description="Exact set-partition counts and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_num = sub.add_parser("numbers", help="print a sequence table")
    p_num.set_defaults(run=_cmd_numbers)
    p_num.add_argument("kind", choices=sorted(_NUMBER_KINDS))
    p_num.add_argument("--max-n", type=_integer, default=10)

    p_ver = sub.add_parser("verify", help="sweep one identity's checks")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("identity", choices=verify.IDENTITIES)
    p_ver.add_argument("--max-n", type=_integer, default=None)
    p_ver.add_argument("--mode", choices=verify.MODES, default="both")
    p_ver.add_argument("--seed", type=_integer, default=0)
    p_ver.add_argument("--jobs", type=_integer, default=1)

    p_tr = sub.add_parser("trace", help="show the involution's pairing")
    p_tr.set_defaults(run=_cmd_trace)
    p_tr.add_argument("--n", type=_integer, required=True)
    p_tr.add_argument("--j", type=_integer, required=True)
    p_tr.add_argument("--S", default="", help="marked elements, e.g. 1,3")
    p_tr.add_argument(
        "--pi", default=None, help="partition spec, e.g. 2/4,5/6,8,9/7"
    )
    p_tr.add_argument(
        "--full",
        action="store_true",
        help="list the whole carrier instead of one pair",
    )

    p_bp = sub.add_parser("bellpoly", help="block-size polynomial")
    p_bp.set_defaults(run=_cmd_bellpoly)
    p_bp.add_argument("--n", type=_integer, required=True)
    p_bp.add_argument(
        "--weights", default=None, help="comma-separated integers t_1,t_2,..."
    )

    for p in (p_num, p_ver, p_bp):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    try:
        return args.run(args)
    except SetpartError as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 2


def entry():
    import signal  # not at the top: main() also runs inside other programs

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


def _emit(fmt, document, header, rows, lines) -> None:
    """Print one result in its --format: the JSON document, the CSV header
    and rows (fields joined by commas), or the table lines.  Only the
    chosen part is consumed, so callers pass rows and lines as generators
    and the formats not chosen print nothing; the document is built
    before the call, whatever the format."""
    if fmt == "json":
        print(json.dumps(document, indent=2))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        for line in lines:
            print(line)


def _cmd_numbers(args) -> int:
    _index(args.max_n, "--max-n", ceiling=numbers.NUMBERS_CEILING)
    fn = getattr(numbers, _NUMBER_KINDS[args.kind])
    # convert once the table is built: freeing each big integer between
    # string allocations fragments the heap (+0.3-0.9 MB peak RSS at 1000)
    values = [fn(n) for n in range(args.max_n + 1)]
    texts = [str(v) for v in values]
    width = len(str(args.max_n))
    _emit(
        args.format,
        {"kind": args.kind, "max_n": args.max_n, "values": texts},
        ("n", "value"),
        ((str(n), v) for n, v in enumerate(texts)),
        ("%*d  %s" % (width, n, v) for n, v in enumerate(texts)),
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_identity(
        args.identity,
        max_n=args.max_n,
        mode=args.mode,
        seed=args.seed,
        jobs=args.jobs,
    )

    def params(cell, sep):
        return sep.join("%s=%s" % kv for kv in sorted(cell.params.items()))

    def detail(cell):
        return json.dumps(cell.counterexample, sort_keys=True)

    def row(cell):  # the counterexample is always quoted: its JSON holds commas
        text = detail(cell) if cell.counterexample else ""
        quoted = '"%s"' % text.replace('"', '""')
        ok = "ok" if cell.ok else "FAIL"
        return report.identity, report.mode, params(cell, ";"), ok, quoted

    def line(cell):
        ok = "ok" if cell.ok else "FAIL " + detail(cell)
        return "cell %s: %s" % (params(cell, " "), ok)

    summary = "identity %s: %s (cells=%d, elapsed=%.2fs)" % (
        report.identity,
        "PASS" if report.passed else "FAIL",
        len(report.cells),
        report.elapsed,
    )
    _emit(
        args.format,
        report.to_jsonable(),
        ("identity", "mode", "params", "ok", "counterexample"),
        map(row, report.cells),
        chain(map(line, report.cells), (summary,)),
    )
    return 0 if report.passed else 1


def _pair_fields(lam) -> tuple:
    """A signed pair's sign, marks ('-' when none) and blocks, as text."""
    marks = ",".join(map(str, sorted(lam.S))) or "-"
    return ("+" if lam.sign > 0 else "-", marks, lam.pi.to_text())


def _cmd_trace(args) -> int:
    if args.full and (args.pi is not None or args.S.strip()):
        raise MalformedInput("--full lists the whole carrier; drop --pi and --S")
    if args.full:
        for lam in involutions.enumerate_carrier(args.n, args.j):
            image = involutions.partner(lam)
            shown = "FIXED" if image is None else "(%s; %s)" % _pair_fields(image)[1:]
            print(" | ".join(_pair_fields(lam) + (shown,)))
        return 0
    if args.pi is None:
        raise MalformedInput("--pi is required unless --full is given")
    no_marks = args.S.strip(" \t") == "-"
    marks = () if no_marks else _read_integers(args.S, "marked-element list")
    pi = SetPartition.from_text(args.pi)
    lam = involutions.SignedPair(args.n, args.j, marks, pi)
    print("lambda: " + " | ".join(_pair_fields(lam)))
    pivot = involutions.pivot_of(lam)
    if pivot is None:
        print("pivot: FIXED")
        return 0
    print("pivot: %d" % (pivot,))
    print("partner: " + " | ".join(_pair_fields(involutions.partner(lam))))
    return 0


def _cmd_bellpoly(args) -> int:
    ceiling = (
        bellpoly.POLY_CEILING if args.weights is not None else SYMBOLIC_POLY_CEILING
    )
    n = _index(args.n, "--n", ceiling=ceiling)
    if args.weights is not None:
        weights = _read_integers(args.weights, "weight list")
        # Y_n contains t_n for every n >= 1
        if len(weights) < n:
            raise WeightVectorTooShort("need %d weights, got %d" % (n, len(weights)))
    poly = bellpoly.complete_bell_by_sum(n)
    if args.weights is None:
        # `for p in (poly,)` defers terms() and to_text() to their format
        parts = (
            {"n": n, "terms": poly.to_jsonable()},
            ("coefficient", "monomial"),
            ((str(c), m.to_text()) for p in (poly,) for m, c in p.terms()),
            (p.to_text() for p in (poly,)),
        )
    else:
        value = poly.evaluate(weights)
        value = _printed(value.__str__, "the value")
        document = {"n": n, "weights": weights, "value": value}
        parts = (document, ("n", "value"), ((str(n), value),), (value,))
    _emit(args.format, *parts)
    return 0
