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

from . import bellpoly, involutions, numbers, verify
from .errors import SetpartError
from .partitions import SetPartition

SYMBOLIC_POLY_CEILING = 13
NUMERIC_POLY_CEILING = 60
NUMBERS_CEILING = 1000

_NUMBER_KINDS = {
    "bell": "bell",
    "catalan": "catalan",
    "kdiff": "catalan_difference",
    "factorial": "factorial",
    "derangement": "derangement",
    "a000262": "a000262",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setpart",
        description="Exact set-partition counts and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_num = sub.add_parser("numbers", help="print a sequence table")
    p_num.add_argument("kind", choices=sorted(_NUMBER_KINDS))
    p_num.add_argument("--max-n", type=int, default=10)
    p_num.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )

    p_ver = sub.add_parser("verify", help="sweep one identity's checks")
    p_ver.add_argument("identity", choices=verify.IDENTITIES)
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--mode", choices=verify.MODES, default="both")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )

    p_tr = sub.add_parser("trace", help="show the involution's pairing")
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.add_argument("--j", type=int, required=True)
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
    p_bp.add_argument("--n", type=int, required=True)
    p_bp.add_argument(
        "--weights", default=None, help="comma-separated integers t_1,t_2,..."
    )
    p_bp.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    try:
        if args.command == "numbers":
            return _cmd_numbers(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_bellpoly(args)
    except SetpartError as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


def _cmd_numbers(args) -> int:
    if args.max_n < 0:
        print("error: --max-n must be nonnegative", file=sys.stderr)
        return 2
    if args.max_n > NUMBERS_CEILING:
        print("error: --max-n is capped at %d" % (NUMBERS_CEILING,), file=sys.stderr)
        return 2
    fn = getattr(numbers, _NUMBER_KINDS[args.kind])
    values = [fn(n) for n in range(args.max_n + 1)]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "max_n": args.max_n,
                    "values": [str(v) for v in values],
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        print("n,value")
        for n, v in enumerate(values):
            print("%d,%s" % (n, v))
    else:
        width = len(str(args.max_n))
        for n, v in enumerate(values):
            print("%*d  %s" % (width, n, v))
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    report = verify.run_identity(
        args.identity,
        max_n=args.max_n,
        mode=args.mode,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.format == "json":
        print(json.dumps(report.to_jsonable(), indent=2))
    elif args.format == "csv":
        print("identity,mode,params,ok,counterexample")
        for cell in report.cells:
            params = ";".join(
                "%s=%s" % (k, v) for k, v in sorted(cell.params.items())
            )
            detail = (
                json.dumps(cell.counterexample, sort_keys=True)
                if cell.counterexample
                else ""
            )
            print(
                '%s,%s,%s,%s,"%s"'
                % (
                    report.identity,
                    report.mode,
                    params,
                    "ok" if cell.ok else "FAIL",
                    detail.replace('"', '""'),
                )
            )
    else:
        for cell in report.cells:
            params = " ".join(
                "%s=%s" % (k, v) for k, v in sorted(cell.params.items())
            )
            if cell.ok:
                print("cell %s: ok" % (params,))
            else:
                print(
                    "cell %s: FAIL %s"
                    % (params, json.dumps(cell.counterexample, sort_keys=True))
                )
        print(
            "identity %s: %s (cells=%d, elapsed=%.2fs)"
            % (
                report.identity,
                "PASS" if report.passed else "FAIL",
                len(report.cells),
                report.elapsed,
            )
        )
    return 0 if report.passed else 1


def _parse_marks(text: str):
    stripped = text.replace(" ", "")
    if stripped in ("", "-"):
        return frozenset()
    return frozenset(int(t) for t in stripped.split(","))


def _set_text(s) -> str:
    return ",".join(str(e) for e in sorted(s)) if s else "-"


def _sign_text(lam) -> str:
    return "+" if lam.sign > 0 else "-"


def _image_text(image) -> str:
    if image is involutions.FIXED:
        return "FIXED"
    return "(%s; %s)" % (_set_text(image.S), image.pi.to_text())


def _cmd_trace(args) -> int:
    if args.full and (args.pi is not None or args.S.strip()):
        print(
            "error: --full lists the whole carrier; drop --pi and --S",
            file=sys.stderr,
        )
        return 2
    if args.full:
        for lam in involutions.enumerate_carrier(args.n, args.j):
            image = involutions.partner(lam)
            print(
                "%s | %s | %s | %s"
                % (
                    _sign_text(lam),
                    _set_text(lam.S),
                    lam.pi.to_text(),
                    _image_text(image),
                )
            )
        return 0
    if args.pi is None:
        print(
            "error: --pi is required unless --full is given", file=sys.stderr
        )
        return 2
    try:
        marks = _parse_marks(args.S)
    except ValueError:
        print("error: bad marked-element list %r" % (args.S,), file=sys.stderr)
        return 2
    pi = SetPartition.from_text(args.pi)
    lam = involutions.SignedPair(args.n, args.j, marks, pi)
    print(
        "lambda: %s | %s | %s"
        % (_sign_text(lam), _set_text(lam.S), lam.pi.to_text())
    )
    pivot = involutions.pivot_of(lam)
    if pivot is None:
        print("pivot: FIXED")
        return 0
    print("pivot: %d" % (pivot,))
    image = involutions.partner(lam)
    print(
        "partner: %s | %s | %s"
        % (_sign_text(image), _set_text(image.S), image.pi.to_text())
    )
    return 0


def _cmd_bellpoly(args) -> int:
    n = args.n
    if n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return 2
    ceiling = (
        NUMERIC_POLY_CEILING if args.weights is not None else SYMBOLIC_POLY_CEILING
    )
    if n > ceiling:
        print("error: --n is capped at %d here" % (ceiling,), file=sys.stderr)
        return 2
    if args.weights is not None:
        try:
            weights = [int(t) for t in args.weights.replace(" ", "").split(",")]
        except ValueError:
            print("error: bad weight list %r" % (args.weights,), file=sys.stderr)
            return 2
        # Y_n contains t_n for every n >= 1
        if len(weights) < n:
            print(
                "error: need %d weights, got %d" % (n, len(weights)),
                file=sys.stderr,
            )
            return 2
    poly = bellpoly.complete_bell_by_sum(n)
    if args.weights is None:
        if args.format == "json":
            print(json.dumps({"n": n, "terms": poly.to_jsonable()}, indent=2))
        elif args.format == "csv":
            print("coefficient,monomial")
            for mono, coeff in poly.terms():
                print("%d,%s" % (coeff, mono.to_text()))
        else:
            print(poly.to_text())
        return 0
    value = poly.evaluate(weights)
    if args.format == "json":
        print(
            json.dumps(
                {"n": n, "weights": weights, "value": str(value)}, indent=2
            )
        )
    elif args.format == "csv":
        print("n,value")
        print("%d,%s" % (n, value))
    else:
        print(value)
    return 0
