"""Identity verification sweeps and machine-readable reports.

Each identity id names a family of checks over a parameter grid.  A sweep
produces one cell per parameter point; the report lists the cells in
planned order with the same outcomes however they were scheduled.  A
parallel sweep hands the cells to its workers one per task in reverse
planned order, largest n first, so the heaviest cells do not queue up
behind each other at the end (Graham's LPT rule); each cell records its
own elapsed time.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import bellpoly, involutions, noncrossing, numbers, partitions
from .errors import IndexOutOfRange, SizeTooLarge

IDENTITIES = (
    "thm1",
    "cor2",
    "cor3",
    "cor4",
    "thm2",
    "nc-catalan",
    "nc-k",
    "nc-firstj",
    "involution",
    "psi",
    "bijections",
)

MODES = ("closed-form", "enumerative", "both")

# identity -> (default max_n, hard ceiling for closed-form, for enumerative)
_LIMITS = {
    "thm1": (12, 40, involutions.CARRIER_CEILING),
    "cor2": (12, 40, 10),
    "cor3": (12, 40, 10),
    "cor4": (12, 40, 10),
    "thm2": (10, 10, involutions.SYMBOLIC_CEILING),
    "nc-catalan": (12, noncrossing.WORD_CEILING, noncrossing.WORD_CEILING),
    "nc-k": (12, noncrossing.WORD_CEILING, noncrossing.WORD_CEILING),
    "nc-firstj": (10, noncrossing.WORD_CEILING, noncrossing.WORD_CEILING),
    "involution": (9, involutions.CARRIER_CEILING, involutions.CARRIER_CEILING),
    "psi": (9, 10, 10),
    "bijections": (9, 10, 10),
}

# in "both" mode the enumerative half of a mixed sweep self-limits here
# while the closed half keeps going; pass mode=enumerative to force a
# hard error instead
BIJECTIVE_DEPTH = 9

THM2_NUMERIC_VECTORS = 20
THM2_NUMERIC_SPAN = 3  # entries drawn from [-3, 3]


@dataclass
class CellResult:
    params: dict
    ok: bool
    counterexample: Optional[dict] = None
    # timing differs between runs, so it takes no part in equality
    elapsed_s: float = field(default=0.0, compare=False)

    def to_jsonable(self):
        return {
            "params": self.params,
            "ok": self.ok,
            "counterexample": self.counterexample,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class VerificationReport:
    identity: str
    mode: str
    max_n: int
    seed: int
    cells: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    def failures(self):
        return [c for c in self.cells if not c.ok]

    def to_jsonable(self):
        return {
            "identity": self.identity,
            "mode": self.mode,
            "max_n": self.max_n,
            "seed": self.seed,
            "passed": self.passed,
            "cell_count": len(self.cells),
            "elapsed_s": round(self.elapsed, 3),
            "cells": [c.to_jsonable() for c in self.cells],
        }


def default_max_n(identity: str, mode: str = "both") -> int:
    return min(_LIMITS[identity][0], _ceiling(identity, mode))


def _ceiling(identity: str, mode: str) -> int:
    closed, enum = _LIMITS[identity][1], _LIMITS[identity][2]
    if mode == "enumerative":
        return enum
    return max(closed, enum)


def random_weight_vectors(seed: int, length: int, count: int = THM2_NUMERIC_VECTORS):
    """The fixed pseudo-random integer weight vectors for spot checks."""
    rng = random.Random(seed)
    return [
        tuple(
            rng.randint(-THM2_NUMERIC_SPAN, THM2_NUMERIC_SPAN)
            for _ in range(length)
        )
        for _ in range(count)
    ]


def plan_cells(identity: str, max_n: int, mode: str):
    """The deterministic cell list for a sweep."""
    if identity not in IDENTITIES:
        raise IndexOutOfRange("unknown identity %r" % (identity,))
    if mode not in MODES:
        raise IndexOutOfRange("unknown mode %r" % (mode,))
    if max_n < 0:
        raise IndexOutOfRange("max_n must be nonnegative")
    if max_n > _ceiling(identity, mode):
        raise SizeTooLarge(
            "%s sweeps in mode %s are capped at max_n = %d"
            % (identity, mode, _ceiling(identity, mode))
        )
    cells = []
    if identity in ("thm1", "involution", "psi"):
        for n in range(max_n + 1):
            for j in range(n + 1):
                cells.append({"n": n, "j": j})
    elif identity in ("cor2", "cor3"):
        for j in range(max_n + 1):
            cells.append({"j": j})
    elif identity == "cor4":
        for j in range(2, max_n + 1):
            cells.append({"j": j})
    elif identity == "bijections":
        for j in range(max_n + 1):
            for part in ("gather-one", "gather-two", "classes"):
                if part == "classes" and j < 2:
                    continue
                cells.append({"j": j, "part": part})
    elif identity == "thm2":
        sym_top = min(max_n, involutions.SYMBOLIC_CEILING)
        for n in range(sym_top + 1):
            for j in range(n + 1):
                cells.append({"n": n, "j": j})
        if mode != "enumerative":
            # past the symbolic ceiling the check degrades to evaluating
            # both sides at fixed pseudo-random weight vectors
            for n in range(sym_top + 1, max_n + 1):
                for j in range(n + 1):
                    cells.append({"n": n, "j": j, "check": "numeric"})
    elif identity in ("nc-catalan", "nc-k"):
        for n in range(max_n + 1):
            cells.append({"n": n})
    elif identity == "nc-firstj":
        for n in range(1, max_n + 1):
            for j in range(n):
                cells.append({"n": n, "j": j})
    return cells


def check_cell(identity: str, mode: str, seed: int, cell: dict) -> CellResult:
    """Run one cell of a sweep and report the outcome.

    An exception raised by the checker fails this cell only; its type
    and message become the counterexample.  Either way the result carries
    the cell's elapsed time.
    """
    checker = _CHECKERS[identity]
    start = time.perf_counter()
    try:
        result = checker(mode, seed, cell)
    except Exception as err:
        result = CellResult(
            cell, False, {"error": type(err).__name__, "message": str(err)}
        )
    result.elapsed_s = time.perf_counter() - start
    return result


def run_identity(
    identity: str,
    max_n: Optional[int] = None,
    mode: str = "both",
    seed: int = 0,
    jobs: int = 1,
) -> VerificationReport:
    """Sweep one identity over its grid and collect the report.

    With jobs > 1 the cells run in worker processes, at most one per CPU
    and one per cell.  The workers take one cell per task, in reverse
    planned order (largest n first); the report order is the planned
    order either way.
    """
    if max_n is None:
        max_n = default_max_n(identity, mode)
    start = time.perf_counter()
    cells = plan_cells(identity, max_n, mode)
    report = VerificationReport(identity, mode, max_n, seed)
    width = min(jobs, os.cpu_count() or 1, len(cells))
    if width > 1:
        # plan_cells lists every grid by increasing n and a cell's work
        # grows several-fold per step of n, so the reversed list hands
        # out the largest cells first
        tasks = [(identity, mode, seed, c) for c in reversed(cells)]
        with ProcessPoolExecutor(max_workers=width) as pool:
            results = list(pool.map(_check_cell_star, tasks))
        results.reverse()
    else:
        results = [check_cell(identity, mode, seed, c) for c in cells]
    report.cells = results
    report.elapsed = time.perf_counter() - start
    return report


def _check_cell_star(args):
    return check_cell(*args)


def _pair_payload(lam) -> dict:
    return {
        "S": sorted(lam.S),
        "pi": lam.pi.to_jsonable(),
    }


def _check_thm1(mode, seed, cell):
    n, j = cell["n"], cell["j"]
    lhs = numbers.bell_alternating_sum(n, j)
    rhs = numbers.bell_binomial_sum(n, j)
    if mode in ("closed-form", "both") and lhs != rhs:
        return CellResult(cell, False, {"lhs": str(lhs), "rhs": str(rhs)})
    if mode == "enumerative" or (mode == "both" and n <= BIJECTIVE_DEPTH):
        signed = 0
        for lam in involutions.enumerate_carrier(n, j):
            signed += lam.sign
        if signed != rhs:
            return CellResult(
                cell, False, {"signed_sum": str(signed), "rhs": str(rhs)}
            )
        if signed != lhs:
            return CellResult(
                cell, False, {"signed_sum": str(signed), "lhs": str(lhs)}
            )
    return CellResult(cell, True)


def _check_involution(mode, seed, cell):
    n, j = cell["n"], cell["j"]
    signed = 0
    fixed = 0
    for lam in involutions.enumerate_carrier(n, j):
        signed += lam.sign
        image = involutions.partner(lam)
        if image is involutions.FIXED:
            fixed += 1
            if lam.S or any(
                len(b) == 1 and b[0] <= j for b in lam.pi.blocks
            ):
                return CellResult(
                    cell,
                    False,
                    {"reason": "false fixed point", "pair": _pair_payload(lam)},
                )
        else:
            if image.sign != -lam.sign:
                return CellResult(
                    cell,
                    False,
                    {"reason": "sign not reversed", "pair": _pair_payload(lam)},
                )
            if involutions.partner(image) != lam:
                return CellResult(
                    cell,
                    False,
                    {"reason": "not an involution", "pair": _pair_payload(lam)},
                )
    rhs = numbers.bell_binomial_sum(n, j)
    if not signed == fixed == rhs:
        return CellResult(
            cell,
            False,
            {
                "signed_sum": str(signed),
                "fixed_count": str(fixed),
                "rhs": str(rhs),
            },
        )
    return CellResult(cell, True)


def _check_coding(cell, n, j, code):
    """Check that code is a bijection from the singleton-free coding's
    domain onto the partitions of {1..n+1} with no singleton in {1..j}.

    The domain is every T inside {j+1..n}, in binary-counter order, with
    every partition rho of {1..n} minus T.  code(T, rho) returns the
    image, or the reason its own check failed on that element.
    """
    image = set()
    count = 0
    for t, ground in involutions._complements(n, range(j + 1, n + 1)):
        for rho in partitions.enumerate_partitions(ground):
            out = code(t, rho)
            if not isinstance(out, str):
                count += 1
                image.add(out)
                if len(image) == count:
                    continue
                out = "not injective"
            return CellResult(
                cell,
                False,
                {"reason": out, "T": sorted(t), "rho": rho.to_jsonable()},
            )
    expected = _no_singleton_targets(n + 1, j)
    if image != expected:
        missed = next(iter(expected - image), None)
        extra = next(iter(image - expected), None)
        return CellResult(
            cell,
            False,
            {
                "reason": "image mismatch",
                "missing": missed.to_jsonable() if missed else None,
                "extra": extra.to_jsonable() if extra else None,
            },
        )
    return CellResult(cell, True)


def _check_psi(mode, seed, cell):
    n, j = cell["n"], cell["j"]

    def code(t, rho):
        built = involutions.build_singleton_free(n, j, t, rho)
        if involutions.split_singleton_free(n, j, built) != (t, rho):
            return "round trip failed"
        return built

    return _check_coding(cell, n, j, code)


def _check_cor(variant):
    def check(mode, seed, cell):
        j = cell["j"]
        lhs = numbers.singleton_identity_lhs(j, variant)
        rhs = numbers.singleton_identity_rhs(j, variant)
        if mode in ("closed-form", "both") and lhs != rhs:
            return CellResult(cell, False, {"lhs": str(lhs), "rhs": str(rhs)})
        if mode == "enumerative" or (mode == "both" and j <= BIJECTIVE_DEPTH):
            part = {
                "collapse": "gather-one",
                "pair": "gather-two",
                "alternating": "classes",
            }[variant]
            inner = _check_bijections(
                mode, seed, {"j": j, "part": part}
            )
            if not inner.ok:
                return CellResult(cell, False, inner.counterexample)
        return CellResult(cell, True)

    return check


def _no_singleton_targets(size, j):
    """Partitions of {1..size} with no singleton inside {1..j}."""
    return {
        p
        for p in partitions.enumerate_partitions(size)
        if not any(len(b) == 1 and b[0] <= j for b in p.blocks)
    }


def _check_bijections(mode, seed, cell):
    j = cell["j"]
    part = cell["part"]
    if part == "gather-one":
        return _check_coding(
            cell, j, j, lambda t, rho: involutions.gather_singletons(rho)
        )
    if part == "gather-two":

        def code(t, rho):
            # T = {j+1} is the source on {1..j}; j+1 then joins j+2
            out = involutions.gather_singletons_two(rho, j)
            if (j + 2 in partitions.block_containing(out, j + 1)) != bool(t):
                return "case split"
            return out

        return _check_coding(cell, j + 1, j, code)
    if part == "classes":
        c_sets = {}
        d_sets = {}
        for p in partitions.enumerate_partitions(j):
            for label in involutions.classify_cd(p, j):
                bucket = c_sets if label.kind == "C" else d_sets
                bucket.setdefault(label.index, set()).add(p)
        if d_sets.get(1):
            return CellResult(
                cell, False, {"reason": "class D_1 is not empty"}
            )
        for m in range(2, j):
            if d_sets.get(m, set()) != c_sets.get(m - 1, set()):
                return CellResult(
                    cell,
                    False,
                    {"reason": "class overlap identity fails", "index": m},
                )
        for m in range(1, j):
            total = len(c_sets.get(m, ())) + len(d_sets.get(m, ()))
            if total != numbers.bell(m):
                return CellResult(
                    cell,
                    False,
                    {
                        "reason": "class size sum is not a Bell number",
                        "index": m,
                        "total": total,
                    },
                )
        top = len(c_sets.get(j - 1, ()))
        if top != numbers.singleton_identity_lhs(j, "alternating"):
            return CellResult(
                cell,
                False,
                {"reason": "top class size mismatch", "size": top},
            )
    else:
        raise IndexOutOfRange("unknown bijection part %r" % (part,))
    return CellResult(cell, True)


def _check_thm2(mode, seed, cell):
    n, j = cell["n"], cell["j"]
    lhs = involutions.weighted_alternating_sum(n, j)
    rhs = involutions.weighted_binomial_sum(n, j)
    if cell.get("check") == "numeric":
        for vec in random_weight_vectors(seed, n + 1):
            lv = lhs.evaluate(vec)
            rv = rhs.evaluate(vec)
            if lv != rv:
                return CellResult(
                    cell,
                    False,
                    {"weights": list(vec), "lhs": str(lv), "rhs": str(rv)},
                )
        return CellResult(cell, True)
    if mode in ("closed-form", "both") and lhs != rhs:
        return CellResult(
            cell, False, {"lhs": lhs.to_text(), "rhs": rhs.to_text()}
        )
    if mode in ("enumerative", "both"):
        carrier = involutions.weighted_carrier_sum(n, j)
        if carrier != lhs or carrier != rhs:
            return CellResult(
                cell,
                False,
                {"carrier": carrier.to_text(), "lhs": lhs.to_text()},
            )
    return CellResult(cell, True)


def _check_nc_catalan(mode, seed, cell):
    n = cell["n"]
    got = noncrossing.count_noncrossing(n)
    want = numbers.catalan(n)
    if got != want:
        return CellResult(cell, False, {"count": str(got), "catalan": str(want)})
    return CellResult(cell, True)


def _check_nc_k(mode, seed, cell):
    n = cell["n"]
    got = noncrossing.count_cyclic_smirnov_noncrossing(n)
    want = numbers.catalan_difference(n)
    if got != want:
        return CellResult(cell, False, {"count": str(got), "difference": str(want)})
    return CellResult(cell, True)


def _check_nc_firstj(mode, seed, cell):
    n, j = cell["n"], cell["j"]
    got = noncrossing.count_prefix_smirnov_noncrossing(n, j)
    want = numbers.catalan_partial_sum(n, j)
    if got != want:
        return CellResult(
            cell, False, {"count": str(got), "partial_sum": str(want)}
        )
    return CellResult(cell, True)


_CHECKERS = {
    "thm1": _check_thm1,
    "cor2": _check_cor("collapse"),
    "cor3": _check_cor("pair"),
    "cor4": _check_cor("alternating"),
    "thm2": _check_thm2,
    "nc-catalan": _check_nc_catalan,
    "nc-k": _check_nc_k,
    "nc-firstj": _check_nc_firstj,
    "involution": _check_involution,
    "psi": _check_psi,
    "bijections": _check_bijections,
}
