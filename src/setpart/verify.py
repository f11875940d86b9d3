"""Identity verification sweeps and machine-readable reports.

Each identity id names a family of checks over a parameter grid.  A sweep
produces one cell per parameter point; the report lists the cells in
planned order with the same outcomes however they were scheduled.  A
parallel sweep hands the cells to forked helper processes one at a time
in reverse planned order, largest n first, so the heaviest cells do not
queue up behind each other at the end (Graham's LPT rule); each cell
records its own elapsed time.

Each identity is declared once, in the _IDENTITIES table at the end of
the module: its checker, its grid, its default depth and its ceilings.
Most identities are checked twice, by a closed form and by a sweep over
the structures behind it; check_cell alone decides from the mode and the
cell's size which of the two halves a cell runs, and a checker only
returns a counterexample (or None) for the halves it is asked to run.
"""

from __future__ import annotations

import marshal
import os
import time
from bisect import bisect_left
from typing import Callable, NamedTuple, Optional

from . import involutions, noncrossing, numbers, partitions
from .errors import IndexOutOfRange, MalformedInput, SizeTooLarge, _index, _is_int

MODES = ("closed-form", "enumerative", "both")

# in "both" mode check_cell stops running the sweep half of a mixed
# identity past this size while the closed half keeps going; pass
# mode=enumerative to force a hard error instead
BIJECTIVE_DEPTH = 9


class _Identity(NamedTuple):
    # checker(cell, closed, sweep) -> None or a counterexample dict,
    # running the closed and the sweep half as asked; grid(max_n) -> cells
    checker: Callable
    grid: Callable
    default: int
    closed_ceiling: int
    enumerative_ceiling: int


class CellResult:
    """One cell's parameters, first counterexample (None if it passed) and
    elapsed time.  It defines equality, so like the report it is unhashable."""

    def __init__(
        self,
        params: dict,
        counterexample: Optional[dict] = None,
        elapsed_s: float = 0.0,
    ):
        self.params = params
        self.counterexample = counterexample
        self.elapsed_s = elapsed_s

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __eq__(self, other):
        # timing differs between runs, so it takes no part in equality
        if type(other) is not CellResult:
            return NotImplemented
        return (self.params, self.counterexample) == (
            other.params, other.counterexample
        )

    def __repr__(self):
        fields = (self.params, self.counterexample, self.elapsed_s)
        return "CellResult(%r, %r, %r)" % fields

    def to_jsonable(self):
        return {
            "params": self.params,
            "ok": self.ok,
            "counterexample": self.counterexample,
            "elapsed_s": round(self.elapsed_s, 6),
        }


class VerificationReport:
    """One sweep: its identity, mode, depth and seed, its cells in planned
    order, and its elapsed time."""

    def __init__(
        self,
        identity: str,
        mode: str,
        max_n: int,
        seed: int,
        cells: list,
        elapsed: float,
    ):
        self.identity = identity
        self.mode = mode
        self.max_n = max_n
        self.seed = seed
        self.cells = cells
        self.elapsed = elapsed

    def __eq__(self, other):
        # as for a cell, the elapsed time takes no part in equality
        if type(other) is not VerificationReport:
            return NotImplemented
        fields = ("identity", "mode", "max_n", "seed", "cells")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

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
    return min(_entry(identity, mode).default, _ceiling(identity, mode))


def _entry(identity: str, mode: str) -> _Identity:
    """The table row of identity, once identity and mode are known tokens."""
    if identity not in _IDENTITIES:
        raise IndexOutOfRange("unknown identity %r" % (identity,))
    if mode not in MODES:
        raise IndexOutOfRange("unknown mode %r" % (mode,))
    return _IDENTITIES[identity]


def _ceiling(identity: str, mode: str) -> int:
    entry = _entry(identity, mode)
    if mode == "enumerative":
        return entry.enumerative_ceiling
    return max(entry.closed_ceiling, entry.enumerative_ceiling)


def plan_cells(identity: str, max_n: int, mode: str):
    """The deterministic cell list for a sweep."""
    ceiling = _ceiling(identity, mode)
    if _index(max_n, "max_n") > ceiling:
        raise SizeTooLarge(
            "%s sweeps in mode %s are capped at max_n = %d" % (identity, mode, ceiling)
        )
    return _IDENTITIES[identity].grid(max_n)


def _triangle(max_n):
    return [{"n": n, "j": j} for n in range(max_n + 1) for j in range(n + 1)]


def _window(start):
    return lambda max_n: [{"j": j} for j in range(start, max_n + 1)]


def _parts_grid(max_n):
    return [
        {"j": j, "part": part}
        for j in range(max_n + 1)
        for part in _PARTS
        if part != "classes" or j >= 2
    ]


def _line(max_n):
    return [{"n": n} for n in range(max_n + 1)]


def _prefix_grid(max_n):
    return [{"n": n, "j": j} for n in range(1, max_n + 1) for j in range(n)]


def check_cell(identity: str, mode: str, seed: int, cell: dict) -> CellResult:
    """Run one cell of a sweep and report the outcome.

    This is where the mode is applied.  The closed half runs unless the
    mode is enumerative.  The sweep half runs in enumerative mode, and in
    both mode while the cell's size (n, else j) is within BIJECTIVE_DEPTH
    and the enumerative ceiling.  An identity with no closed half sweeps
    in every mode.

    An exception raised by the checker fails this cell only; its type
    and message become the counterexample.  Either way the result carries
    the cell's elapsed time.  The seed is the sweep's, which no cell
    reads today.
    """
    entry = _entry(identity, mode)
    start = time.perf_counter()
    try:
        if entry.closed_ceiling:
            closed = mode != "enumerative"
            size = cell["n"] if "n" in cell else cell["j"]
            depth = min(BIJECTIVE_DEPTH, entry.enumerative_ceiling)
            sweep = mode == "enumerative" or (mode == "both" and size <= depth)
        else:
            closed, sweep = False, True
        found = entry.checker(cell, closed, sweep)
    except Exception as err:
        found = {"error": type(err).__name__, "message": str(err)}
    return CellResult(cell, found, time.perf_counter() - start)


def run_identity(
    identity: str,
    max_n: Optional[int] = None,
    mode: str = "both",
    seed: int = 0,
    jobs: int = 1,
) -> VerificationReport:
    """Sweep one identity over its grid and collect the report.

    With jobs > 1, where os.fork exists, the cells run in forked helper
    processes, at most one per CPU and one per cell, while this process
    runs none.  The helpers take one cell at a time, in reverse planned
    order (largest n first); the report order is the planned order
    either way.  A cell whose helper was killed or exited non-zero before
    reporting it fails, with the helper's exit as its counterexample.
    The seed is a label: any int, of any sign.
    """
    _index(jobs, "jobs", low=1)
    if not _is_int(seed):
        raise MalformedInput("seed must be an integer, got %r" % (seed,))
    if max_n is None:
        max_n = default_max_n(identity, mode)
    start = time.perf_counter()
    cells = plan_cells(identity, max_n, mode)

    def task(i):
        done = check_cell(identity, mode, seed, cells[i])
        return done.counterexample, done.elapsed_s

    width = min(jobs, os.cpu_count() or 1, len(cells))
    if width > 1 and hasattr(os, "fork"):
        # plan_cells lists every grid by increasing n and a cell's work
        # grows several-fold per step of n, so the reversed order hands
        # out the largest cells first
        done, exits = _fork_map(task, range(len(cells) - 1, -1, -1), width)
    else:
        done, exits = {i: task(i) for i in range(len(cells))}, []
    lost = {
        "error": "HelperFailed",
        "message": "the helper process running this cell %s before reporting it"
        % " or ".join(dict.fromkeys(exits)),
    }
    results = [CellResult(c, *done.get(i, (lost,))) for i, c in enumerate(cells)]
    elapsed = time.perf_counter() - start
    return VerificationReport(identity, mode, max_n, seed, results, elapsed)


# one task index, as the caller writes it and a helper reads it
_RECORD = 4


def _fork_map(task, order, width):
    """task(i) for each index i in order, run by width forked helpers.

    The caller writes the indices into one pipe as fixed-size records
    before any helper starts, and runs no task itself.  Each helper reads
    one index at a time, so the indices are taken in the given order, and
    once the pipe is empty it writes its (i, task(i)) pairs to a pipe of
    its own with marshal, so each result must be plain data (the
    JSON-able fields of a cell are).  A helper leaves by os._exit: it runs
    no atexit handler and flushes no stdio.  Forking copies only the
    calling thread, so no other thread of the caller may hold a lock that
    a task takes; setpart takes no locks and starts no threads.

    Returns the results by index and a description of each helper that
    was killed or exited non-zero; the indices such a helper took have no
    result.  Every helper is reaped before this returns or raises.
    """
    tasks, feed = os.pipe()
    try:
        # the largest plan (861 cells, thm1 at 40) fills a small part of
        # one pipe buffer, so this write does not block
        os.write(feed, b"".join(i.to_bytes(_RECORD, "little") for i in order))
    finally:
        os.close(feed)
    helpers = {}  # pid: read end of its result pipe
    done, exits = {}, []
    finished = False
    try:
        for _ in range(width):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:  # the helper
                status = 1
                try:
                    pairs = []
                    for record in iter(lambda: os.read(tasks, _RECORD), b""):
                        i = int.from_bytes(record, "little")
                        pairs.append((i, task(i)))
                    with open(into, "wb") as pipe:
                        pipe.write(marshal.dumps(pairs))
                    status = 0
                finally:
                    os._exit(status)
            os.close(into)
            helpers[pid] = out
        for out in helpers.values():
            with open(out, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                done.update(marshal.loads(data))
            except (EOFError, ValueError):
                pass  # cut short: the helper's exit status says why
        finished = True
    finally:
        os.close(tasks)
        for pid, out in helpers.items():
            os.close(out)
            if not finished:
                os.kill(pid, 9)  # SIGKILL: no one will read its results
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code < 0:
                exits.append("was killed by signal %d" % -code)
            elif code:
                exits.append("exited with status %d" % code)
    return done, exits


def _pair_failure(reason, lam) -> dict:
    return {"reason": reason, "pair": {"S": sorted(lam.S), "pi": lam.pi.to_jsonable()}}


def _check_thm1(cell, closed, sweep):
    n, j = cell["n"], cell["j"]
    lhs = numbers.bell_alternating_sum(n, j)
    rhs = numbers.bell_binomial_sum(n, j)
    if closed and lhs != rhs:
        return {"lhs": str(lhs), "rhs": str(rhs)}
    if sweep:
        signed = sum(lam.sign for lam in involutions.enumerate_carrier(n, j))
        if signed != rhs:
            return {"signed_sum": str(signed), "rhs": str(rhs)}
        if signed != lhs:
            return {"signed_sum": str(signed), "lhs": str(lhs)}
    return None


def _check_involution(cell, closed, sweep):
    n, j = cell["n"], cell["j"]
    partner = involutions.partner
    signed = 0
    fixed = 0
    for lam in involutions.enumerate_carrier(n, j):
        # the sign is (-1)^|S|, so its parity is that of |S|
        odd = len(lam.S) & 1
        signed += -1 if odd else 1
        image = partner(lam)
        if image is None:
            fixed += 1
            if lam.S or any(len(b) == 1 and b[0] <= j for b in lam.pi.blocks):
                return _pair_failure("false fixed point", lam)
        elif len(image.S) & 1 == odd:
            return _pair_failure("sign not reversed", lam)
        elif partner(image) != lam:
            return _pair_failure("not an involution", lam)
    rhs = numbers.bell_binomial_sum(n, j)
    if not signed == fixed == rhs:
        return {"signed_sum": str(signed), "fixed_count": str(fixed), "rhs": str(rhs)}
    return None


def _check_coding(n, j, code):
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
            return {"reason": out, "T": sorted(t), "rho": rho.to_jsonable()}
    expected = _no_singleton_targets(n + 1, j)
    if image != expected:
        missed = next(iter(expected - image), None)
        extra = next(iter(image - expected), None)
        return {
            "reason": "image mismatch",
            "missing": missed.to_jsonable() if missed else None,
            "extra": extra.to_jsonable() if extra else None,
        }
    return None


def _check_psi(cell, closed, sweep):
    n, j = cell["n"], cell["j"]

    def code(t, rho):
        built = involutions.build_singleton_free(n, j, t, rho)
        if involutions.split_singleton_free(n, j, built) != (t, rho):
            return "round trip failed"
        return built

    return _check_coding(n, j, code)


def _check_cor(variant, part):
    def check(cell, closed, sweep):
        j = cell["j"]
        lhs = numbers.singleton_identity_lhs(j, variant)
        rhs = numbers.singleton_identity_rhs(j, variant)
        if closed and lhs != rhs:
            return {"lhs": str(lhs), "rhs": str(rhs)}
        return _PARTS[part](j) if sweep else None

    return check


def _no_singleton_targets(size, j):
    """Partitions of {1..size} with no singleton inside {1..j}."""
    # blocks ascend by least element: those starting inside {1..j} come
    # before (j + 1,)
    low = (j + 1,)
    return {
        p
        for p in partitions.enumerate_partitions(size)
        if 1 not in map(len, p.blocks[: bisect_left(p.blocks, low)])
    }


def _check_bijections(cell, closed, sweep):
    check = _PARTS.get(cell["part"])
    if check is None:
        raise IndexOutOfRange("unknown bijection part %r" % (cell["part"],))
    return check(cell["j"])


def _check_gather_one(j):
    return _check_coding(j, j, lambda t, rho: involutions.gather_singletons(rho))


def _check_gather_two(j):
    def code(t, rho):
        # T = {j+1} is the source on {1..j}; j+1 then joins j+2
        out = involutions.gather_singletons_two(rho, j)
        if (j + 2 in partitions.block_containing(out, j + 1)) != bool(t):
            return "case split"
        return out

    return _check_coding(j + 1, j, code)


def _check_classes(j):
    c_sets = {}
    d_sets = {}
    for p in partitions.enumerate_partitions(j):
        for label in involutions.classify_cd(p, j):
            bucket = c_sets if label.kind == "C" else d_sets
            bucket.setdefault(label.index, set()).add(p)
    if d_sets.get(1):
        return {"reason": "class D_1 is not empty"}
    for m in range(2, j):
        if d_sets.get(m, set()) != c_sets.get(m - 1, set()):
            return {"reason": "class overlap identity fails", "index": m}
    for m in range(1, j):
        total = len(c_sets.get(m, ())) + len(d_sets.get(m, ()))
        if total != numbers.bell(m):
            return {
                "reason": "class size sum is not a Bell number",
                "index": m,
                "total": total,
            }
    top = len(c_sets.get(j - 1, ()))
    if top != numbers.singleton_identity_lhs(j, "alternating"):
        return {"reason": "top class size mismatch", "size": top}
    return None


# the order of the parts is also their order within a bijections grid row
_PARTS = {
    "gather-one": _check_gather_one,
    "gather-two": _check_gather_two,
    "classes": _check_classes,
}


def _check_thm2(cell, closed, sweep):
    n, j = cell["n"], cell["j"]
    lhs = involutions.weighted_alternating_sum(n, j)
    rhs = involutions.weighted_binomial_sum(n, j)
    if closed and lhs != rhs:
        return {"lhs": lhs.to_text(), "rhs": rhs.to_text()}
    if sweep:
        carrier = involutions.weighted_carrier_sum(n, j)
        if carrier != lhs:
            return {"carrier": carrier.to_text(), "lhs": lhs.to_text()}
        if carrier != rhs:
            return {"carrier": carrier.to_text(), "rhs": rhs.to_text()}
    return None


def _check_nc(count, closed_form, key):
    """A checker comparing a noncrossing word count with its closed form.

    Both are looked up by name when the cell runs; the cell's parameters,
    in order, are the arguments of each.
    """

    def check(cell, closed, sweep):
        args = tuple(cell.values())
        got = getattr(noncrossing, count)(*args)
        want = getattr(numbers, closed_form)(*args)
        if got != want:
            return {"count": str(got), key: str(want)}
        return None

    return check


_check_nc_catalan = _check_nc("count_noncrossing", "catalan", "catalan")
_check_nc_k = _check_nc(
    "count_cyclic_smirnov_noncrossing", "catalan_difference", "difference"
)
_check_nc_firstj = _check_nc(
    "count_prefix_smirnov_noncrossing", "catalan_partial_sum", "partial_sum"
)

_CARRIER = involutions.CARRIER_CEILING
_WORDS = noncrossing.WORD_CEILING

# token: checker, grid, default max_n, closed-form ceiling (0: the
# identity has no closed half and sweeps in every mode), enumerative ceiling
_IDENTITIES = {
    "thm1": _Identity(_check_thm1, _triangle, 12, 40, _CARRIER),
    "cor2": _Identity(
        _check_cor("collapse", "gather-one"), _window(0), 12, 40, _CARRIER
    ),
    "cor3": _Identity(_check_cor("pair", "gather-two"), _window(0), 12, 40, _CARRIER),
    "cor4": _Identity(
        _check_cor("alternating", "classes"), _window(2), 12, 40, _CARRIER
    ),
    "thm2": _Identity(_check_thm2, _triangle, 10, 10, involutions.SYMBOLIC_CEILING),
    "nc-catalan": _Identity(_check_nc_catalan, _line, 12, 0, _WORDS),
    "nc-k": _Identity(_check_nc_k, _line, 12, 0, _WORDS),
    "nc-firstj": _Identity(_check_nc_firstj, _prefix_grid, 10, 0, _WORDS),
    "involution": _Identity(_check_involution, _triangle, 9, 0, _CARRIER),
    "psi": _Identity(_check_psi, _triangle, 9, 0, _CARRIER),
    "bijections": _Identity(_check_bijections, _parts_grid, 9, 0, _CARRIER),
}

IDENTITIES = tuple(_IDENTITIES)
