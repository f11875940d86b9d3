"""Span accounting for the traced run, installed from outside the program.

The tracer wraps setpart's public functions in place and keeps, per
group key, the number of calls, the self time (the call's duration minus
the part its traced children cover) and an item count.  Generators are
timed on every ``next()``, so a layer's self time excludes both its
consumer and the layers it pulls from.  Only commands and verify cells
are kept as full spans (name, start, end, parent); everything finer is
folded into the per-key accumulators, because a sweep makes millions of
calls.
"""

import json
import time

clock = time.perf_counter

# (group key, module name, function names, kind); kind "fn" times a call,
# "gen" times each next() and counts items yielded, "count" times a call
# and adds its integer result to the item count, "terms" adds the number
# of monomials in the polynomial it returns.
PLAN = (
    ("kernels", "_kernels", ("iter_rgs", "iter_noncrossing"), "gen"),
    (
        "kernels",
        "_kernels",
        (
            "count_rgs",
            "count_noncrossing",
            "count_noncrossing_cyclic_smirnov",
            "count_noncrossing_prefix_smirnov",
        ),
        "count",
    ),
    ("partitions.enumerate", "partitions", ("enumerate_partitions",), "gen"),
    ("partitions.count", "partitions", ("count_partitions",), "fn"),
    ("involutions.carrier", "involutions", ("enumerate_carrier",), "gen"),
    ("involutions.partner", "involutions", ("partner",), "fn"),
    (
        "involutions.psi",
        "involutions",
        ("build_singleton_free", "split_singleton_free"),
        "fn",
    ),
    (
        "involutions.gather",
        "involutions",
        ("gather_singletons", "gather_singletons_two", "classify_cd"),
        "fn",
    ),
    (
        "involutions.weighted",
        "involutions",
        ("weighted_alternating_sum", "weighted_binomial_sum", "weighted_carrier_sum"),
        "fn",
    ),
    ("bellpoly.partial_bell", "bellpoly", ("partial_bell",), "fn"),
    ("bellpoly.sum", "bellpoly", ("complete_bell_by_sum",), "terms"),
    (
        "noncrossing",
        "noncrossing",
        (
            "count_noncrossing",
            "count_cyclic_smirnov_noncrossing",
            "count_prefix_smirnov_noncrossing",
        ),
        "fn",
    ),
    (
        "numbers",
        "numbers",
        (
            "binomial",
            "bell",
            "catalan",
            "catalan_difference",
            "bell_alternating_sum",
            "bell_binomial_sum",
            "singleton_identity_lhs",
            "singleton_identity_rhs",
            "catalan_partial_sum",
            "factorial",
            "derangement",
            "a000262",
        ),
        "fn",
    ),
    ("verify.run", "verify", ("run_identity",), "fn"),
)

ITEMS = {
    "count": int,
    # BellPolynomial has no public size; terms() would sort every monomial
    "terms": lambda poly: len(poly._terms),
}

# modules whose globals may hold a public function imported by name
CALLER_MODULES = (
    "_kernels",
    "partitions",
    "numbers",
    "bellpoly",
    "involutions",
    "noncrossing",
    "verify",
    "cli",
)


class Tracer:
    def __init__(self):
        self.frames = [[0.0]]  # child time of each open timed call
        self.stats = {}  # key -> [calls, self_s, items]
        self.spans = []  # [name, start, end, parent index]
        self._command = None

    def stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0])

    def wrap(self, key, fn, items=None):
        stat = self.stat(key)
        frames = self.frames

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
            if items is not None:
                stat[2] += items(result)
            return result

        return traced

    def wrap_generator(self, key, fn):
        stat = self.stat(key)
        frames = self.frames

        def traced(*args, **kwargs):
            stat[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                frames.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    frames.pop()
                    frames[-1][0] += elapsed
                    stat[1] += elapsed - frame[0]
                stat[2] += 1
                yield item

        return traced

    def wrap_cells(self, fn):
        """verify.check_cell, kept as one span per cell."""
        timed = self.wrap("verify.checker", fn)
        spans = self.spans

        def traced(identity, mode, seed, cell):
            start = clock()
            try:
                return timed(identity, mode, seed, cell)
            finally:
                name = "cell %s %s" % (identity, json.dumps(cell, sort_keys=True))
                spans.append([name, start, clock(), self._command])

        return traced

    def command(self, key, name, fn, *args):
        """Run one workload step as a kept span under the given group key."""
        self._command = len(self.spans)
        span = [name, clock(), None, None]
        self.spans.append(span)
        try:
            return self.wrap(key, fn)(*args)
        finally:
            span[2] = clock()
            self._command = None

    def install(self):
        """Wrap every function in PLAN under each name callers look it up by."""
        import importlib

        import setpart

        modules = [setpart] + [
            importlib.import_module("setpart." + m) for m in CALLER_MODULES
        ]
        for key, home, names, kind in PLAN:
            home_mod = importlib.import_module("setpart." + home)
            for name in names:
                orig = getattr(home_mod, name)
                if kind == "gen":
                    traced = self.wrap_generator(key, orig)
                else:
                    traced = self.wrap(key, orig, ITEMS.get(kind))
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, traced)
        bellpoly = importlib.import_module("setpart.bellpoly")
        poly = bellpoly.BellPolynomial
        poly.evaluate = self.wrap("bellpoly.evaluate", poly.evaluate)
        verify = importlib.import_module("setpart.verify")
        verify.check_cell = self.wrap_cells(verify.check_cell)
