"""The benchmark's workloads: which commands each one runs, and at what size.

Every workload is a closed loop of one-shot commands run in one process:
each command starts after the previous one returns.  A step is a pair
(name, argv).  Names starting with ``cli.`` are argument lists for
``setpart.cli.main``; ``lib.count_partitions`` is a direct library call
whose argv holds its one argument.

Why these workloads:

- ``sweep`` builds objects: ``SetPartition`` construction, ``partner``,
  the psi round trip, the gather maps and set comparisons do the work,
  over many cells of unequal size in the process pool.
- ``weighted`` is Bell-polynomial algebra: ``partial_bell`` with
  ``Fraction`` coefficients, polynomial addition and evaluation, and the
  thm2 triple sum.  Its weights come from the workload seed.
- ``words`` is the word kernel: the 1212-avoiding backtracker and the
  growth-string counter, with no objects built, few pool cells bound by
  the largest n, and the Bell triangle cache behind ``numbers bell``.
"""

import random

WORKLOADS = ("sweep", "weighted", "words")

# "full" is what a benchmark run measures; each sweep sits one depth below
# the slowest interactive setting so that a run holds several samples.
# "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "sweep_n": 7,
        "poly_n": 40,
        "thm2_n": 10,
        "symbolic_n": 13,
        "nc_n": 13,
        "firstj_n": 12,
        "rgs_n": 11,
        "bell_n": 1000,
    },
    "tiny": {
        "sweep_n": 4,
        "poly_n": 8,
        "thm2_n": 4,
        "symbolic_n": 8,
        "nc_n": 4,
        "firstj_n": 4,
        "rgs_n": 4,
        "bell_n": 20,
    },
}

WEIGHT_SPAN = 3  # bellpoly weights are drawn from [-3, 3]


def weights(seed, n):
    """The integer weights t_1..t_n the weighted workload evaluates at."""
    rng = random.Random(seed)
    return [rng.randint(-WEIGHT_SPAN, WEIGHT_SPAN) for _ in range(n)]


def steps(workload, seed, jobs, size="full"):
    """The workload's commands, in the order they run."""
    s = SIZES[size]
    tail = ["--seed", str(seed), "--jobs", str(jobs), "--format", "json"]

    def verify(identity, max_n, *extra):
        argv = ["verify", identity, "--max-n", str(max_n), *extra, *tail]
        return ("cli.verify." + identity, argv)

    if workload == "sweep":
        n = s["sweep_n"]
        return [
            verify("involution", n, "--mode", "enumerative"),
            verify("psi", n),
            verify("cor2", n),
            verify("cor3", n),
            verify("cor4", n),
            verify("bijections", n),
        ]
    if workload == "weighted":
        # one argv item, since a leading minus would read as an option
        w = ",".join(str(t) for t in weights(seed, s["poly_n"]))
        return [
            (
                "cli.bellpoly.weights",
                ["bellpoly", "--n", str(s["poly_n"]), "--weights=" + w, "--format", "json"],
            ),
            verify("thm2", s["thm2_n"]),
            (
                "cli.bellpoly.symbolic",
                ["bellpoly", "--n", str(s["symbolic_n"]), "--format", "json"],
            ),
        ]
    if workload == "words":
        return [
            verify("nc-catalan", s["nc_n"]),
            verify("nc-k", s["nc_n"]),
            verify("nc-firstj", s["firstj_n"]),
            ("lib.count_partitions", [s["rgs_n"]]),
            (
                "cli.numbers.bell",
                ["numbers", "bell", "--max-n", str(s["bell_n"]), "--format", "json"],
            ),
        ]
    raise ValueError("unknown workload %r" % (workload,))


# every step name any workload can run, in a fixed order
STEP_NAMES = tuple(name for w in WORKLOADS for name, _ in steps(w, 0, 1))
