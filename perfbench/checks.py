"""Output checks and the reference values they compare against.

Everything here is computed by the benchmark itself, by routes independent
of setpart's own code: Bell numbers as Stirling-number row sums, the
complete Bell polynomial's value by its recurrence, and the traced counts
from closed forms.  None of it runs inside a timed region.
"""

import json
from math import comb

import workloads


class Tally:
    """Checks attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def bell_numbers(top):
    """B(0..top) as row sums of the Stirling triangle S(n, k)."""
    row = [1]  # S(0, k)
    out = [1]
    for n in range(1, top + 1):
        new = [0] * (n + 1)
        for k in range(1, n + 1):
            new[k] = k * (row[k] if k < n else 0) + row[k - 1]
        row = new
        out.append(sum(row))
    return out


def complete_bell_value(x):
    """Y_n(x_1..x_n) by Y_0 = 1, Y_{m+1} = sum_k C(m, k) x_{k+1} Y_{m-k}."""
    y = [1]
    for m in range(len(x)):
        y.append(sum(comb(m, k) * x[k] * y[m - k] for k in range(m + 1)))
    return y[-1]


def partition_count(n):
    """p(n), the number of integer partitions of n (monomials of Y_n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def reference_bells(size):
    s = workloads.SIZES[size]
    return bell_numbers(
        max(s["bell_n"], s["rgs_n"], s["symbolic_n"], s["sweep_n"] + 2, s["thm2_n"] + 1)
    )


def expected_counts(workload, size, bells, symbolic_ceiling):
    """Closed forms for the traced count metrics of one workload."""
    s = workloads.SIZES[size]
    B = bells

    def carrier(n, j):  # signed pairs (S, p) with S inside {1..j}
        return sum(comb(j, i) * B[n + 1 - i] for i in range(j + 1))

    def fixed(n, j):  # partitions of {1..n+1} with no singleton in {1..j}
        return sum(comb(n - j, k) * B[n - k] for k in range(n - j + 1))

    if workload == "sweep":
        N = s["sweep_n"]
        grid = [(n, j) for n in range(N + 1) for j in range(n + 1)]
        # cor2..cor4 each run one bijection part; "bijections" runs all three
        gather_one = sum(B[j] + B[j + 1] for j in range(N + 1))
        gather_two = sum(B[j] + B[j + 1] + B[j + 2] for j in range(N + 1))
        classes = sum(B[j] for j in range(2, N + 1))
        objects = (
            sum(carrier(n, j) + fixed(n, j) + B[n + 1] for n, j in grid)
            + 2 * (gather_one + gather_two + classes)
        )
        return {
            "partitions.objects": objects,
            "kernels.words": objects,
            "involutions.partner.calls": sum(
                2 * carrier(n, j) - fixed(n, j) for n, j in grid
            ),
            "involutions.psi.calls": sum(2 * fixed(n, j) for n, j in grid),
            "involutions.gather.calls": 2
            * sum(2 * B[j] + B[j + 1] for j in range(N + 1))
            + 2 * classes,
            "verify.cells": 2 * len(grid) + 4 * (N + 1) + 2 * (N - 1),
        }
    if workload == "weighted":
        T = min(s["thm2_n"], symbolic_ceiling)
        objects = sum(carrier(n, j) for n in range(T + 1) for j in range(n + 1))
        return {
            "partitions.objects": objects,
            "kernels.words": objects,
            "verify.cells": sum(n + 1 for n in range(s["thm2_n"] + 1)),
            "bellpoly.terms": partition_count(s["poly_n"]),
        }
    M, F = s["nc_n"], s["firstj_n"]
    words = (
        sum(catalan(n) for n in range(M + 1))
        + sum(
            sum((-1) ** (n - i) * comb(n, i) * catalan(i) for i in range(n + 1))
            for n in range(M + 1)
        )
        + sum(
            sum((-1) ** i * comb(j, i) * catalan(n - i) for i in range(j + 1))
            for n in range(1, F + 1)
            for j in range(n)
        )
        + B[s["rgs_n"]]
    )
    return {
        "partitions.objects": 0,
        "kernels.words": words,
        "verify.cells": 2 * (M + 1) + F * (F + 1) // 2,
    }


def check_outputs(tally, plan, outputs, bells, plan_cells):
    """Check one sample's step outputs against the references."""
    tally.check(
        [o[0] for o in outputs] == [name for name, _ in plan],
        "ran steps %s" % ([o[0] for o in outputs],),
    )
    for (name, argv), (_, rc, text) in zip(plan, outputs):
        if not tally.check(rc == 0, "%s exited %s" % (name, rc)):
            continue
        if name.startswith("cli.verify."):
            report = json.loads(text)
            identity = argv[1]
            max_n = int(argv[argv.index("--max-n") + 1])
            mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "both"
            planned = len(plan_cells(identity, max_n, mode))
            tally.check(
                report["passed"] is True and report["cell_count"] == planned,
                "%s: passed=%s, %s cells of %d planned"
                % (name, report["passed"], report["cell_count"], planned),
            )
            for cell in report["cells"]:
                tally.check(cell["ok"], "%s cell %s failed" % (name, cell["params"]))
        elif name == "cli.bellpoly.weights":
            spec = next(a for a in argv if a.startswith("--weights="))
            weights = [int(t) for t in spec.split("=", 1)[1].split(",")]
            want = str(complete_bell_value(weights))
            got = json.loads(text)["value"]
            tally.check(got == want, "%s: value %s, recurrence gives %s" % (name, got, want))
        elif name == "cli.bellpoly.symbolic":
            report = json.loads(text)
            n = report["n"]
            coeffs = [t["coefficient"] for t in report["terms"]]
            tally.check(len(coeffs) == partition_count(n), "%s: %d terms" % (name, len(coeffs)))
            tally.check(sum(coeffs) == bells[n], "%s: coefficients sum to %d" % (name, sum(coeffs)))
        elif name == "lib.count_partitions":
            n = argv[0]
            tally.check(text == str(bells[n]), "%s(%d) = %s" % (name, n, text))
        elif name == "cli.numbers.bell":
            values = json.loads(text)["values"]
            tally.check(len(values) == int(argv[3]) + 1, "%s: %d values" % (name, len(values)))
            for n, got in enumerate(values):
                tally.check(got == str(bells[n]), "%s: bell(%d) = %s" % (name, n, got))
        else:
            raise ValueError("no check for step %r" % (name,))
