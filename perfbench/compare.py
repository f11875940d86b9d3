"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (its --out).  For
every workload, trace setting and metric it prints each side's median
with its quartiles and sample count, the ratio of the medians with its
base, and for counts whether every value on both sides is equal.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """(workload, trace) -> metric -> (unit, values), from every result file."""
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["env"]["workload"], record["env"]["trace"])
        for name, metric in record["metrics"].items():
            entry = groups.setdefault(key, {}).setdefault(name, (metric["unit"], []))
            entry[1].append(metric["value"])
    return groups


def summary(unit, values):
    if not values:
        return "-"
    fmt = "%d" if unit == "count" else "%.6g"
    if len(values) == 1:
        return (fmt + " (n=1)") % values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (fmt + " [" + fmt + ", " + fmt + "] (n=%d)") % (
        statistics.median(values), q1, q3, len(values)
    )


def verdict(unit, base, new):
    if not base or not new:
        return "missing on one side"
    if unit == "count":
        return "equal" if set(base) == set(new) and len(set(base)) == 1 else "differ"
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return "base median is 0"
    return "x%.3f of base %.6g" % (n / b, b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("error: no result files in %s" % (args.base if not base else args.new), file=sys.stderr)
        return 2
    print("%-9s %-34s %-6s %-40s %-40s %s" % ("workload", "metric", "unit", "base", "new", "new/base"))
    for key in sorted(set(base) | set(new)):
        workload, _ = key
        metrics = dict(base.get(key, {}))
        for name, entry in new.get(key, {}).items():
            metrics.setdefault(name, (entry[0], []))
        for name, (unit, _) in metrics.items():
            b = base.get(key, {}).get(name, (unit, []))[1]
            n = new.get(key, {}).get(name, (unit, []))[1]
            print(
                "%-9s %-34s %-6s %-40s %-40s %s"
                % (workload, name, unit, summary(unit, b), summary(unit, n), verdict(unit, b, n))
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
