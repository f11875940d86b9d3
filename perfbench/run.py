"""setpart's benchmark: one workload, measured end to end or layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workloads are defined in workloads.py.  With ``--trace 0`` the run
starts one fresh process per sample (child.py, at --jobs 2) until
``--seconds`` have passed, and reports the medians of ``wall_s``,
``cpu_s`` (the process and its reaped pool workers) and ``peak_rss_mb``.
Before each sample it also times a few fresh interpreters up to
``import setpart`` and ``cli.build_parser()``; their median is
``setup_s``.  With ``--trace 1`` it ignores ``--seconds`` and runs one
untraced sample, one traced sample at --jobs 1 with tracer.Tracer wrapped
round setpart's public functions, and one tracemalloc pass, and reports
per-layer metrics.  Every output is checked against references the
benchmark computes itself (checks.py), outside any timed region.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  The whole result, with every sample and the kept spans, is
also written as one JSON file under ``--out`` (default
``perfbench/results``); compare.py compares two such directories.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOBS = 2  # the pool width every untraced sample runs at
# set-up is timed between workload samples, so that its median spans the
# whole run rather than one burst of machine noise
SETUP_PER_SAMPLE = 3
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150

SETUP_SNIPPET = (
    "import setpart\n"
    "from setpart import cli\n"
    "cli.build_parser()\n"
    "import time\n"
    "print(repr(time.perf_counter()))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name.endswith((".calls", ".words", ".objects", ".cells", ".terms")):
        return "count"
    if name.endswith("ns_per_word"):
        return "ns"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


PER_LAYER = (
    [
        "kernels.words",
        "kernels.self_s",
        "kernels.ns_per_word",
        "partitions.objects",
        "partitions.self_s",
        "partitions.us_per_object",
        "involutions.carrier.self_s",
        "involutions.partner.calls",
        "involutions.partner.us_per_call",
        "involutions.psi.calls",
        "involutions.psi.us_per_call",
        "involutions.gather.calls",
        "involutions.gather.us_per_call",
        "involutions.weighted.self_s",
        "verify.cells",
        "verify.checker.self_s",
        "verify.cell_max_s",
        "verify.pool_busy",
        "numbers.calls",
        "numbers.self_s",
        "numbers.bell_peak_mb",
        "bellpoly.partial_bell.calls",
        "bellpoly.partial_bell.self_s",
        "bellpoly.sum.self_s",
        "bellpoly.evaluate.self_s",
        "bellpoly.terms",
        "bellpoly.peak_mb",
        "noncrossing.self_s",
    ]
    + [name + ".s" for name in workloads.STEP_NAMES]
    + ["cli.format.self_s", "trace.overhead_ratio"]
)


class BenchError(Exception):
    pass


def run_child(args):
    """Run one child.py sample and return its JSON report."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + args,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout can stop its pool workers too
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("sample %s timed out after %d s" % (args, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("sample %s failed:\n%s" % (args, err[-2000:]))
    report = json.loads(out.splitlines()[-1])
    if Path(report["setpart_file"]).resolve().parent.parent != SRC:
        raise BenchError("sample imported setpart from %s" % (report["setpart_file"],))
    return report


def setup_seconds(count):
    """Seconds from starting a fresh interpreter until the CLI parser exists,
    for each of count interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        out.append(float(done.stdout) - start)
    return out


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def end_to_end(child_args, seconds):
    setup_seconds(1)  # the first start also writes the bytecode cache
    setup, samples = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setup += setup_seconds(SETUP_PER_SAMPLE)
        samples.append(run_child(child_args + ["--jobs", str(JOBS)]))
    setup += setup_seconds(max(0, MIN_SETUP_SAMPLES - len(setup)))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    return metrics, samples, {"setup_s": setup}


def per_layer(child_args):
    plain = run_child(child_args + ["--jobs", str(JOBS)])
    traced = run_child(child_args + ["--jobs", "1", "--mode", "trace"])
    memory = run_child(child_args + ["--jobs", "1", "--mode", "memory"])

    stats = traced["stats"]

    def stat(key):
        return stats.get(key, [0, 0.0, 0])

    def per_item(self_s, count, scale):
        return self_s / count * scale if count else 0.0

    kernels = stat("kernels")
    built = stat("partitions.enumerate")
    cells = stat("verify.checker")
    spans = traced["spans"]
    m = {
        "kernels.words": kernels[2],
        "kernels.self_s": kernels[1],
        "kernels.ns_per_word": per_item(kernels[1], kernels[2], 1e9),
        "partitions.objects": built[2],
        "partitions.self_s": built[1] + stat("partitions.count")[1],
        "partitions.us_per_object": per_item(built[1], built[2], 1e6),
        "involutions.carrier.self_s": stat("involutions.carrier")[1],
        "involutions.weighted.self_s": stat("involutions.weighted")[1],
        "verify.cells": cells[0],
        "verify.checker.self_s": cells[1],
        "verify.cell_max_s": max(
            (end - start for name, start, end, _ in spans if name.startswith("cell ")),
            default=0.0,
        ),
        "verify.pool_busy": plain["cpu_s"] / (JOBS * plain["wall_s"]),
        "numbers.calls": stat("numbers")[0],
        "numbers.self_s": stat("numbers")[1],
        "bellpoly.partial_bell.calls": stat("bellpoly.partial_bell")[0],
        "bellpoly.partial_bell.self_s": stat("bellpoly.partial_bell")[1],
        "bellpoly.sum.self_s": stat("bellpoly.sum")[1],
        "bellpoly.evaluate.self_s": stat("bellpoly.evaluate")[1],
        "bellpoly.terms": traced["bellpoly_terms"],
        "noncrossing.self_s": stat("noncrossing")[1],
        "cli.format.self_s": stat("cli")[1],
        "trace.overhead_ratio": traced["wall_s"] / plain["cpu_s"],
    }
    for group in ("partner", "psi", "gather"):
        calls, self_s, _ = stat("involutions." + group)
        m["involutions.%s.calls" % group] = calls
        m["involutions.%s.us_per_call" % group] = per_item(self_s, calls, 1e6)
    for name in ("numbers.bell_peak_mb", "bellpoly.peak_mb"):
        m[name] = memory["peaks_mb"].get(name, 0.0)
    durations = {name: end - start for name, start, end, parent in spans if parent is None}
    for name in workloads.STEP_NAMES:
        m[name + ".s"] = durations.get(name, 0.0)
    return m, [plain, traced], {"spans": spans, "stats": stats}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    if not (SRC / "setpart" / "__init__.py").is_file():
        print("error: no setpart sources under %s" % (SRC,), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from setpart import involutions, verify

    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
    ]  # fmt: skip
    try:
        if args.trace:
            metrics, samples, extra = per_layer(child_args)
        else:
            metrics, samples, extra = end_to_end(child_args, args.seconds)
    except BenchError as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 1

    tally = checks.Tally()
    bells = checks.reference_bells(args.size)
    for sample in samples:
        plan = workloads.steps(args.workload, args.seed, sample["jobs"], args.size)
        checks.check_outputs(tally, plan, sample["outputs"], bells, verify.plan_cells)
    if args.trace:
        expected = checks.expected_counts(
            args.workload, args.size, bells, involutions.SYMBOLIC_CEILING
        )
        for name, want in expected.items():
            tally.check(metrics[name] == want, "%s = %s, closed form %s" % (name, metrics[name], want))

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": samples[0]["backend"],
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "jobs": 1 if args.trace else JOBS,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    units = {name: unit_of(name) for name in PER_LAYER} if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, env=env, fail_ratio=tally.failed / tally.attempted, **extra)
    record["fail_notes"] = tally.notes[:20]
    record["samples"] = [
        {k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for s in samples
    ]
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.out / ("%s-seed%d-trace%d-%s-%d.json" % (args.workload, args.seed, args.trace, stamp, os.getpid()))
    path.write_text(json.dumps(record, indent=1))

    for note in tally.notes[:20]:
        print("check failed: %s" % (note,), file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
