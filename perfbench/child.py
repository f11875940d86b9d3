"""One sample: run a workload's steps once in this process and report.

run.py starts one of these per sample, with PYTHONPATH pointing at the
checkout's ``src``, so that each sample begins with empty caches as a
user's command does.  It prints one JSON object on stdout.

Modes:
  plain   the timed body with no instrumentation;
  trace   the same body with tracer.Tracer installed (run at --jobs 1 so
          every span lives in this process);
  memory  only the steps in MEMORY_STEPS, each under tracemalloc.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc

import workloads

# step name -> per-layer metric holding its tracemalloc peak
MEMORY_STEPS = {
    "cli.bellpoly.weights": "bellpoly.peak_mb",
    "cli.numbers.bell": "numbers.bell_peak_mb",
}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb():
    """Largest resident set of this process or of any one reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # ru_maxrss is in KiB on Linux


def step_function(name):
    """The callable behind a step; it returns (exit code, output text)."""
    if name == "lib.count_partitions":
        from setpart import count_partitions

        return lambda argv: (0, str(count_partitions(*argv)))

    from setpart import cli

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return run_cli


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("plain", "trace", "memory"), default="plain")
    args = parser.parse_args(argv)

    import setpart
    from setpart import _kernels

    plan = workloads.steps(args.workload, args.seed, args.jobs, args.size)
    report = {"backend": _kernels.NAME, "setpart_file": setpart.__file__, "jobs": args.jobs}

    if args.mode == "memory":
        peaks = {}
        for name, step_argv in plan:
            if name in MEMORY_STEPS:
                tracemalloc.start()
                step_function(name)(step_argv)
                peaks[MEMORY_STEPS[name]] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        report["peaks_mb"] = peaks
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls = [(name, step_function(name), step_argv) for name, step_argv in plan]

    outputs = []
    terms = 0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for name, fn, step_argv in calls:
        if tracer is None:
            rc, text = fn(step_argv)
        else:
            sums = tracer.stat("bellpoly.sum")
            before = sums[2]
            rc, text = tracer.command(name.split(".")[0], name, fn, step_argv)
            if name == "cli.bellpoly.weights":
                terms = sums[2] - before
        outputs.append([name, rc, text])
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    report.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb(),
        outputs=outputs,
    )
    if tracer is not None:
        report["stats"] = tracer.stats
        report["spans"] = tracer.spans
        report["bellpoly_terms"] = terms
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
