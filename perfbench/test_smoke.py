"""Smoke tests of the benchmark at a tiny size (max-n 4, bellpoly n 8).

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny_run(workload, trace, out):
    done = bench(
        "--workload", workload, "--seed", 3, "--seconds", 0,
        "--trace", trace, "--size", "tiny", "--out", out,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace, tmp_path):
    result = tiny_run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_compare_reads_two_result_sets(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    tiny_run("weighted", 1, base)
    tiny_run("weighted", 1, new)
    done = bench(base, new, script=HERE / "compare.py")
    assert done.returncode == 0, done.stderr
    counts = [line for line in done.stdout.splitlines() if line.split()[2] == "count"]
    assert counts
    assert all(line.endswith(" equal") for line in counts), counts


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(
        "--workload", "sweep", "--seed", 1, "--seconds", 1, "--trace", 0,
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
