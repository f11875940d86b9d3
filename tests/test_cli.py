import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import setpart
import setpart.numbers as numbers_mod
from setpart import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumbers:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "numbers", "bell", "--max-n", "4")
        assert code == 0
        assert out.splitlines() == ["0  1", "1  1", "2  2", "3  5", "4  15"]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "catalan", "--max-n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "kind": "catalan",
            "max_n": 5,
            "values": ["1", "1", "2", "5", "14", "42"],
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "kdiff", "--max-n", "4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "n,value", "0,1", "1,0", "2,1", "3,1", "4,3",
        ]

    def test_every_kind_runs(self, capsys):
        for kind in (
            "bell", "catalan", "kdiff", "factorial", "derangement", "a000262",
        ):
            code, out, _ = run_cli(capsys, "numbers", kind, "--max-n", "6")
            assert code == 0
            assert len(out.splitlines()) == 7

    def test_bad_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "numbers", "fib")
        assert code == 2

    def test_negative_depth_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "numbers", "bell", "--max-n", "-1")
        assert code == 2
        assert "nonnegative" in err

    def test_depth_above_ceiling_is_usage_error(self, capsys):
        for depth in ("1001", "2000"):
            code, out, err = run_cli(
                capsys, "numbers", "factorial", "--max-n", depth
            )
            assert code == 2
            assert out == ""
            assert "error" in err
        code, out, _ = run_cli(capsys, "numbers", "factorial", "--max-n", "1000")
        assert code == 0
        assert len(out.splitlines()) == 1001

    def test_table_beyond_golden_range_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "numbers", "a000262", "--max-n", "30")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm1", "--max-n", "4")
        assert code == 0
        assert out.splitlines()[-1].startswith("identity thm1: PASS")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "nc-k", "--max-n", "6", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["identity"] == "nc-k"
        assert data["passed"] is True

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "cor2", "--max-n", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "identity,mode,params,ok,counterexample"
        assert len(lines) == 5

    def test_all_identity_tokens_accepted(self, capsys):
        for token in (
            "thm1", "cor2", "cor3", "cor4", "thm2",
            "nc-catalan", "nc-k", "nc-firstj",
            "involution", "psi", "bijections",
        ):
            code, _, _ = run_cli(capsys, "verify", token, "--max-n", "3")
            assert code == 0, token

    def test_falsified_oracle_exits_one(self, capsys, monkeypatch):
        orig = numbers_mod.catalan
        monkeypatch.setattr(
            numbers_mod,
            "catalan",
            lambda n: orig(n) + (1 if n == 5 else 0),
        )
        code, out, _ = run_cli(capsys, "verify", "nc-catalan", "--max-n", "6")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm7")
        assert code == 2

    def test_depth_above_ceiling_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm1", "--max-n", "99")
        assert code == 2
        assert "capped" in err

    def test_bad_jobs_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm1", "--jobs", "0")
        assert code == 2


class TestTrace:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trace", "--n", "8", "--j", "4",
            "--S", "1,3", "--pi", "2/4,5/6,8,9/7",
        )
        assert code == 0
        assert out.splitlines() == [
            "lambda: + | 1,3 | 2/4,5/6,8,9/7",
            "pivot: 3",
            "partner: - | 1 | 2/3/4,5/6,8,9/7",
        ]

    def test_fixed_pair(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trace", "--n", "3", "--j", "2", "--pi", "1,2/3,4",
        )
        assert code == 0
        assert out.splitlines() == [
            "lambda: + | - | 1,2/3,4",
            "pivot: FIXED",
        ]

    def test_full_carrier_rows(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "2", "--j", "1", "--full")
        assert code == 0
        lines = out.splitlines()
        # carrier size: partitions of {1,2,3} plus marked-1 partitions of {2,3}
        assert len(lines) == 7
        assert all(len(line.split(" | ")) == 4 for line in lines)
        assert sum(1 for line in lines if line.endswith("FIXED")) == 3

    @pytest.mark.parametrize(
        "extra", [("--pi", "1/2"), ("--S", "1"), ("--S", "1", "--pi", "2/3,4")]
    )
    def test_full_with_a_pair_is_usage_error(self, capsys, extra):
        code, out, err = run_cli(
            capsys, "trace", "--n", "3", "--j", "1", "--full", *extra
        )
        assert code == 2
        assert out == ""
        assert "--full" in err

    def test_missing_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--n", "3", "--j", "1")
        assert code == 2
        assert "--pi" in err

    def test_malformed_partition_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "--n", "3", "--j", "1", "--pi", "1//2",
        )
        assert code == 2

    def test_wrong_ground_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "--n", "3", "--j", "1", "--pi", "1,2/3",
        )
        assert code == 2

    def test_bad_marks_are_usage_errors(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "trace", "--n", "3", "--j", "1", "--S", "1;2", "--pi", "2,3,4",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys,
            "trace", "--n", "3", "--j", "1", "--S", "3", "--pi", "1,2,4",
        )
        assert code == 2


class TestBellpoly:
    def test_symbolic_text(self, capsys):
        code, out, _ = run_cli(capsys, "bellpoly", "--n", "3")
        assert code == 0
        assert out.strip() == "t1^3 + 3*t1*t2 + t3"

    def test_symbolic_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bellpoly", "--n", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "n": 2,
            "terms": [
                {"exponents": [[1, 2]], "coefficient": 1},
                {"exponents": [[2, 1]], "coefficient": 1},
            ],
        }

    def test_evaluated_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "bellpoly", "--n", "4", "--weights", "1,1,1,1"
        )
        assert code == 0
        assert out.strip() == "15"

    def test_evaluated_json_includes_weights(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bellpoly", "--n", "3", "--weights", "0,1,2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 3, "weights": [0, 1, 2], "value": "2"}

    def test_short_weights_are_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bellpoly", "--n", "4", "--weights", "1,1")
        assert code == 2
        assert "4" in err

    def test_bad_weights_rejected_before_expansion(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            setpart.bellpoly, "complete_bell_by_sum", lambda n: calls.append(n)
        )
        for weights in ("1,x", "1,1"):
            code, _, err = run_cli(
                capsys, "bellpoly", "--n", "40", "--weights", weights
            )
            assert code == 2
            assert "error" in err
        assert calls == []

    def test_unparseable_weights_are_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bellpoly", "--n", "2", "--weights", "a,b")
        assert code == 2

    def test_symbolic_depth_cap(self, capsys):
        code, _, _ = run_cli(capsys, "bellpoly", "--n", "14")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "bellpoly", "--n", "14", "--weights", ",".join(["1"] * 14)
        )
        assert code == 0


def _write_launcher(bin_dir):
    """Write the launcher an installer makes for the declared console script.

    The entry is read from ``[project.scripts]`` in the ``pyproject.toml`` of
    the checkout that holds the imported package, so the script runs the code
    under test and needs no install step.
    """
    tomllib = pytest.importorskip("tomllib")
    import_root = Path(setpart.__file__).resolve().parent.parent
    pyproject = import_root.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["setpart"]
    module, _, attr = target.partition(":")
    bin_dir.mkdir()
    script = bin_dir / "setpart"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    return import_root


def _check_console_script(env=None):
    """Run ``setpart`` by name: it prints the Bell table and exits 0, and
    rejects a negative depth with exit code 2."""
    ok = subprocess.run(
        ["setpart", "numbers", "bell", "--max-n", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[-1] == "3  5"
    bad = subprocess.run(
        ["setpart", "numbers", "bell", "--max-n", "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2, bad.stderr
    assert "nonnegative" in bad.stderr


class TestModuleEntry:
    def test_python_dash_m(self):
        import_root = Path(setpart.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(import_root))
        ok = subprocess.run(
            [sys.executable, "-m", "setpart", "numbers", "bell", "--max-n", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.splitlines()[-1] == "3  5"
        bad = subprocess.run(
            [sys.executable, "-m", "setpart", "numbers", "bell", "--max-n", "-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert bad.returncode == 2, bad.stderr


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        bin_dir = tmp_path / "bin"
        import_root = _write_launcher(bin_dir)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
            PYTHONPATH=str(import_root),
        )
        _check_console_script(env)

    @pytest.mark.skipif(
        shutil.which("setpart") is None,
        reason="setpart console script not installed",
    )
    def test_console_script_on_path(self):
        _check_console_script()
