import json
import os

import pytest

import setpart.numbers as numbers_mod
from setpart import _kernels, cli, involutions, verify
from setpart.errors import IndexOutOfRange, SizeTooLarge
from setpart.partitions import SetPartition, block_containing


SMALL_DEPTH = {
    "thm1": 5,
    "cor2": 6,
    "cor3": 6,
    "cor4": 6,
    "thm2": 4,
    "nc-catalan": 8,
    "nc-k": 8,
    "nc-firstj": 6,
    "involution": 5,
    "psi": 5,
    "bijections": 6,
}


class TestPlanning:
    def test_identity_token_list_is_stable(self):
        assert verify.IDENTITIES == (
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

    def test_triangular_grid(self):
        cells = verify.plan_cells("thm1", 3, "both")
        assert {(c["n"], c["j"]) for c in cells} == {
            (n, j) for n in range(4) for j in range(n + 1)
        }

    def test_window_identities_plan_by_j(self):
        assert [c["j"] for c in verify.plan_cells("cor2", 4, "both")] == [
            0, 1, 2, 3, 4,
        ]
        assert [c["j"] for c in verify.plan_cells("cor4", 4, "both")] == [
            2, 3, 4,
        ]

    def test_bijection_parts(self):
        cells = verify.plan_cells("bijections", 3, "both")
        parts = {(c["j"], c["part"]) for c in cells}
        assert ("0", "classes") not in parts
        assert ("2", "classes") not in parts
        assert (2, "classes") in parts
        assert (0, "gather-one") in parts
        assert (0, "gather-two") in parts

    def test_weighted_plan_splits_symbolic_from_numeric(self):
        cells = verify.plan_cells("thm2", 9, "both")
        symbolic = [c for c in cells if "check" not in c]
        numeric = [c for c in cells if c.get("check") == "numeric"]
        assert max(c["n"] for c in symbolic) == 7
        assert {c["n"] for c in numeric} == {8, 9}
        none_in_enum = verify.plan_cells("thm2", 7, "enumerative")
        assert all("check" not in c for c in none_in_enum)

    def test_prefix_grid_skips_empty_words(self):
        cells = verify.plan_cells("nc-firstj", 3, "both")
        assert {(c["n"], c["j"]) for c in cells} == {
            (n, j) for n in range(1, 4) for j in range(n)
        }

    def test_unknown_tokens_rejected(self):
        with pytest.raises(IndexOutOfRange):
            verify.plan_cells("thm9", 3, "both")
        with pytest.raises(IndexOutOfRange):
            verify.plan_cells("thm1", 3, "sideways")
        with pytest.raises(IndexOutOfRange):
            verify.plan_cells("thm1", -1, "both")

    def test_depth_ceilings_enforced(self):
        with pytest.raises(SizeTooLarge):
            verify.plan_cells("involution", 11, "enumerative")
        with pytest.raises(SizeTooLarge):
            verify.plan_cells("nc-catalan", 15, "both")

    def test_default_depth_respects_mode(self):
        for identity in verify.IDENTITIES:
            for mode in verify.MODES:
                depth = verify.default_max_n(identity, mode)
                assert depth <= verify._ceiling(identity, mode)
                verify.plan_cells(identity, depth, mode)


class TestSeededVectors:
    def test_deterministic_per_seed(self):
        a = verify.random_weight_vectors(7, 5)
        b = verify.random_weight_vectors(7, 5)
        assert a == b
        assert a != verify.random_weight_vectors(8, 5)

    def test_shape_and_range(self):
        vectors = verify.random_weight_vectors(0, 6)
        assert len(vectors) == verify.THM2_NUMERIC_VECTORS
        for v in vectors:
            assert len(v) == 6
            assert all(
                -verify.THM2_NUMERIC_SPAN <= t <= verify.THM2_NUMERIC_SPAN
                for t in v
            )


class TestRunIdentity:
    @pytest.mark.parametrize("identity", verify.IDENTITIES)
    def test_small_sweeps_pass(self, identity):
        report = verify.run_identity(identity, max_n=SMALL_DEPTH[identity])
        assert report.passed
        assert report.failures() == []
        assert len(report.cells) == len(
            verify.plan_cells(identity, SMALL_DEPTH[identity], "both")
        )

    @pytest.mark.parametrize("mode", verify.MODES)
    def test_modes_run_clean(self, mode):
        assert verify.run_identity("thm1", max_n=4, mode=mode).passed
        assert verify.run_identity("cor3", max_n=5, mode=mode).passed

    @pytest.mark.parametrize(
        "identity, max_n",
        [
            ("involution", 4),
            ("psi", 4),
            ("bijections", 5),
            ("thm2", 4),
            ("nc-firstj", 6),
        ],
    )
    def test_parallel_run_matches_serial(self, identity, max_n):
        serial = verify.run_identity(identity, max_n=max_n, jobs=1)
        parallel = verify.run_identity(identity, max_n=max_n, jobs=2)
        assert serial.cells == parallel.cells
        assert [c.params for c in parallel.cells] == verify.plan_cells(
            identity, max_n, "both"
        )
        assert serial.passed and parallel.passed

    def test_pool_width_is_bounded_by_cpus_and_cells(self, monkeypatch):
        widths = []
        handed = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                items = list(items)
                handed.append((chunksize, [args[3] for args in items]))
                return map(fn, items)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        serial = verify.run_identity("involution", max_n=4, jobs=1)
        cells = len(serial.cells)
        wide = verify.run_identity("involution", max_n=4, jobs=10_000)
        assert all(w <= min(os.cpu_count() or 1, cells) for w in widths)
        assert wide.cells == serial.cells
        widths.clear()
        handed.clear()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        wide = verify.run_identity("involution", max_n=4, jobs=10_000)
        assert widths == [3]
        assert wide.cells == serial.cells
        # one cell per task, largest (last planned) first; report in plan order
        planned = verify.plan_cells("involution", 4, "both")
        assert handed == [(1, planned[::-1])]
        assert [c.params for c in wide.cells] == planned
        widths.clear()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        wide = verify.run_identity("involution", max_n=4, jobs=10_000)
        assert widths == []
        assert wide.cells == serial.cells

    def test_numeric_cells_respect_seed(self):
        a = verify.run_identity("thm2", max_n=8, mode="closed-form", seed=3)
        assert a.passed
        assert any(c.params.get("check") == "numeric" for c in a.cells)

    def test_report_jsonable_schema(self):
        report = verify.run_identity("nc-k", max_n=5)
        data = report.to_jsonable()
        json.dumps(data)
        assert data["identity"] == "nc-k"
        assert data["passed"] is True
        assert data["cell_count"] == len(data["cells"])
        for cell in data["cells"]:
            assert set(cell) == {"params", "ok", "counterexample", "elapsed_s"}
            assert isinstance(cell["elapsed_s"], float)
            assert cell["elapsed_s"] >= 0


class TestFalsifiedOracle:
    def test_broken_closed_form_is_caught(self, monkeypatch):
        orig = numbers_mod.catalan
        monkeypatch.setattr(
            numbers_mod,
            "catalan",
            lambda n: orig(n) + (1 if n == 4 else 0),
        )
        report = verify.run_identity("nc-catalan", max_n=6)
        assert not report.passed
        bad = report.failures()
        assert [c.params["n"] for c in bad] == [4]
        assert bad[0].counterexample is not None

    @pytest.mark.parametrize(
        "identity, count",
        [
            ("nc-catalan", "count_noncrossing"),
            ("nc-k", "count_noncrossing_cyclic_smirnov"),
            ("nc-firstj", "count_noncrossing_prefix_smirnov"),
        ],
    )
    def test_broken_word_count_is_caught(self, monkeypatch, identity, count):
        orig = getattr(_kernels, count)
        monkeypatch.setattr(
            _kernels, count, lambda n, *j: orig(n, *j) + (1 if n == 4 else 0)
        )
        report = verify.run_identity(identity, max_n=6)
        assert not report.passed
        bad = report.failures()
        assert [c.params for c in bad] == [
            c for c in verify.plan_cells(identity, 6, "both") if c["n"] == 4
        ]
        assert all(c.counterexample is not None for c in bad)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checker_exception_fails_only_its_cell(self, monkeypatch, jobs):
        orig = numbers_mod.catalan

        def catalan(n):
            if n == 4:
                raise RuntimeError("boom at 4")
            return orig(n)

        monkeypatch.setattr(numbers_mod, "catalan", catalan)
        report = verify.run_identity("nc-catalan", max_n=6, jobs=jobs)
        assert [c.params["n"] for c in report.cells] == list(range(7))
        bad = report.failures()
        assert [c.params["n"] for c in bad] == [4]
        assert bad[0].counterexample == {
            "error": "RuntimeError",
            "message": "boom at 4",
        }
        assert bad[0].elapsed_s > 0
        assert cli.main(["verify", "nc-catalan", "--max-n", "6"]) == 1

    def test_broken_involution_pairing_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            verify, "_no_singleton_targets", lambda size, j: set()
        )
        report = verify.run_identity("psi", max_n=3)
        assert not report.passed
        assert {c.counterexample["reason"] for c in report.failures()} == {
            "image mismatch"
        }

    @staticmethod
    def failing(report):
        return [(c.params, c.counterexample["reason"]) for c in report.failures()]

    def test_lossy_split_fails_the_psi_round_trip(self, monkeypatch):
        orig = involutions.split_singleton_free
        monkeypatch.setattr(
            involutions,
            "split_singleton_free",
            lambda n, j, p: (frozenset(), orig(n, j, p)[1]),
        )
        report = verify.run_identity("psi", max_n=3)
        # only cells with a nonempty T inside {j+1..n} can lose it
        assert self.failing(report) == [
            ({"n": n, "j": j}, "round trip failed")
            for n in range(4)
            for j in range(n)
        ]
        for c in report.failures():
            assert c.counterexample["T"] == [c.params["j"] + 1]

    def test_collapsing_gather_one_is_not_injective(self, monkeypatch):
        monkeypatch.setattr(
            involutions,
            "gather_singletons",
            lambda src: SetPartition.from_blocks([range(1, len(src.ground) + 2)]),
        )
        report = verify.run_identity("bijections", max_n=4)
        # at j <= 1 the domain has one element, so one block is a bijection
        assert self.failing(report) == [
            ({"j": j, "part": "gather-one"}, "not injective") for j in range(2, 5)
        ]

    def test_gather_two_case_split_is_checked(self, monkeypatch):
        orig = involutions.gather_singletons_two

        def joined(src, j):
            out = orig(src, j)
            if len(src.ground) == j:
                return out
            a = block_containing(out, j + 1)
            b = block_containing(out, j + 2)
            rest = [x for x in out.blocks if x not in (a, b)]
            return SetPartition.from_blocks(rest + [a + b])

        monkeypatch.setattr(involutions, "gather_singletons_two", joined)
        report = verify.run_identity("bijections", max_n=4)
        assert self.failing(report) == [
            ({"j": j, "part": "gather-two"}, "case split") for j in range(5)
        ]
        report = verify.run_identity("cor3", max_n=4, mode="enumerative")
        assert self.failing(report) == [({"j": j}, "case split") for j in range(5)]
        assert report.failures()[0].counterexample == {
            "reason": "case split",
            "T": [],
            "rho": [[1]],
        }

    def test_partner_without_sign_flip_is_caught(self, monkeypatch):
        orig = involutions.partner

        def unsigned(lam):
            image = orig(lam)
            return image if image is involutions.FIXED else lam

        monkeypatch.setattr(involutions, "partner", unsigned)
        report = verify.run_identity("involution", max_n=3)
        # at j = 0 every pair is fixed
        assert self.failing(report) == [
            ({"n": n, "j": j}, "sign not reversed")
            for n in range(4)
            for j in range(1, n + 1)
        ]
