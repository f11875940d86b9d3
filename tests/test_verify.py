import itertools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import setpart.numbers as numbers_mod
from setpart import _kernels, cli, involutions, verify
from setpart.bellpoly import BellPolynomial, Monomial
from setpart.errors import IndexOutOfRange, SizeTooLarge
from setpart.partitions import SetPartition, block_containing, enumerate_partitions


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


@pytest.fixture(autouse=True)
def no_process_left_behind():
    yield
    # every helper a sweep forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_weighted_plan_is_the_triangle(self):
        for mode in ("both", "closed-form"):
            assert verify.plan_cells("thm2", 10, mode) == verify._triangle(10)
        assert verify.plan_cells("thm2", 7, "enumerative") == verify._triangle(7)
        with pytest.raises(SizeTooLarge):
            verify.plan_cells("thm2", 8, "enumerative")

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

    @pytest.mark.parametrize("identity, mode", [("nope", "both"), ("thm1", "bogus")])
    def test_check_cell_rejects_unknown_tokens(self, identity, mode):
        with pytest.raises(IndexOutOfRange):
            verify.check_cell(identity, mode, 0, {"n": 2, "j": 1})

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
        assert serial == parallel
        assert [c.params for c in parallel.cells] == verify.plan_cells(
            identity, max_n, "both"
        )
        assert serial.passed and parallel.passed

    def test_pool_width_is_bounded_by_cpus_and_cells(self, monkeypatch):
        widths = []
        handed = []

        def serial_runner(task, order, width):
            # the runner's contract, without forking: each index in order
            widths.append(width)
            handed.append(list(order))
            return {i: task(i) for i in handed[-1]}, []

        monkeypatch.setattr(verify, "_fork_map", serial_runner)
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
        # one cell per index, largest (last planned) first; report in
        # plan order
        planned = verify.plan_cells("involution", 4, "both")
        assert handed == [list(range(len(planned)))[::-1]]
        assert [c.params for c in wide.cells] == planned
        widths.clear()
        assert verify.run_identity("involution", max_n=4, jobs=2).cells == serial.cells
        assert widths == [2]
        widths.clear()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        wide = verify.run_identity("involution", max_n=4, jobs=10_000)
        assert widths == []
        assert wide.cells == serial.cells

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
        with pytest.raises(TypeError):  # results compare equal but do not hash
            hash(report.cells[0])


class TestForkRunner:
    """verify._fork_map, the runner behind jobs > 1, and what a sweep
    reports when one of its helpers dies."""

    def test_helpers_take_one_index_at_a_time_in_the_given_order(self):
        taken = itertools.count()  # each helper counts its own takes

        def task(i):
            return os.getpid(), next(taken)

        order = list(range(20))[::-1]
        done, exits = verify._fork_map(task, order, 3)
        assert exits == []
        assert sorted(done) == sorted(order)
        by_helper = {}
        for i, (pid, seq) in done.items():
            by_helper.setdefault(pid, []).append((seq, i))
        assert os.getpid() not in by_helper  # the caller runs no task
        assert 1 <= len(by_helper) <= 3
        for takes in by_helper.values():
            indices = [i for _, i in sorted(takes)]
            assert [seq for seq, _ in sorted(takes)] == list(range(len(takes)))
            assert indices == sorted(indices, reverse=True)

    @pytest.mark.parametrize(
        "die, exit_text",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
            (lambda: os._exit(3), "exited with status 3"),
        ],
        ids=["killed", "exit-3"],
    )
    def test_a_dead_helper_loses_only_its_own_indices(self, die, exit_text):
        caller = os.getpid()

        def task(i):
            if i == 3 and os.getpid() != caller:
                die()
            return os.getpid()

        done, exits = verify._fork_map(task, range(9, -1, -1), 2)
        assert exits == [exit_text]
        lost = set(range(10)) - set(done)
        # the dead helper took 3 and perhaps some larger indices before it
        assert 3 in lost and lost <= set(range(3, 10))
        assert {0, 1, 2} <= set(done)
        assert len(set(done.values())) == 1  # every result is the survivor's

    def test_a_failed_fork_stops_and_reaps_the_helpers_already_started(
        self, monkeypatch
    ):
        forks = []

        def fork():
            if forks:
                raise OSError("no more processes")
            forks.append(real_fork())
            return forks[-1]

        real_fork = os.fork
        monkeypatch.setattr(verify.os, "fork", fork)
        start = time.perf_counter()
        with pytest.raises(OSError, match="no more processes"):
            # the first helper would sleep for 30 s unless it is killed
            verify._fork_map(lambda i: time.sleep(30), range(3), 2)
        assert time.perf_counter() - start < 10
        assert len(forks) == 1

    def test_killed_helper_fails_only_its_unreported_cells(self, monkeypatch):
        caller = os.getpid()
        orig = numbers_mod.catalan

        def catalan(n):
            if n == 4 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(n)

        monkeypatch.setattr(numbers_mod, "catalan", catalan)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        report = verify.run_identity("nc-catalan", max_n=6, jobs=2)
        assert [c.params for c in report.cells] == verify.plan_cells(
            "nc-catalan", 6, "both"
        )
        bad = [c.params["n"] for c in report.failures()]
        # cells go out 6, 5, 4, ...: the killed helper held 4 and perhaps
        # 5 or 6, and the survivor ran the rest
        assert 4 in bad and set(bad) <= {4, 5, 6}
        for c in report.failures():
            assert c.counterexample == {
                "error": "HelperFailed",
                "message": "the helper process running this cell was killed "
                "by signal 9 before reporting it",
            }
        assert all(c.ok for c in report.cells if c.params["n"] < 4)

    def test_without_fork_the_sweep_runs_serially(self, monkeypatch):
        serial = verify.run_identity("psi", max_n=4, jobs=1)
        runs = []
        monkeypatch.setattr(verify, "_fork_map", lambda *args: runs.append(args))
        monkeypatch.delattr(verify.os, "fork")
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        assert verify.run_identity("psi", max_n=4, jobs=2) == serial
        assert runs == []

    def test_the_largest_plan_fits_one_pipe_write(self):
        # the caller writes every index before any helper reads one, so
        # the write must fit the smallest pipe buffer Linux gives, a page
        largest = max(
            len(verify.plan_cells(token, verify._ceiling(token, mode), mode))
            for token in verify.IDENTITIES
            for mode in verify.MODES
        )
        assert largest == 861  # thm1 at 40
        assert largest * verify._RECORD <= 4096

    def test_a_fork_during_a_bell_computation_does_not_hang(self):
        # another thread extends the Bell table while the sweep forks its
        # helpers; a lock held across that fork is never released in the
        # helpers, and then the alarm ends the sweep, whose runner kills
        # and reaps them
        snippet = (
            "import signal, sys, threading\n"
            "from setpart import numbers, verify\n"
            "signal.signal(signal.SIGALRM, lambda *_: sys.exit('hung'))\n"
            "signal.alarm(20)\n"
            "verify.os.cpu_count = lambda: 2\n"
            "cold = threading.Thread(target=numbers.bell, args=(1000,))\n"
            "cold.start()\n"
            "report = verify.run_identity('thm1', 12, 'closed-form', jobs=2)\n"
            "cold.join()\n"
            "print(report.passed, len(report.cells))\n"
        )
        import_root = os.path.dirname(os.path.dirname(verify.__file__))
        env = dict(os.environ, PYTHONPATH=import_root)
        done = subprocess.run(
            [sys.executable, "-c", snippet],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "True 91\n"), done.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_times_lie_within_the_sweep_time(self, monkeypatch, jobs):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        report = verify.run_identity("bijections", max_n=6, jobs=jobs)
        assert report.passed
        assert all(0 <= c.elapsed_s <= report.elapsed for c in report.cells)
        assert report.to_jsonable()["cells"][-1]["elapsed_s"] > 0


class TestModePolicy:
    """Which halves of a check a mode runs, seen by making the sweep
    halves of thm1 (the carrier), thm2 (the weighted carrier) and cor2
    (the gather-one map) raise."""

    BOOM = {"error": "RuntimeError", "message": "sweep half ran"}

    @pytest.fixture(autouse=True)
    def raising_sweeps(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("sweep half ran")

        monkeypatch.setattr(involutions, "enumerate_carrier", boom)
        monkeypatch.setattr(involutions, "weighted_carrier_sum", boom)
        monkeypatch.setattr(involutions, "gather_singletons", boom)

    @pytest.mark.parametrize(
        "identity, size", [("thm1", "n"), ("cor2", "j"), ("thm2", "n")]
    )
    @pytest.mark.parametrize(
        "mode, deepest_sweep", [("enumerative", 10), ("both", 9), ("closed-form", -1)]
    )
    def test_mixed_identity_sweeps_by_mode(self, identity, size, mode, deepest_sweep):
        # the weighted carrier stops at n = 7, in every mode
        top = 7 if identity == "thm2" else 10
        max_n = top if mode == "enumerative" else 10
        report = verify.run_identity(identity, max_n=max_n, mode=mode)
        planned = verify.plan_cells(identity, max_n, mode)
        assert [c.params for c in report.cells] == planned
        assert [c.params for c in report.failures()] == [
            c for c in planned if c[size] <= min(deepest_sweep, top)
        ]
        assert all(c.counterexample == self.BOOM for c in report.failures())

    @pytest.mark.parametrize("mode", verify.MODES)
    def test_sweep_only_identity_sweeps_in_every_mode(self, mode):
        report = verify.run_identity("involution", max_n=10, mode=mode)
        assert len(report.cells) == 66
        assert all(c.counterexample == self.BOOM for c in report.cells)


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
            lambda src: SetPartition([range(1, len(src.ground) + 2)]),
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
            return SetPartition(rest + [a + b])

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

    @staticmethod
    def doubling(orig, size):
        """orig, except that an image of {1..size} also holds its largest
        element as a singleton: one element in two blocks."""

        def coding(*args):
            out = orig(*args)
            if len(out.ground) != size:
                return out
            return SetPartition._trusted(out.ground, out.blocks + ((size,),))

        return coding

    def test_coding_with_an_element_in_two_blocks_is_caught(self, monkeypatch):
        # the coding maps build their images unchecked, so the sweep's
        # own checks must see a malformed one
        monkeypatch.setattr(
            involutions,
            "build_singleton_free",
            self.doubling(involutions.build_singleton_free, 4),
        )
        report = verify.run_identity("psi", max_n=4)
        assert self.failing(report) == [
            ({"n": 3, "j": j}, "round trip failed") for j in range(4)
        ]
        # the same failures from forked helpers
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        assert verify.run_identity("psi", max_n=4, jobs=2) == report
        monkeypatch.setattr(
            involutions,
            "gather_singletons_two",
            self.doubling(involutions.gather_singletons_two, 4),
        )
        report = verify.run_identity("cor3", max_n=4, mode="enumerative")
        assert self.failing(report) == [({"j": 2}, "image mismatch")]
        assert report.failures()[0].counterexample["extra"][-2:] == [[4], [4]]

    def test_class_overlap_is_checked_from_index_two(self, monkeypatch):
        # at j = 4, 1,2/3/4 is the one member of D_2 and of C_1; its D_2
        # label moves to 1/2,3,4, which has no label, so every class size
        # and the top class stay as they were and only D_2 = C_1 fails
        orig = involutions.classify_cd
        member = SetPartition.from_text("1,2/3/4")
        stranger = SetPartition.from_text("1/2,3,4")
        d2 = involutions.ClassLabel("D", 2)
        assert d2 in orig(member, 4) and orig(stranger, 4) == ()

        def moved(p, j):
            if j == 4 and p == member:
                return tuple(label for label in orig(p, j) if label != d2)
            if j == 4 and p == stranger:
                return (d2,)
            return orig(p, j)

        monkeypatch.setattr(involutions, "classify_cd", moved)
        want = {"reason": "class overlap identity fails", "index": 2}
        report = verify.run_identity("cor4", max_n=5)
        assert [(c.params, c.counterexample) for c in report.failures()] == [
            ({"j": 4}, want)
        ]
        report = verify.run_identity("bijections", max_n=5)
        assert [(c.params, c.counterexample) for c in report.failures()] == [
            ({"j": 4, "part": "classes"}, want)
        ]

    def test_partner_without_sign_flip_is_caught(self, monkeypatch):
        orig = involutions.partner

        def unsigned(lam):
            image = orig(lam)
            return image if image is None else lam

        monkeypatch.setattr(involutions, "partner", unsigned)
        report = verify.run_identity("involution", max_n=3)
        # at j = 0 every pair is fixed
        assert self.failing(report) == [
            ({"n": n, "j": j}, "sign not reversed")
            for n in range(4)
            for j in range(1, n + 1)
        ]

    def test_fixed_pair_with_a_mark_or_low_singleton_is_caught(self, monkeypatch):
        # the pair ({1}, 2,3) and its true partner ((), 1/2,3) both
        # reported fixed; the counts fail too, so the reason is asserted
        orig = involutions.partner
        faked = {(frozenset(), "1/2,3"), (frozenset({1}), "2,3")}

        def lazy(lam):
            if (lam.n, lam.j) == (2, 1) and (lam.S, lam.pi.to_text()) in faked:
                return None
            return orig(lam)

        monkeypatch.setattr(involutions, "partner", lazy)
        report = verify.run_identity("involution", max_n=2)
        assert self.failing(report) == [({"n": 2, "j": 1}, "false fixed point")]
        # the unmarked pair comes first, so its singleton {j} is the catch
        assert report.failures()[0].counterexample["pair"] == {
            "S": [],
            "pi": [[1], [2, 3]],
        }

    def test_partner_with_a_wrong_ground_is_caught(self, monkeypatch):
        orig = involutions.partner

        def leaky(lam):
            # right S and blocks, but a newly marked pivot stays in the ground
            image = orig(lam)
            if image is None or len(image.S) < len(lam.S):
                return image
            image.pi = SetPartition._trusted(lam.pi.ground, image.pi.blocks)
            return image

        monkeypatch.setattr(involutions, "partner", leaky)
        report = verify.run_identity("involution", max_n=3)
        # only SetPartition equality sees the ground; at j = 0 every pair
        # is fixed
        assert self.failing(report) == [
            ({"n": n, "j": j}, "not an involution")
            for n in range(4)
            for j in range(1, n + 1)
        ]

    def test_thm2_carrier_missing_a_pair_is_caught(self, monkeypatch):
        orig = involutions.enumerate_partitions

        def lossy(ground):
            # the carrier of n = 3 partitions grounds whose largest element is 4
            partitions = orig(ground)
            if ground[-1] == 4:
                next(partitions)
            return partitions

        monkeypatch.setattr(involutions, "enumerate_partitions", lossy)
        report = verify.run_identity("thm2", max_n=5, mode="enumerative")
        bad = report.failures()
        assert [c.params for c in bad] == [
            c for c in verify.plan_cells("thm2", 5, "enumerative") if c["n"] == 3
        ]
        assert all(set(c.counterexample) == {"carrier", "lhs"} for c in bad)

    def test_thm2_sweep_names_the_side_that_disagrees(self, monkeypatch):
        # the carrier equals lhs, so only the comparison with rhs can fail
        orig = involutions.weighted_binomial_sum
        t1 = BellPolynomial([(Monomial([(1, 1)]), 1)])
        monkeypatch.setattr(
            involutions, "weighted_binomial_sum", lambda n, j: orig(n, j) + t1
        )
        report = verify.run_identity("thm2", max_n=5, mode="enumerative")
        assert len(report.failures()) == len(report.cells) == 21
        for c in report.failures():
            assert set(c.counterexample) == {"carrier", "rhs"}
            assert c.counterexample["carrier"] != c.counterexample["rhs"]

    def test_thm2_broken_binomial_side_fails_every_cell(self, monkeypatch):
        orig = involutions.weighted_binomial_sum
        t1 = BellPolynomial([(Monomial([(1, 1)]), 1)])
        monkeypatch.setattr(
            involutions, "weighted_binomial_sum", lambda n, j: orig(n, j) + t1
        )
        report = verify.run_identity("thm2", max_n=8, mode="closed-form")
        cells = verify.plan_cells("thm2", 8, "closed-form")
        assert [c.params for c in report.failures()] == cells
        assert all(set(c.counterexample) == {"lhs", "rhs"} for c in report.failures())

    def test_thm2_warm_cache_still_reaches_a_broken_builder(self, monkeypatch):
        assert verify.run_identity("thm2", max_n=10, mode="closed-form").passed
        orig = involutions.complete_bell_by_sum
        t1 = BellPolynomial([(Monomial([(1, 1)]), 1)])
        monkeypatch.setattr(
            involutions,
            "complete_bell_by_sum",
            lambda m: orig(m) + t1 if m == 4 else orig(m),
        )
        report = verify.run_identity("thm2", max_n=6, mode="closed-form")
        cells = verify.plan_cells("thm2", 6, "closed-form")
        # Y_4 enters every cell with n >= 3, the j = 0 recurrence among them
        assert [c.params for c in report.failures()] == [
            c for c in cells if c["n"] >= 3
        ]
        assert len(report.failures()) == 22
        assert all(set(c.counterexample) == {"lhs", "rhs"} for c in report.failures())

    def test_thm2_wrong_side_vanishing_on_small_weights_fails_every_cell(
        self, monkeypatch
    ):
        # (t1 + 3)(t1 + 2)...(t1 - 3): zero at every integer t1 in [-3, 3]
        wrong = BellPolynomial(
            (Monomial([(1, power)]), coeff)
            for power, coeff in ((7, 1), (5, -14), (3, 49), (1, -36))
        )
        assert all(wrong.evaluate((t,)) == 0 for t in range(-3, 4))
        orig = involutions.weighted_binomial_sum
        monkeypatch.setattr(
            involutions, "weighted_binomial_sum", lambda n, j: orig(n, j) + wrong
        )
        report = verify.run_identity("thm2", max_n=10, mode="closed-form")
        assert len(report.failures()) == len(report.cells) == 66
        assert all(set(c.counterexample) == {"lhs", "rhs"} for c in report.failures())

    @staticmethod
    def off_at(monkeypatch, name, at):
        """numbers.name reads one too high where its first argument is at."""
        orig = getattr(numbers_mod, name)
        monkeypatch.setattr(
            numbers_mod, name, lambda k, *rest: orig(k, *rest) + (k == at)
        )

    @staticmethod
    def counterexamples(report):
        return [(c.params, c.counterexample) for c in report.failures()]

    @pytest.mark.parametrize(
        "mode, side, keys",
        [
            ("closed-form", "bell_binomial_sum", {"lhs", "rhs"}),
            ("enumerative", "bell_binomial_sum", {"signed_sum", "rhs"}),
            ("enumerative", "bell_alternating_sum", {"signed_sum", "lhs"}),
        ],
        ids=["closed", "sweep-vs-rhs", "sweep-vs-lhs"],
    )
    def test_thm1_names_each_disagreement(self, monkeypatch, mode, side, keys):
        # the closed half compares the two sides, the sweep compares the
        # signed carrier count with each side in turn
        self.off_at(monkeypatch, side, 3)
        report = verify.run_identity("thm1", max_n=4, mode=mode)
        bad = report.failures()
        assert [c.params for c in bad] == [{"n": 3, "j": j} for j in range(4)]
        assert all(set(c.counterexample) == keys for c in bad)

    @pytest.mark.parametrize("identity", ["cor2", "cor3", "cor4"])
    def test_corollary_closed_half_compares_its_sides(self, monkeypatch, identity):
        self.off_at(monkeypatch, "singleton_identity_rhs", 3)
        report = verify.run_identity(identity, max_n=4, mode="closed-form")
        assert [(c.params, set(c.counterexample)) for c in report.failures()] == [
            ({"j": 3}, {"lhs", "rhs"})
        ]

    def test_involution_counts_are_checked_against_the_closed_form(
        self, monkeypatch
    ):
        # partner is sound, so only signed == fixed == rhs can fail
        self.off_at(monkeypatch, "bell_binomial_sum", 3)
        report = verify.run_identity("involution", max_n=3)
        bad = report.failures()
        assert [c.params for c in bad] == [{"n": 3, "j": j} for j in range(4)]
        for c in bad:
            rhs = int(c.counterexample["rhs"])
            assert c.counterexample["signed_sum"] == c.counterexample["fixed_count"]
            assert c.counterexample["fixed_count"] == str(rhs - 1)

    @staticmethod
    def relabel(monkeypatch, change):
        """classify_cd, with the labels of the first partition of {1..4}
        that carries C_3 (the top class at j = 4) passed through change."""
        orig = involutions.classify_cd
        c3 = involutions.ClassLabel("C", 3)
        first = next(p for p in enumerate_partitions(4) if c3 in orig(p, 4))

        def classify(p, j):
            labels = orig(p, j)
            return change(labels, c3) if (j, p) == (4, first) else labels

        monkeypatch.setattr(involutions, "classify_cd", classify)

    def classes_failures(self):
        """The counterexamples of the classes check, which cor4's sweep and
        the bijections part report alike."""
        cor4 = verify.run_identity("cor4", max_n=5, mode="enumerative")
        parts = verify.run_identity("bijections", max_n=5)
        assert self.counterexamples(parts) == [
            (dict(params, part="classes"), found)
            for params, found in self.counterexamples(cor4)
        ]
        return self.counterexamples(cor4)

    def test_classes_refuse_a_member_of_d1(self, monkeypatch):
        d1 = involutions.ClassLabel("D", 1)
        self.relabel(monkeypatch, lambda labels, c3: labels + (d1,))
        assert self.classes_failures() == [
            ({"j": 4}, {"reason": "class D_1 is not empty"})
        ]

    def test_classes_sizes_must_sum_to_bell_numbers(self, monkeypatch):
        # C_3 is compared with no D class, so only its size sum fails
        self.relabel(
            monkeypatch, lambda labels, c3: tuple(x for x in labels if x != c3)
        )
        reason = "class size sum is not a Bell number"
        total = numbers_mod.bell(3) - 1
        assert self.classes_failures() == [
            ({"j": 4}, {"reason": reason, "index": 3, "total": total})
        ]

    def test_classes_top_size_is_the_corollary_lhs(self, monkeypatch):
        top = numbers_mod.singleton_identity_lhs(4, "alternating")
        self.off_at(monkeypatch, "singleton_identity_lhs", 4)
        assert self.classes_failures() == [
            ({"j": 4}, {"reason": "top class size mismatch", "size": top})
        ]

    def test_unknown_bijection_part_fails_its_cell(self):
        result = verify.check_cell("bijections", "both", 0, {"j": 2, "part": "nope"})
        assert result.counterexample == {
            "error": "IndexOutOfRange",
            "message": "unknown bijection part 'nope'",
        }
