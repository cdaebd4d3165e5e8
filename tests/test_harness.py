import csv
import errno
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import verfair
import verfair.data as data
import verfair.harness as harness
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, identity_groups,
                     load_relevance, save_groups, save_relevance,
                     synth_relevance, top_k)
from verfair.allocator import SlateSet
from verfair.cli import main
from verfair.harness import (DEFAULT_CUTOFFS, RunConfig, bench,
                             dump_distributions, metrics_header, run, sweep)


@pytest.fixture
def rel():
    return synth_relevance(30, 15, seed=12)


def unshown_c():
    """A 2x3 matrix over items A, B, C whose top-1 and top-2 slates never
    show C, and a group map that lacks C."""
    rel = RelevanceMatrix(("c1", "c2"), ("A", "B", "C"),
                          np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.1]]))
    return rel, GroupMap({"A": "g", "B": "g"}, ("g",))


class TestRun:
    def test_writes_both_csvs(self, rel, tmp_path):
        config = RunConfig(method="verfair-ind", eta=1.0, k=5, alpha=1.0,
                           seed=0, cutoffs=(1, 3))
        slate_path = tmp_path / "slates.csv"
        metrics_path = tmp_path / "metrics.csv"
        slates, report = run(config, rel, slate_path=slate_path,
                             metrics_path=metrics_path)
        lines = slate_path.read_text().splitlines()
        assert lines[0].startswith("# method=verfair-ind")
        assert lines[1] == "consumer_id,rank,item_id,phase_tag"
        assert len(lines) == 2 + rel.m * 5
        assert metrics_path.read_text().splitlines()[0] == \
            metrics_header((1, 3))

    def test_deterministic(self, rel):
        config = RunConfig(method="verfair-ind", eta=1.0, k=5, alpha=0.7,
                           seed=9, cutoffs=(1, 3, 5))
        a = run(config, rel)[1]
        b = run(config, rel)[1]
        assert a.ndcg_at == b.ndcg_at
        assert a.fairness_individual == b.fairness_individual

    def test_top_k_metrics_row(self, rel, tmp_path):
        config = RunConfig(method="top-k", eta=1.0, k=5, cutoffs=(1, 3))
        _, report = run(config, rel)
        assert all(v == pytest.approx(1.0) for v in report.ndcg_at.values())

    def test_unknown_method(self, rel):
        with pytest.raises(ValueError):
            run(RunConfig(method="magic", cutoffs=(1,)), rel)

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_a_group_map_missing_an_item_is_refused_by_name(self, method):
        # the group-level methods read the map before evaluate does
        rel, groups = unshown_c()
        with pytest.raises(ValueError, match="^unknown item 'C'"):
            run(RunConfig(method, k=1, cutoffs=(1,)), rel, groups)

    def test_default_cutoffs_are_those_no_longer_than_k(self, rel):
        # as the CLI's default: a run and a sweep at k = 5 evaluate at 1, 3
        assert RunConfig("top-k").cutoffs == DEFAULT_CUTOFFS
        assert RunConfig("top-k", k=5).cutoffs == (1, 3)
        assert RunConfig("top-k", k=5, cutoffs=(5,)).cutoffs == (5,)
        assert sorted(run(RunConfig("top-k", k=5), rel)[1].ndcg_at) == [1, 3]
        records = sweep(RunConfig("verfair-ind", k=5), (0.0, 1.0), rel)
        assert [sorted(r.ndcg_at) for r in records] == [[1, 3], [1, 3]]


class TestSweep:
    def test_one_record_per_grid_point_sorted(self, rel):
        config = RunConfig(method="verfair-ind", eta=1.0, k=5, cutoffs=(1, 3))
        records = sweep(config, (1.0, 0.0, 0.5), rel)
        assert [r.param for r in records] == [0.0, 0.5, 1.0]

    def test_single_point(self, rel):
        config = RunConfig(method="top-k", eta=1.0, k=5, cutoffs=(1,))
        assert len(sweep(config, (0.0,), rel)) == 1

    def test_tradeoff_trend(self, rel):
        config = RunConfig(method="verfair-ind", eta=1.0, k=5, cutoffs=(5,))
        lo, hi = sweep(config, (0.0, 1.0), rel)
        assert lo.ndcg_at[5] >= hi.ndcg_at[5]
        assert hi.fairness_individual >= lo.fairness_individual

    def test_fairco_gain_sweep(self, rel):
        config = RunConfig(method="fairco", eta=1.0, k=5, cutoffs=(5,))
        records = sweep(config, (0.0, 1.0, 10.0, 1000.0), rel)
        assert records[-1].fairness_individual > records[0].fairness_individual

    def test_empty_grid_rejected(self, rel):
        with pytest.raises(ValueError):
            sweep(RunConfig(method="verfair-ind"), (), rel)

    def test_alpha_above_one_rejected(self, rel):
        with pytest.raises(ValueError):
            sweep(RunConfig(method="verfair-ind"), (0.5, 1.5), rel)

    @pytest.mark.parametrize("method", ["verfair-ind", "verfair-group",
                                        "fairco", "top-k"])
    @pytest.mark.parametrize("grid", [
        (0.5,), (0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 0.0, 0.5, 0.5), (0.0, 0.0)])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_sorts_preferences_once(self, rel, monkeypatch, tmp_path, method,
                                    grid, cpus):
        # a sweep sorts once, here, before any point: to n for a verfair
        # grid with some alpha above 0, else to k. A following run sorts
        # only to a depth the sweep did not reach (a verfair run at alpha
        # 1 after an all-zero grid). No forked child and no evaluate
        # sorts. Each sort appends "pid depth in-evaluate" to a file, so
        # the sorts of forked children are counted too
        sorts = tmp_path / "sorts"
        evaluating = []

        def counting_preferences(scores, id_rank, d):
            with open(sorts, "a") as f:
                f.write(f"{os.getpid()} {d} {bool(evaluating)}\n")
            return real_preferences(scores, id_rank, d)

        def flagged_evaluate(*args):
            evaluating.append(1)
            try:
                return real_evaluate(*args)
            finally:
                evaluating.pop()

        real_preferences, real_evaluate = data._preferences, harness.evaluate
        monkeypatch.setattr(data, "_preferences", counting_preferences)
        monkeypatch.setattr(harness, "evaluate", flagged_evaluate)
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        config = RunConfig(method=method, eta=1.0, k=5, cutoffs=(1, 3))
        verfair = method.startswith("verfair")
        swept = rel.n if verfair and max(grid) > 0 else config.k
        ran = rel.n if verfair else config.k
        sweep(config, grid, rel, three_groups(rel))
        run(config, rel, three_groups(rel))
        depths = [swept] + ([ran] if ran > swept else [])
        assert sorts.read_text() == "".join(
            f"{os.getpid()} {d} False\n" for d in depths)

    def test_reproducible(self, rel):
        config = RunConfig(method="verfair-ind", eta=1.0, k=5, seed=4,
                           cutoffs=(1, 3, 5))
        a = sweep(config, (0.0, 0.5, 1.0), rel)
        b = sweep(config, (0.0, 0.5, 1.0), rel)
        for ra, rb in zip(a, b):
            assert ra.ndcg_at == rb.ndcg_at
            assert ra.fairness_individual == rb.fairness_individual
            assert ra.fairness_group == rb.fairness_group


# A sweep's points run on every usable CPU, this process's and forked
# children's. These tests set the CPU count: the records, wall time
# dropped, must be those of the serial sweep (one CPU), and no child may
# outlive a sweep.

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def killed_before_sending(forked):
    """`data._forked` whose children are each killed once their first call
    has returned, before they can send what it returned."""
    parent = os.getpid()

    def killed(calls, procs):
        return forked([lambda call=call: (
            call(), os.getpid() == parent
            or os.kill(os.getpid(), signal.SIGKILL))[0]
            for call in calls], procs)
    return killed


def no_wall(records):
    return [replace(r, wall_ms_per_1k=0.0) for r in records]


def three_groups(rel):
    return GroupMap({d: f"g{j % 3}" for j, d in enumerate(rel.item_ids)},
                    ("g0", "g1", "g2"))


class TestForkedSweep:
    @staticmethod
    def swept(cpus, config, grid, rel, groups=None):
        """sweep(...) on `cpus` usable CPUs, wall time dropped, and the
        number of forks it tried."""
        forks = []
        fork = data._fork

        def counted():
            forks.append(1)
            return fork()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_usable_cpus", lambda: cpus)
            mp.setattr(data, "_fork", counted)
            records = sweep(config, grid, rel, groups)
        assert_no_child_left()
        return no_wall(records), len(forks)

    @pytest.mark.parametrize("method", ["verfair-ind", "verfair-group",
                                        "fairco", "top-k", "random-k"])
    @pytest.mark.parametrize("grid", [
        (1.0, 0.0, 0.5, 0.5), (0.75, 0.25, 1.0, 0.0, 0.5), (0.5,),
        (1.0, 0.0)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_records_equal_the_serial_sweep(self, rel, method, grid, cpus):
        config = RunConfig(method=method, eta=1.0, k=5, seed=3,
                           cutoffs=(1, 3, 5))
        groups = three_groups(rel)
        serial, forked = self.swept(1, config, grid, rel, groups)
        assert forked == 0
        got, forked = self.swept(cpus, config, grid, rel, groups)
        # every point is dealt, the first too: (1.0, 0.0) forks once
        assert forked == max(0, min(cpus, len(grid)) - 1)
        assert [r.param for r in got] == sorted(grid)
        assert got == serial

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_each_point_keeps_its_own_wall_time(self, rel, monkeypatch,
                                                cpus):
        # the comparisons above drop wall time; each point's, timed in the
        # process that ran it, must come back with its record
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        records = sweep(RunConfig(method="verfair-ind", k=5, cutoffs=(1, 3)),
                        (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), rel)
        walls = [r.wall_ms_per_1k for r in records]
        assert len(walls) == 6
        assert all(math.isfinite(w) and w > 0 for w in walls), walls

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_failed_fork_gives_the_serial_records(self, rel, monkeypatch,
                                                    failing):
        config = RunConfig(method="verfair-ind", k=5, cutoffs=(1, 3))
        grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        serial, _ = self.swept(1, config, grid, rel)
        calls = []
        fork = os.fork

        def fork_fails():
            calls.append(1)
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, "no more processes")
            return fork()

        monkeypatch.setattr(os, "fork", fork_fails)
        got, forked = self.swept(3, config, grid, rel)
        assert got == serial and forked == len(calls) == failing

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_point_raising_in_a_child_gives_the_serial_records(
            self, rel, monkeypatch, cpus):
        config = RunConfig(method="verfair-group", k=5, cutoffs=(1, 3))
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        groups = three_groups(rel)
        serial, _ = self.swept(1, config, grid, rel, groups)
        parent, point = os.getpid(), harness._point

        def raises_in_a_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("a child's point")
            return point(*args)

        monkeypatch.setattr(harness, "_point", raises_in_a_child)
        got, forked = self.swept(cpus, config, grid, rel, groups)
        assert got == serial and forked == cpus - 1

    @pytest.mark.parametrize("cpus, ran_here", [
        (2, [0.0, 0.6, 0.8, 0.2, 0.4, 1.0]),
        (3, [0.0, 1.0, 0.2, 0.4, 0.6, 0.8])])
    def test_a_child_killed_before_it_signals_gives_the_serial_records(
            self, rel, monkeypatch, cpus, ran_here):
        # the children make the record of their first point, then die
        # before they send it: this process runs its own points, then each
        # of the children's once, in grid order
        config = RunConfig(method="verfair-ind", k=5, cutoffs=(1, 3))
        grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        serial, _ = self.swept(1, config, grid, rel)
        parent, point, ran = os.getpid(), harness._point, []

        def counted(config, param, *args):
            if os.getpid() == parent:
                ran.append(param)
            return point(config, param, *args)

        monkeypatch.setattr(harness, "_point", counted)
        monkeypatch.setattr(data, "_forked",
                            killed_before_sending(data._forked))
        got, forked = self.swept(cpus, config, grid, rel)
        assert got == serial and forked == cpus - 1
        assert ran == ran_here

    @pytest.mark.parametrize("cpus, last", [(1, 16.0), (2, 4.0), (3, 16.0)])
    def test_a_point_raising_here_raises_as_on_one_cpu(
            self, rel, monkeypatch, cpus, last):
        # once, on this process's last point: the sweep raises that error,
        # as the serial sweep does, and leaves no child
        config = RunConfig(method="fairco", k=5, cutoffs=(1, 3))
        grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        parent, point, raised = os.getpid(), harness._point, []

        def raises_once(config, param, *args):
            if os.getpid() == parent and param == last and not raised:
                raised.append(param)
                raise RuntimeError("this process's point")
            return point(config, param, *args)

        monkeypatch.setattr(harness, "_point", raises_once)
        with pytest.raises(RuntimeError, match="^this process's point$"):
            self.swept(cpus, config, grid, rel)
        assert raised == [last]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_raising_point_runs_no_point_twice_here(self, rel, monkeypatch,
                                                      cpus):
        # 0.8 raises wherever it runs: here on one or two CPUs, and on
        # three in a child and then here
        parent, point, ran = os.getpid(), harness._point, []

        def raises_at(config, param, *args):
            if os.getpid() == parent:
                ran.append(param)
            if param == 0.8:
                raise ValueError(f"bad point {param}")
            return point(config, param, *args)

        monkeypatch.setattr(harness, "_point", raises_at)
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match=r"^bad point 0\.8$"):
            sweep(RunConfig(method="top-k", k=5, cutoffs=(1,)),
                  (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), rel)
        assert ran[-1] == 0.8 and len(ran) == len(set(ran))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_first_error_is_the_serial_sweeps(self, rel, monkeypatch,
                                                  cpus):
        # 0.4 runs in a child and, on 2 CPUs, 0.8 here: the error of 0.4
        # comes first
        point = harness._point

        def raises_at(config, param, *args):
            if param in (0.4, 0.8):
                raise ValueError(f"bad point {param}")
            return point(config, param, *args)

        monkeypatch.setattr(harness, "_point", raises_at)
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match=r"^bad point 0\.4$"):
            sweep(RunConfig(method="top-k", k=5, cutoffs=(1,)),
                  (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), rel)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_an_infinite_lambda_exits_2_with_the_serial_message(
            self, tmp_path, capsys, monkeypatch, cpus):
        rel_path = tmp_path / "rel.csv"
        save_relevance(synth_relevance(10, 8, seed=1), rel_path)
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        code = main(["sweep", "--relevance", str(rel_path), "--method",
                     "fairco", "--k", "4", "--grid", "0,1,5,inf",
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == \
            "error: lambda must be a finite number >= 0\n"

    def test_a_forked_sweep_after_a_blas_product_finishes(self):
        # numpy's BLAS runs a thread pool; a child forked after a product
        # must not hang in the product of its own points' NDCG
        script = """if True:
            import numpy as np
            import verfair.data as data
            from verfair import synth_relevance
            from verfair.harness import RunConfig, sweep
            data._usable_cpus = lambda: 2
            fork, forks = data._fork, []
            data._fork = lambda: forks.append(1) or fork()
            a = np.random.default_rng(0).random((500, 500))
            for _ in range(5):
                a = a @ a.T / 500
            records = sweep(RunConfig("verfair-ind", k=5, cutoffs=(1, 5)),
                            (0.0, 0.5, 1.0),
                            synth_relevance(200, 30, seed=1))
            print(len(forks), len(records))
        """
        src = str(Path(verfair.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 3\n"


# A run that writes its slates evaluates them in a forked child on two or
# more usable CPUs. These tests let any slate set fork: the slate bytes,
# the metrics row (wall time dropped), the printed report and every error
# must be those of the run on one CPU, and no child may outlive a run.

class TestForkedRun:
    @pytest.fixture(autouse=True)
    def any_size_forks(self, monkeypatch):
        monkeypatch.setattr(harness, "_MIN_FORKED_SLOTS", 0)

    @pytest.fixture
    def inputs(self, tmp_path):
        rel = synth_relevance(40, 15, seed=5)
        save_relevance(rel, tmp_path / "rel.csv")
        save_groups(three_groups(rel), tmp_path / "groups.csv")
        return ["--relevance", str(tmp_path / "rel.csv"),
                "--groups", str(tmp_path / "groups.csv")]

    @staticmethod
    def ran(cpus, argv, capsys, out, metrics=None):
        """main(["run", *argv]) on `cpus` usable CPUs, writing the slates to
        `out`: ((exit code, stdout, stderr, slate bytes or None, metrics
        lines with wall time dropped), (forks tried, evaluates run in this
        process))."""
        calls = {"fork": 0, "evaluate": 0}
        fork, evaluate = data._fork, harness.evaluate

        def counted_fork():
            calls["fork"] += 1
            return fork()

        def counted_evaluate(*args):
            calls["evaluate"] += 1  # a child counts in its own copy
            return evaluate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_usable_cpus", lambda: cpus)
            mp.setattr(data, "_fork", counted_fork)
            mp.setattr(harness, "evaluate", counted_evaluate)
            code = main(["run", *argv, "--out", str(out),
                         *(["--metrics-out", str(metrics)] if metrics
                           else [])])
        assert_no_child_left()
        printed = capsys.readouterr()
        rows = ([line.rsplit(",", 1)[0]
                 for line in metrics.read_text().splitlines()]
                if metrics else None)
        return ((code, printed.out, printed.err,
                 out.read_bytes() if out.is_file() else None, rows),
                (calls["fork"], calls["evaluate"]))

    @pytest.mark.parametrize("method", harness.METHODS)
    @pytest.mark.parametrize("cutoffs", ["10,1,3", "3,3"])
    def test_slates_and_metrics_equal_the_serial_run(
            self, inputs, tmp_path, capsys, method, cutoffs):
        argv = [*inputs, "--method", method, "--cutoffs", cutoffs]
        serial, calls = self.ran(1, argv, capsys, tmp_path / "s1.csv",
                                 tmp_path / "m1.csv")
        assert serial[0] == 0 and calls == (0, 1)
        forked, calls = self.ran(2, argv, capsys, tmp_path / "s2.csv",
                                 tmp_path / "m2.csv")
        assert forked == serial and calls == (1, 0)

    def test_a_failed_fork_gives_the_serial_report(self, inputs, tmp_path,
                                                   capsys, monkeypatch):
        argv = [*inputs, "--method", "fairco", "--lambda", "0.1"]
        serial, _ = self.ran(1, argv, capsys, tmp_path / "s1.csv",
                             tmp_path / "m1.csv")

        def fork_fails():
            raise OSError(errno.EAGAIN, "no more processes")

        monkeypatch.setattr(os, "fork", fork_fails)
        got, calls = self.ran(2, argv, capsys, tmp_path / "s2.csv",
                              tmp_path / "m2.csv")
        assert got == serial and calls == (1, 1)

    def test_evaluate_raising_in_the_child_gives_the_serial_report(
            self, inputs, tmp_path, capsys, monkeypatch):
        argv = [*inputs, "--method", "verfair-group", "--alpha", "0.5"]
        serial, _ = self.ran(1, argv, capsys, tmp_path / "s1.csv",
                             tmp_path / "m1.csv")
        parent, evaluate = os.getpid(), harness.evaluate

        def raises_in_a_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child's evaluate")
            return evaluate(*args)

        monkeypatch.setattr(harness, "evaluate", raises_in_a_child)
        got, calls = self.ran(2, argv, capsys, tmp_path / "s2.csv",
                              tmp_path / "m2.csv")
        assert got == serial and calls == (1, 1)

    def test_a_child_killed_before_it_signals_gives_the_serial_report(
            self, inputs, tmp_path, capsys, monkeypatch):
        # the child makes the report, then dies before it sends it: this
        # process evaluates again
        argv = [*inputs, "--method", "verfair-ind", "--alpha", "0.7"]
        serial, _ = self.ran(1, argv, capsys, tmp_path / "s1.csv",
                             tmp_path / "m1.csv")
        monkeypatch.setattr(data, "_forked",
                            killed_before_sending(data._forked))
        got, calls = self.ran(2, argv, capsys, tmp_path / "s2.csv",
                              tmp_path / "m2.csv")
        assert got == serial and calls == (1, 1)

    def test_an_out_directory_exits_2_with_the_serial_message(
            self, inputs, tmp_path, capsys):
        out = tmp_path / "dir"
        out.mkdir()
        argv = [*inputs, "--method", "top-k"]
        serial, _ = self.ran(1, argv, capsys, out)
        got, calls = self.ran(2, argv, capsys, out)
        assert serial == (2, "", f"error: [Errno 21] Is a directory: "
                                 f"{str(out)!r}\n", None, None)
        assert got == serial and calls == (1, 0)

    @pytest.mark.parametrize("lines, extra, message", [
        (["c1,0.5,0.25", "c2,0,1"], ["--k", "2", "--cutoffs", "11"],
         "cutoff 11 out of range 1..2"),
        (["c1,0.5,0.25", "c2,0,1"], ["--k", "2", "--cutoffs", "1,11"],
         "cutoff 11 out of range 1..2"),
        (["c1,0,0", "c2,0,0"], ["--k", "2"], "all-zero relevance vector"),
        # the mean of 5e-324 over two rows rounds to 0
        (["c1,5e-324,0", "c2,0,0"], ["--k", "2"],
         "all-zero relevance vector"),
    ])
    @pytest.mark.parametrize("there", [False, True])
    def test_a_refused_run_exits_2_and_leaves_out_alone(
            self, tmp_path, capsys, lines, extra, message, there):
        rel_path = tmp_path / "rel.csv"
        rel_path.write_text("\n".join(["consumer_id,A,B", *lines]) + "\n")
        out = tmp_path / "slates.csv"
        argv = ["--relevance", str(rel_path), "--method", "top-k", *extra]
        for cpus in (1, 2):
            if there:
                out.write_bytes(b"kept\n")
            got, (forks, _) = self.ran(cpus, argv, capsys, out)
            assert got == (2, "", f"error: {message}\n",
                           b"kept\n" if there else None, None)
            assert forks == 0

    @pytest.mark.parametrize("shown", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_group_map_missing_an_item_fails_before_the_file(
            self, tmp_path, monkeypatch, shown, cpus):
        # check_evaluable refuses every slate set then, before any fork and
        # before the file is opened, whether or not a slate shows the item
        if shown:  # top-k at k = n shows every item
            rel, k = synth_relevance(40, 15, seed=5), 15
        else:
            rel, k = unshown_c()[0], 1
        missing = rel.item_ids[0] if shown else "C"
        groups = GroupMap({d: "g" for d in rel.item_ids if d != missing},
                          ("g",))
        out = tmp_path / "slates.csv"
        forks = []
        fork = data._fork
        monkeypatch.setattr(data, "_fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError,
                           match=f"^unknown item {re.escape(repr(missing))}"):
            run(RunConfig("top-k", k=k, cutoffs=(1,)), rel, groups,
                slate_path=out)
        assert not out.exists() and not forks

    def test_a_forked_run_after_a_blas_product_finishes(self, tmp_path):
        # the child's NDCG takes a BLAS product after one in this process
        script = """if True:
            import sys
            import numpy as np
            import verfair.data as data
            import verfair.harness as harness
            from verfair import synth_relevance
            from verfair.harness import RunConfig, run
            data._usable_cpus = lambda: 2
            harness._MIN_FORKED_SLOTS = 0
            fork, forks = data._fork, []
            data._fork = lambda: forks.append(1) or fork()
            a = np.random.default_rng(0).random((500, 500))
            for _ in range(5):
                a = a @ a.T / 500
            _, report = run(RunConfig("top-k", k=5, cutoffs=(1, 5)),
                            synth_relevance(200, 30, seed=1),
                            slate_path=sys.argv[1])
            print(len(forks), sorted(report.ndcg_at))
        """
        src = str(Path(verfair.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "slates.csv")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 [1, 5]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("failure", [None, "fork_fails", "child_killed"])
@pytest.mark.parametrize("forking", ["load", "sweep", "run"])
def test_no_descriptor_outlives_a_forked_call(tmp_path, monkeypatch, forking,
                                              failure):
    rel = synth_relevance(40, 15, seed=5)
    save_relevance(rel, tmp_path / "rel.csv")
    config = RunConfig("verfair-ind", k=5, cutoffs=(1, 3))
    call = {"load": lambda: load_relevance(tmp_path / "rel.csv"),
            "sweep": lambda: sweep(config, (0.0, 0.5, 1.0), rel),
            "run": lambda: run(config, rel,
                               slate_path=tmp_path / "slates.csv")}[forking]
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 64)
    monkeypatch.setattr(harness, "_MIN_FORKED_SLOTS", 0)
    monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
    forks, fork = [], data._fork
    monkeypatch.setattr(data, "_fork", lambda: forks.append(1) or fork())
    if failure == "fork_fails":
        def fork_fails():
            raise OSError(errno.EAGAIN, "no more processes")

        monkeypatch.setattr(os, "fork", fork_fails)
    elif failure == "child_killed":
        monkeypatch.setattr(data, "_forked",
                            killed_before_sending(data._forked))
    before = sorted(os.listdir("/proc/self/fd"))
    call()
    assert forks and sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


class TestBench:
    def test_repeat_minimum_enforced(self, rel):
        with pytest.raises(ValueError):
            bench("top-k", rel, repeat=2)

    def test_reports_positive_time(self, rel):
        ms = bench("top-k", rel, eta=1.0, k=5, repeat=3)
        assert ms > 0

    @pytest.mark.parametrize("method", ["top-k", "verfair-ind"])
    @pytest.mark.parametrize("repeat", [3, 5])
    def test_every_run_sorts_its_preferences(self, rel, monkeypatch, method,
                                             repeat):
        # each run, the warm-up too, gets a fresh matrix, so each timed run
        # sorts; the caller's matrix keeps no sort
        sorts = []

        def counting_preferences(*args):
            sorts.append(1)
            return real_preferences(*args)

        real_preferences = data._preferences
        monkeypatch.setattr(data, "_preferences", counting_preferences)
        bench(method, rel, k=5, repeat=repeat)
        assert len(sorts) == repeat + 1
        assert "_pref" not in rel.__dict__


class TestDumpDistributions:
    def test_verfair_exposure_above_quota(self, rel, tmp_path):
        model = ExposureModel.pbm(1.0, 5)
        from verfair import allocate_individual
        slates = allocate_individual(rel, model, 1.0, seed=0)
        path = tmp_path / "dist.csv"
        dump_distributions(slates, rel, identity_groups(rel), model, 1.0, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == rel.n
        slack = model.probs[-1] + 1e-9
        for row in rows:
            assert float(row["exposure"]) >= \
                float(row["quota_at_alpha"]) - slack

    def test_top_k_concentrates_exposure(self, rel, tmp_path):
        model = ExposureModel.pbm(1.0, 5)
        slates = top_k(rel, 5)
        path = tmp_path / "dist.csv"
        dump_distributions(slates, rel, identity_groups(rel), model, 1.0, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        exposure = sorted(float(r["exposure"]) for r in rows)
        relevance = sorted(float(r["avg_relevance"]) for r in rows)
        assert _gini(exposure) > _gini(relevance)

    def test_a_group_map_missing_an_unshown_item_writes_no_file(
            self, tmp_path):
        rel, groups = unshown_c()
        path = tmp_path / "dist.csv"
        with pytest.raises(ValueError, match="^unknown item 'C'"):
            dump_distributions(top_k(rel, 1), rel, groups,
                               ExposureModel.pbm(1.0, 1), 1.0, path)
        assert not path.exists()

    def test_empty_slates_header_only(self, rel, tmp_path):
        empty = SlateSet((), rel.item_ids, np.arange(0),
                         np.empty((0, 5), dtype=int),
                         np.empty((0, 5), dtype=np.int8),
                         np.empty((0, 5), dtype=int))
        path = tmp_path / "dist.csv"
        dump_distributions(empty, rel, identity_groups(rel),
                           ExposureModel.pbm(1.0, 5), 1.0, path)
        assert path.read_text().splitlines() == \
            ["item_id,avg_relevance,exposure,quota_at_alpha"]


def _gini(sorted_vals):
    n = len(sorted_vals)
    total = sum(sorted_vals)
    cum = sum((i + 1) * v for i, v in enumerate(sorted_vals))
    return (2 * cum) / (n * total) - (n + 1) / n


class TestCli:
    def _gen(self, tmp_path):
        rel_path = tmp_path / "rel.csv"
        save_relevance(synth_relevance(10, 8, seed=1), rel_path)
        return str(rel_path)

    def test_run_roundtrip(self, tmp_path, capsys):
        rel_path = self._gen(tmp_path)
        out = tmp_path / "slates.csv"
        code = main(["run", "--relevance", rel_path, "--method", "verfair-ind",
                     "--alpha", "1.0", "--eta", "1", "--k", "4",
                     "--cutoffs", "1,3", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "fairness_ind=" in capsys.readouterr().out

    @pytest.mark.parametrize("zero, extra, message", [
        (False, ["--alpha", "2"], "alpha must be in [0,1]"),
        (True, [], "total relevance is zero; quotas undefined"),
    ])
    def test_a_refused_dump_exits_2_and_writes_no_file(
            self, tmp_path, capsys, zero, extra, message):
        rel_path = tmp_path / "rel.csv"
        rel = synth_relevance(10, 8, seed=1)
        if zero:
            rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids,
                                  np.zeros_like(rel.scores))
        save_relevance(rel, rel_path)
        out = tmp_path / "dist.csv"
        code = main(["dump", "--relevance", str(rel_path), "--method",
                     "top-k", "--k", "4", *extra, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_default_cutoffs_fit_short_slates(self, tmp_path, command):
        # without --cutoffs, only the default cutoffs <= k are evaluated
        rel_path = self._gen(tmp_path)
        out = tmp_path / "out.csv"
        extra = ["--alpha", "1"] if command == "run" else ["--grid", "0,1"]
        code = main([command, "--relevance", rel_path,
                     "--method", "verfair-ind", "--k", "5", *extra,
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_metrics_columns_follow_default_cutoffs(self, tmp_path, command):
        # --k 5 without --cutoffs evaluates 1 and 3: no ndcg@10 column
        rel_path = self._gen(tmp_path)
        out, metrics = tmp_path / "out.csv", tmp_path / "metrics.csv"
        extra = (["--metrics-out", str(metrics)] if command == "run"
                 else ["--grid", "1"])
        code = main([command, "--relevance", rel_path,
                     "--method", "verfair-ind", "--k", "5", *extra,
                     "--out", str(out)])
        assert code == 0
        header, row = (metrics if command == "run" else out
                       ).read_text().splitlines()
        assert header == ("method,param,eta,k,ndcg@1,ndcg@3,"
                          "fairness_ind,fairness_group,wall_ms_per_1k")
        assert len(row.split(",")) == len(header.split(","))
        assert "nan" not in row
        # k >= 10 keeps the header the CSV always had
        assert metrics_header(DEFAULT_CUTOFFS) == (
            "method,param,eta,k,ndcg@1,ndcg@3,ndcg@10,"
            "fairness_ind,fairness_group,wall_ms_per_1k")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_metrics_columns_follow_given_cutoffs(self, tmp_path, command):
        rel_path = self._gen(tmp_path)
        out, metrics = tmp_path / "out.csv", tmp_path / "metrics.csv"
        extra = (["--metrics-out", str(metrics)] if command == "run"
                 else ["--grid", "1"])
        code = main([command, "--relevance", rel_path,
                     "--method", "verfair-ind", "--k", "5",
                     "--cutoffs", "1,2,5", *extra, "--out", str(out)])
        assert code == 0
        header, row = (metrics if command == "run" else out
                       ).read_text().splitlines()
        assert header == ("method,param,eta,k,ndcg@1,ndcg@2,ndcg@5,"
                          "fairness_ind,fairness_group,wall_ms_per_1k")
        config = RunConfig(method="verfair-ind", k=5, cutoffs=(1, 2, 5))
        _, report = run(config, synth_relevance(10, 8, seed=1))
        assert row.split(",")[4:7] == \
            [repr(report.ndcg_at[c]) for c in (1, 2, 5)]

    def test_gen_and_sweep(self, tmp_path):
        rel_path = tmp_path / "rel.csv"
        code = main(["gen", "--m", "8", "--n", "6", "--seed", "3",
                     "--out", str(rel_path)])
        assert code == 0
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--relevance", str(rel_path),
                     "--method", "verfair-ind", "--grid", "0,0.5,1",
                     "--eta", "1", "--k", "3", "--cutoffs", "1,3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == metrics_header((1, 3))
        assert len(lines) == 4

    def test_gen_of_a_shape_too_large_to_allocate_exits_2(self, tmp_path,
                                                          capsys):
        # 10**15 x 3 doubles: numpy refuses before anything is allocated
        out = tmp_path / "rel.csv"
        code = main(["gen", "--m", str(10**15), "--n", "3",
                     "--out", str(out)])
        assert code == 2
        assert "1000000000000000x3" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_subcommand(self, tmp_path):
        rel_path = self._gen(tmp_path)
        out = tmp_path / "dist.csv"
        code = main(["dump", "--relevance", rel_path, "--method", "top-k",
                     "--eta", "1", "--k", "4", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("item_id,")

    def test_bench_prints_the_time_per_1k_slates(self, tmp_path, capsys):
        rel_path = self._gen(tmp_path)
        code = main(["bench", "--relevance", rel_path, "--method", "top-k",
                     "--k", "4"])
        assert code == 0
        assert re.fullmatch(r"top-k: \d+\.\d ms per 1k slates\n",
                            capsys.readouterr().out)

    def test_bench_with_too_few_repeats_exits_2(self, tmp_path, capsys):
        rel_path = self._gen(tmp_path)
        code = main(["bench", "--relevance", rel_path, "--method", "top-k",
                     "--k", "4", "--repeat", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: repeat must be >= 3\n"

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("an invariant broke")

        monkeypatch.setattr(harness, "run", broken)
        code = main(["run", "--relevance", self._gen(tmp_path),
                     "--method", "top-k", "--k", "4",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err == \
            "internal error: an invariant broke\n"

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["run", "--relevance", str(tmp_path / "nope.csv"),
                     "--method", "top-k", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("k", [99, 10**15])
    @pytest.mark.parametrize("command", ["run", "sweep", "bench", "dump"])
    def test_bad_k_exits_2(self, tmp_path, capsys, command, k):
        # k is checked against n before any k-long array is built: a huge
        # k must not reach numpy's allocator
        rel_path = self._gen(tmp_path)
        out = ["--out", str(tmp_path / "o.csv")]
        extra = {"run": out, "sweep": ["--grid", "0,1", *out], "bench": [],
                 "dump": out}[command]
        code = main([command, "--relevance", rel_path, "--method", "top-k",
                     "--k", str(k), *extra])
        assert code == 2
        assert f"need n >= k (n=8, k={k})" in capsys.readouterr().err

    def test_nan_eta_exits_2(self, tmp_path):
        rel_path = self._gen(tmp_path)
        metrics = tmp_path / "metrics.csv"
        code = main(["run", "--relevance", rel_path, "--method", "top-k",
                     "--k", "4", "--eta", "nan", "--out",
                     str(tmp_path / "o.csv"), "--metrics-out", str(metrics)])
        assert code == 2
        assert not metrics.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_2(self, tmp_path, lam):
        rel_path = self._gen(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["run", "--relevance", rel_path, "--method", "fairco",
                     "--k", "4", "--lambda", lam, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["fairco", "top-k", "verfair-ind"])
    def test_nan_grid_value_exits_2(self, tmp_path, method):
        rel_path = self._gen(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--relevance", rel_path, "--method", method,
                     "--k", "4", "--grid", "nan,1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("method,flag,grid,groups", [
        ("verfair-ind", "--alpha", "0.5", False),
        ("verfair-ind", "--alpha", "1,0,0.5", False),
        ("verfair-group", "--alpha", "0.5", True),
        ("verfair-group", "--alpha", "1,0,0.5", True),
        ("fairco", "--lambda", "1.0", False),
        ("fairco", "--lambda", "1.0", True),
        ("top-k", None, "0.25", False),
    ])
    def test_run_row_equals_sweep_row(self, tmp_path, method, flag, grid,
                                      groups):
        # every row of a sweep, whose verfair grid points share one
        # shuffle and sort, is the row of a run at its value
        rel_path = self._gen(tmp_path)
        common = ["--relevance", rel_path, "--method", method, "--k", "4"]
        if groups:
            rel = synth_relevance(10, 8, seed=1)
            save_groups(GroupMap({d: f"g{j % 3}"
                                  for j, d in enumerate(rel.item_ids)},
                                 ("g0", "g1", "g2")), tmp_path / "groups.csv")
            common += ["--groups", str(tmp_path / "groups.csv")]
        run_metrics, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
        assert main(["sweep", *common, "--grid", grid,
                     "--out", str(sweep_out)]) == 0
        sweep_lines = sweep_out.read_text().splitlines()
        values = sorted(grid.split(","), key=float)
        assert len(sweep_lines) == 1 + len(values)
        for value, sweep_line in zip(values, sweep_lines[1:]):
            assert main(["run", *common, *([flag, value] if flag else []),
                         "--out", str(tmp_path / "slates.csv"),
                         "--metrics-out", str(run_metrics)]) == 0
            run_lines = run_metrics.read_text().splitlines()
            assert run_lines[0] == sweep_lines[0]
            run_row = run_lines[1].split(",")
            sweep_row = sweep_line.split(",")
            if flag is None:
                # a method without a parameter: nan in run, the grid value
                # in sweep
                assert (run_row[1], sweep_row[1]) == ("nan", value)
                run_row[1] = sweep_row[1]
            assert run_row[:-1] == sweep_row[:-1], value
