"""The suites' forked children: outputs, cleanup and error paths; the
online suite's refused p grids; fig2's bound overlays."""

import json
import math
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

from ucfw import bounds as bnd
from ucfw import experiments
from ucfw.cli import EXIT_ERROR, main
from ucfw.errors import ConfigError, StaleOptimum, UCFWError
from ucfw.experiments import FIG2_P_GRID, ExperimentConfig, build_problem, run_fig2, run_online_suite
from ucfw.solver import RunTrace, run_fw
from ucfw.verify import check_trace


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def worker_pid(_job):
    return os.getpid()


def job_and_pid(job):
    return job, os.getpid()


class Unloadable(Exception):
    """Pickles as (type, args) but cannot be rebuilt from its args."""

    def __init__(self, message, detail):
        super().__init__(message)


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class SuitePool:
    """Outputs, cleanup and error paths that every suite running over
    :func:`experiments._map_runs` shares.  A subclass names the suite, a
    small ``run`` of it that writes ``n_files`` files from ``n_runs`` runs, and
    the experiments function that each worker's job calls.  Its
    ``reference`` writes the tree every pool size must give, or returns
    None to compare the pool sizes with each other only."""

    suite: str
    n_runs: int
    n_files: int
    worker_call: str

    def _fail_in_workers(self, monkeypatch, fail=None):
        """Make each worker's call ``fail()``: by default it raises
        StaleOptimum("raised in a worker")."""
        parent, real = os.getpid(), getattr(experiments, self.worker_call)

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                if fail is not None:
                    fail()
                raise StaleOptimum("raised in a worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, self.worker_call, failing)

    def reference(self, monkeypatch, out_dir):
        return None

    def test_outputs_do_not_depend_on_the_pool_size(self, monkeypatch, tmp_path):
        trees = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
            manifest = self.run(tmp_path / str(cpus))
            assert_no_child_left()
            trees.append(tree(tmp_path / str(cpus)))
        assert len(manifest["runs"]) == self.n_runs
        assert len(trees[0]) == self.n_files
        assert trees[0] == trees[1] == trees[2]
        want = self.reference(monkeypatch, tmp_path / "reference")
        assert want is None or trees[0] == want

    def test_worker_error_reaches_the_caller(self, monkeypatch, tmp_path):
        self._fail_in_workers(monkeypatch)
        with pytest.raises(UCFWError, match="raised in a worker") as info:
            self.run(tmp_path)
        assert type(info.value) is StaleOptimum
        assert_no_child_left()
        assert not (tmp_path / "manifest.json").exists()

    def test_worker_error_exits_2(self, monkeypatch, tmp_path, capsys):
        self._fail_in_workers(monkeypatch)
        assert main(["suite", self.suite, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: raised in a worker\n"
        assert_no_child_left()

    def test_worker_without_a_result_is_an_error(self, monkeypatch, tmp_path):
        self._fail_in_workers(monkeypatch, lambda: os._exit(3))
        start = time.monotonic()
        with pytest.raises(UCFWError, match=r"ended without a result \(exit status 3\)$") as info:
            self.run(tmp_path)
        assert time.monotonic() - start < 20.0
        assert type(info.value) is UCFWError
        assert_no_child_left()
        assert not (tmp_path / "manifest.json").exists()

    def test_worker_without_a_result_exits_2(self, monkeypatch, tmp_path, capsys):
        self._fail_in_workers(monkeypatch, lambda: os._exit(3))
        assert main(["suite", self.suite, "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: worker process \d+ ended without a result \(exit status 3\)\n", err), err
        assert_no_child_left()
        assert not (tmp_path / "manifest.json").exists()


class TestFig2Pool(SuitePool):
    suite, worker_call = "fig2", "run_fw_stack"
    n_runs = 30
    n_files = 30 * 2 + 6 + 1  # CSVs and sidecars, SVGs, manifest

    def run(self, out_dir) -> dict:
        return run_fig2(out_dir, seed=0, dim=6, horizon=40)

    def reference(self, monkeypatch, out_dir):
        """fig2 with each run on its own through run_fw and the same writer:
        the stacks of 30, 15 and 10 must write these bytes."""

        def per_run(problems, T):
            return [run_fw(feasible, f, x_init, rule, T, f_star=f_star)
                    for feasible, f, x_init, rule, f_star in problems]

        monkeypatch.setattr(experiments, "run_fw_stack", per_run)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        self.run(out_dir)
        return tree(out_dir)

    @pytest.mark.parametrize("cpus, in_parent", [(1, True), (2, False)])
    def test_map_runs_uses_workers_only_with_cpus_to_spare(self, monkeypatch, cpus, in_parent):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
        pids = experiments._map_runs(worker_pid, range(6))
        assert (set(pids) == {os.getpid()}) is in_parent
        assert_no_child_left()

    def test_map_runs_stays_here_while_threads_run(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert set(experiments._map_runs(worker_pid, range(4))) == {os.getpid()}
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()

    def test_failing_plot_leaves_no_manifest(self, monkeypatch, tmp_path):
        real = experiments.line_plot_svg

        def line_plot_svg(series, title, **kwargs):
            if title.startswith("flat"):
                raise RuntimeError("plot failed")
            return real(series, title=title, **kwargs)

        monkeypatch.setattr(experiments, "line_plot_svg", line_plot_svg)
        with pytest.raises(RuntimeError, match="plot failed"):
            self.run(tmp_path)
        assert (tmp_path / "curved_exact.svg").exists()
        assert not (tmp_path / "manifest.json").exists()


class TestOnlinePool(SuitePool):
    suite, worker_call = "online", "run_ftl"
    n_runs = 4
    n_files = 4 + 1  # CSVs, manifest

    def run(self, out_dir) -> dict:
        return run_online_suite(out_dir, seed=0, T=300, dim=4)

    @pytest.mark.parametrize("p_grid, message", [
        ((2.0, 3.0, 2.0), r"p_grid repeats p = 2: two runs would write online_p2\.csv"),
        ((2.0, math.inf), r"the p = inf ball has no \(alpha, q\)"),
    ])
    def test_bad_p_grid_refused_before_any_run(self, monkeypatch, tmp_path, p_grid, message):
        def no_runs(fn, jobs):
            raise AssertionError("runs started")

        monkeypatch.setattr(experiments, "_map_runs", no_runs)
        with pytest.raises(ConfigError, match=message):
            run_online_suite(tmp_path / "out", T=300, p_grid=p_grid, dim=4)
        assert not (tmp_path / "out").exists()


def fail_on(failing):
    def job(i):
        if i in failing:
            raise ValueError(f"job {i}")
        return i

    return job


class TestMapRuns:
    """:func:`experiments._map_runs` on bare jobs: child w of n runs jobs
    w, w + n, ..., and every child is reaped whatever happens."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_come_back_in_job_order(self, monkeypatch, cpus):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
        results = experiments._map_runs(job_and_pid, range(5))
        assert [job for job, _ in results] == list(range(5))
        pids = [pid for _, pid in results]
        assert len(set(pids)) == cpus and os.getpid() not in pids
        assert pids == [pids[i % cpus] for i in range(5)]
        assert_no_child_left()

    # at 2 CPUs even jobs run in child 0 and odd jobs in child 1
    @pytest.mark.parametrize("failing, first", [((3, 4), 3), ((2, 5), 2)])
    def test_the_lowest_failing_job_is_raised(self, monkeypatch, failing, first):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match=f"^job {first}$"):
            experiments._map_runs(fail_on(failing), range(6))
        assert_no_child_left()

    def test_a_result_that_does_not_load_is_an_error(self, monkeypatch):
        def unloadable(job):
            raise Unloadable("sent but not rebuilt", job)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(UCFWError, match=r"ended without a result \(exit status 0\)$"):
            experiments._map_runs(unloadable, range(2))
        assert_no_child_left()

    def test_a_killed_child_names_its_signal(self, monkeypatch):
        def killed(job):
            if job == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return job

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(UCFWError, match=rf"ended without a result \(killed by signal {int(signal.SIGKILL)}\)$"):
            experiments._map_runs(killed, range(4))
        assert_no_child_left()


@pytest.fixture(scope="module")
def fig2_runs(tmp_path_factory):
    """fig2 at seed 0: each short or exact run's CSV columns and sidecar,
    by (location, rule, p)."""
    out = tmp_path_factory.mktemp("fig2")
    run_fig2(out, seed=0)
    runs = {}
    for location in ("curved", "flat"):
        for rule in ("short", "exact"):
            for p in FIG2_P_GRID:
                stem = out / f"{location}_{rule}_p{p:g}"
                with open(f"{stem}.csv") as fh:
                    header = fh.readline().strip().split(",")
                data = np.loadtxt(f"{stem}.csv", delimiter=",", skiprows=1, ndmin=2)
                with open(f"{stem}.json") as fh:
                    runs[location, rule, p] = dict(zip(header, data.T)), json.load(fh)
    return runs


class TestFig2Overlays:
    """Every flat instance is 10 from its ball, so every flat run carries
    Theorem 1; Theorem 2 starts where h_t first reaches 1."""

    def test_flat_runs_have_c_10_and_theorem1(self, fig2_runs):
        for (location, rule, p), (columns, meta) in fig2_runs.items():
            if location == "flat":
                assert meta["constants"]["c"] == pytest.approx(10.0, rel=1e-12), (rule, p)
                assert "bound_t1" in columns, (rule, p)

    def test_theorem2_where_the_gap_reaches_1(self, fig2_runs):
        for (location, rule, p), (columns, meta) in fig2_runs.items():
            reaches = bool(np.any(columns["primal_gap"] <= 1.0))
            positive_floor = meta["constants"]["c"] > 0.0
            assert ("bound_t2" in columns) == (positive_floor and reaches), (location, rule, p)
            if location == "flat" and p >= 5.0:  # too slow to get there in T = 1000
                assert not reaches and "bound_t2" not in columns, (rule, p)

    def test_every_overlay_bounds_its_primal_gap(self, fig2_runs):
        for (location, rule, p), (columns, meta) in fig2_runs.items():
            trace = RunTrace(t=columns["t"].astype(int), **{name: columns[name] for name in (
                "gamma", "fw_gap", "primal_gap", "dist_to_vertex", "grad_dual_norm")})
            k, h, ts = meta["constants"], trace.primal_gap, trace.t.astype(float)
            feasible, f = build_problem(ExperimentConfig(optimum_location=location), p)
            bounds = [(bnd.theorem3_bound(k["alpha"], k["q"], f.heb.mu_heb * feasible.norm_equivalence().heb,
                                          f.heb.theta, k["L"], h[0]), "bound_t3", 0)]
            if "bound_t1" in columns:
                bounds.append((bnd.theorem1_bound(k["c"], k["alpha"], k["q"], k["L"], h[0]), "bound_t1", 0))
            if "bound_t2" in columns:
                anchor = meta["t2_anchor"]
                assert np.all(columns["bound_t2"][:anchor] == np.inf)
                bounds.append((bnd.theorem2_bound(k["c"], k["alpha"], k["q"], k["L"], h[anchor]), "bound_t2", anchor))
            for bound, name, burn_in in bounds:
                assert np.array_equal(columns[name][burn_in:], bound.evaluate(ts[burn_in:] - burn_in)), name
                report = check_trace(trace, bound, burn_in=burn_in)
                assert report.passed, (location, rule, p, name, report.witness)
