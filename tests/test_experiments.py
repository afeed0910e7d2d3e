"""The suites' process pool: outputs, cleanup and error paths; fig2's
bound overlays."""

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from ucfw import bounds as bnd
from ucfw import experiments
from ucfw.cli import EXIT_ERROR, main
from ucfw.errors import StaleOptimum, UCFWError
from ucfw.experiments import FIG2_P_GRID, ExperimentConfig, build_problem, run_fig2, run_online_suite
from ucfw.solver import RunTrace, run_fw
from ucfw.verify import check_trace


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def worker_pid(_job):
    return os.getpid()


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

    def _fail_in_workers(self, monkeypatch):
        parent, real = os.getpid(), getattr(experiments, self.worker_call)

        def failing(*args, **kwargs):
            if os.getpid() != parent:
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
            assert multiprocessing.active_children() == []
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
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "manifest.json").exists()

    def test_worker_error_exits_2(self, monkeypatch, tmp_path, capsys):
        self._fail_in_workers(monkeypatch)
        assert main(["suite", self.suite, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: raised in a worker\n"
        assert multiprocessing.active_children() == []


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
        assert multiprocessing.active_children() == []

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
