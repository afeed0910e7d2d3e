"""The suites' process pool: outputs, cleanup and error paths."""

import multiprocessing
import os
import threading

import pytest

from ucfw import experiments
from ucfw.cli import EXIT_ERROR, main
from ucfw.errors import StaleOptimum, UCFWError
from ucfw.experiments import run_fig2, run_online_suite
from ucfw.solver import run_fw


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
