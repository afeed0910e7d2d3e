"""The fig2 suite's process pool: outputs, cleanup and error paths."""

import multiprocessing
import os
import threading

import pytest

from ucfw import experiments
from ucfw.cli import EXIT_ERROR, main
from ucfw.errors import StaleOptimum, UCFWError
from ucfw.experiments import run_fig2


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def worker_pid(_job):
    return os.getpid()


class TestFig2Pool:
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

    def test_outputs_do_not_depend_on_the_pool_size(self, monkeypatch, tmp_path):
        trees = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
            manifest = run_fig2(tmp_path / str(cpus), seed=0, dim=6, horizon=40)
            assert multiprocessing.active_children() == []
            trees.append(tree(tmp_path / str(cpus)))
        assert len(manifest["runs"]) == 30
        assert len(trees[0]) == 30 * 2 + 6 + 1  # CSVs and sidecars, SVGs, manifest
        assert trees[0] == trees[1]

    def _fail_in_workers(self, monkeypatch):
        parent, real = os.getpid(), experiments.run_single

        def run_single(*args, **kwargs):
            if os.getpid() != parent:
                raise StaleOptimum("raised in a worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "run_single", run_single)

    def test_worker_error_reaches_the_caller(self, monkeypatch, tmp_path):
        self._fail_in_workers(monkeypatch)
        with pytest.raises(UCFWError, match="raised in a worker") as info:
            run_fig2(tmp_path, seed=0, dim=6, horizon=40)
        assert type(info.value) is StaleOptimum
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "manifest.json").exists()

    def test_worker_error_exits_2(self, monkeypatch, tmp_path, capsys):
        self._fail_in_workers(monkeypatch)
        assert main(["suite", "fig2", "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: raised in a worker\n"
        assert multiprocessing.active_children() == []
