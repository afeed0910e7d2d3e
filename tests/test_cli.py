"""The command line entry point: verbs, exit codes, outputs."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import ucfw
from ucfw.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main

L3_SET = json.dumps({"family": "lp", "p": 3.0, "radius": 1.0, "dim": 4})


class TestVerifyVerb:
    def test_catalog_check_passes(self, capsys):
        code = main(
            ["verify", "--set", L3_SET, "--check", "definition1",
             "--pairs", "200", "--directions", "20"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_inflated_alpha_fails(self, capsys):
        code = main(
            ["verify", "--set", L3_SET, "--check", "definition1",
             "--alpha", "2.0", "--q", "3.0", "--pairs", "200", "--directions", "20"]
        )
        assert code == EXIT_VIOLATION
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False

    def test_bad_json_is_config_error(self):
        assert main(["verify", "--set", "{not json", "--check", "definition1"]) == EXIT_ERROR

    def test_unknown_family_is_config_error(self):
        bad = json.dumps({"family": "simplex", "dim": 3})
        assert main(["verify", "--set", bad, "--check", "definition1"]) == EXIT_ERROR

    @pytest.mark.parametrize("alpha, q", [("inf", "3"), ("0.1", "inf"), ("nan", "3")])
    def test_non_finite_override_is_config_error(self, capsys, recwarn, alpha, q):
        code = main(
            ["verify", "--set", L3_SET, "--check", "definition1",
             "--alpha", alpha, "--q", q, "--pairs", "20", "--directions", "5"]
        )
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_alpha_without_q_is_config_error(self):
        assert (
            main(["verify", "--set", L3_SET, "--check", "definition1", "--alpha", "1.0"])
            == EXIT_ERROR
        )


class TestSolveVerb:
    CONFIG = {
        "set": {"family": "lp", "p": 3.0, "radius": 1.0, "dim": 4},
        "objective": {
            "family": "quadratic", "dim": 4, "cond": 10.0,
            "x0_direction": "ones", "x0_scale": 3.0,
        },
        "rule": "short",
        "T": 200,
    }

    def test_writes_trace_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--config", json.dumps(self.CONFIG), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "trace.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["trace.csv", "trace.json"]
        printed = json.loads(capsys.readouterr().out)
        assert printed["final_min_fw_gap"] >= 0.0

    def test_unknown_rule_is_config_error(self, tmp_path):
        config = dict(self.CONFIG, rule="momentum")
        code = main(["solve", "--config", json.dumps(config), "--out", str(tmp_path / "x")])
        assert code == EXIT_ERROR

    def test_config_file_path_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_OK


class TestSuiteVerb:
    def test_bounds_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["suite", "bounds_grid", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True
        assert (out / "manifest.json").exists()


class TestOnlineVerb:
    CONFIG = {
        "set": {"family": "lp", "p": 2.0, "radius": 1.0, "dim": 4},
        "stream": {"tag": "adversarial", "base": [1.0, 0.0, 0.0, 0.0],
                   "flip_scale": 0.5, "seed": 0},
        "T": 500,
    }

    def test_regret_within_bound(self, tmp_path, capsys):
        out = tmp_path / "online"
        code = main(["online", "--config", json.dumps(self.CONFIG), "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["regret_ok"] is True
        assert (out / "online.csv").exists()

    def test_stream_dim_mismatch_is_config_error(self, tmp_path, capsys):
        config = dict(self.CONFIG, set={"family": "lp", "p": 2.0, "radius": 1.0, "dim": 3},
                      stream=dict(self.CONFIG["stream"], base=[1.0, 0.0]))
        code = main(["online", "--config", json.dumps(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "dim 2" in err and "dim 3" in err

    @pytest.mark.parametrize(
        "set_desc",
        [
            {"family": "levelset", "kind": "sqnorm", "w": 1.0, "dim": 4},  # no LMO
            {"family": "lp", "p": 2000, "radius": 1.0, "dim": 4},  # alpha underflows
        ],
        ids=["levelset", "p2000"],
    )
    def test_runtime_error_exits_2_without_traceback(self, tmp_path, capsys, set_desc):
        config = dict(self.CONFIG, set=set_desc)
        code = main(["online", "--config", json.dumps(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_p2000_names_p(self, tmp_path, capsys):
        config = dict(self.CONFIG, set={"family": "lp", "p": 2000, "radius": 1.0, "dim": 4})
        assert main(["online", "--config", json.dumps(config), "--out", str(tmp_path / "o")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "p = 2000" in err and "OverflowError" not in err

    @pytest.mark.parametrize(
        "stream",
        [
            {"tag": "fixed", "losses": [[float("nan"), 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
            {"tag": "fixed", "losses": [[1.0, 0.0, 0.0, 0.0], [0.0, float("inf"), 0.0, 0.0]]},
            {"tag": "fixed", "losses": [1.0, 2.0, 3.0, 4.0]},
            {"tag": "adversarial", "base": [float("nan"), 0.0, 0.0, 0.0], "flip_scale": 0.5, "seed": 0},
            {"tag": "drifting", "base": [1.0, 0.0, 0.0, 0.0], "noise_scale": float("inf"), "seed": 0},
        ],
        ids=["nan-loss", "inf-loss", "flat-losses", "nan-base", "inf-scale"],
    )
    def test_bad_stream_is_config_error(self, tmp_path, capsys, stream):
        config = dict(self.CONFIG, stream=stream, T=2)
        out = tmp_path / "o"
        code = main(["online", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and "IndexError" not in err
        assert not (out / "online.csv").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"set": {"family": "lp", "p": 2.0, "radius": 1.0, "dim": 2},
             "stream": {"tag": "adversarial", "base": [1.5e308, 1.5e308], "flip_scale": 0.5, "seed": 0},
             "T": 100},
            {"set": {"family": "lp", "p": 3.0, "radius": 1.0, "dim": 2},
             "stream": {"tag": "fixed", "losses": [[1e308, 1e308], [1e308, 1e308]]},
             "T": 2},
        ],
        ids=["overflowing-norm", "overflowing-sum"],
    )
    def test_overflowing_stream_is_config_error(self, tmp_path, capsys, config):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["online", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_ERROR
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "overflows" in captured.err
        assert not (out / "online.csv").exists()

    def test_linf_ball_runs_without_bound(self, tmp_path, capsys):
        config = dict(self.CONFIG, set={"family": "lp", "p": "inf", "radius": 1.0, "dim": 4})
        out = tmp_path / "o"
        code = main(["online", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert "regret_ok" not in manifest
        header = (out / "online.csv").read_text().splitlines()[0]
        assert header == "t,loss,cum_grad_dual_norm,regret"

    def test_huge_finite_base_runs(self, tmp_path, capsys):
        """||(1e300, 0)||_2 = 1e300 is finite although its square is not."""
        config = {"set": {"family": "lp", "p": 2.0, "radius": 1.0, "dim": 2},
                  "stream": {"tag": "adversarial", "base": [1e300, 0.0], "flip_scale": 0.5, "seed": 0},
                  "T": 100}
        out = tmp_path / "o"
        code = main(["online", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["M_loss"] == 1e300 and not manifest["degenerate"]
        assert (out / "online.csv").exists()


class TestEnvSeed:
    def test_overrides_verify_seed(self, capsys, monkeypatch):
        def run(env_seed):
            if env_seed is None:
                monkeypatch.delenv("UCFW_SEED", raising=False)
            else:
                monkeypatch.setenv("UCFW_SEED", str(env_seed))
            code = main(
                ["verify", "--set", L3_SET, "--check", "definition1",
                 "--pairs", "50", "--directions", "10", "--seed", "0"]
            )
            assert code == EXIT_OK
            return json.loads(capsys.readouterr().out)

        base = run(None)
        same = run(0)
        other = run(12345)
        assert same["config"]["seed"] == 0
        assert other["config"]["seed"] == 12345
        assert base["config"]["seed"] == 0

    def test_non_integer_seed_is_error(self, monkeypatch):
        monkeypatch.setenv("UCFW_SEED", "abc")
        code = main(["verify", "--set", L3_SET, "--check", "definition1"])
        assert code == EXIT_ERROR


class TestNonFiniteDescriptors:
    """NaN and infinite descriptor values are config errors: exit 2 with a
    one-line message naming the field, and no trace written."""

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("objective", "x0_scale", float("nan")),
            ("objective", "x0_scale", float("inf")),
            ("objective", "cond", float("nan")),
            ("objective", "cond", float("inf")),
            ("set", "radius", float("nan")),
            ("set", "radius", float("inf")),
        ],
    )
    def test_solve_rejects(self, tmp_path, capsys, section, field, value):
        config = json.loads(json.dumps(TestSolveVerb.CONFIG))
        config[section][field] = value
        out = tmp_path / "run"
        code = main(["solve", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1
        assert not (out / "trace.csv").exists()

    def test_solve_rejects_overflowing_objective(self, tmp_path, capsys, recwarn):
        config = json.loads(json.dumps(TestSolveVerb.CONFIG))
        config["objective"]["x0_scale"] = 1e200  # finite, but f overflows on the set
        out = tmp_path / "run"
        code = main(["solve", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x0_scale" in err and err.count("\n") == 1
        assert not (out / "trace.csv").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "desc, field",
        [
            ({"family": "lp", "p": 3.0, "radius": float("nan"), "dim": 3}, "radius"),
            ({"family": "l1", "radius": float("nan"), "dim": 3}, "radius"),
            ({"family": "l1", "radius": float("inf"), "dim": 3}, "radius"),
            ({"family": "schatten", "p": 2.5, "rows": 2, "cols": 2, "radius": float("inf")}, "radius"),
            ({"family": "levelset", "kind": "sqnorm", "w": float("nan"), "dim": 3}, "w"),
            ({"family": "levelset", "w": 4, "dim": 0}, "dim"),
        ],
    )
    def test_verify_rejects_set(self, capsys, desc, field):
        code = main(
            ["verify", "--set", json.dumps(desc), "--check", "definition1",
             "--alpha", "0.1", "--q", "2.0", "--pairs", "20", "--directions", "5"]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1


class TestConfigFields:
    """A malformed solve or online field exits 2 with one error line that
    names the field, and writes no trace."""

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"T": 3.7}, "T must be an integer >= 1"),
            ({"T": True}, "T must be an integer >= 1"),
            ({"T": "5"}, "T must be an integer >= 1"),
            ({"T": 1e30}, "T must be an integer >= 1"),
            ({"seed": 2.9}, "seed must be an integer >= 0"),
            ({"stop_gap": -1}, "stop_gap must be a finite number >= 0"),
            ({"stop_gap": "nan"}, "stop_gap must be a finite number >= 0"),
            ({"stop_gap": float("nan")}, "stop_gap must be a finite number >= 0"),
            ({"rule": ["short"]}, "rule must be one of deterministic, short, exact"),
            ({"set": {"family": "lp", "p": 3.0, "radius": 1.0, "dim": 5}},
             "objective dim 4 does not match set dim 5"),
        ],
        ids=["T-float", "T-bool", "T-string", "T-1e30", "seed-float", "stop_gap-negative",
             "stop_gap-string", "stop_gap-nan", "rule-list", "dim-mismatch"],
    )
    def test_solve_rejects(self, tmp_path, capsys, patch, message):
        out = tmp_path / "run"
        code = main(["solve", "--config", json.dumps(dict(TestSolveVerb.CONFIG, **patch)), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"T": "5"}, "T must be an integer >= 1"),
            ({"T": 3.7}, "T must be an integer >= 1"),
            ({"stream": dict(TestOnlineVerb.CONFIG["stream"], seed=2.9)}, "stream seed must be an integer >= 0"),
        ],
        ids=["T-string", "T-float", "seed-float"],
    )
    def test_online_rejects(self, tmp_path, capsys, patch, message):
        out = tmp_path / "online"
        code = main(["online", "--config", json.dumps(dict(TestOnlineVerb.CONFIG, **patch)), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (out / "online.csv").exists()


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's ucfw."""
    src = str(Path(ucfw.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)


class TestImportCost:
    def test_import_defers_scipy_and_thread_pools(self):
        """Neither scipy nor concurrent.futures loads at import."""
        code = "import sys, ucfw; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
        assert _run_python(code).stdout.strip() == "[]"


class TestNumpyOnlyRuntime:
    def test_every_verb_runs_without_scipy(self, tmp_path):
        """With scipy blocked, so that importing it raises, ucfw imports,
        the non-quadratic exact line search runs and every verb exits 0."""
        code = textwrap.dedent(f"""
            import json, sys
            sys.modules["scipy"] = None  # any scipy import now raises ImportError

            import numpy as np
            import ucfw
            from ucfw.cli import main

            class Quartic:
                def value(self, x):
                    return float(np.sum(x**4) + np.sum((x - 1.0) ** 2))

                def gradient(self, x):
                    return 4.0 * x**3 + 2.0 * (x - 1.0)

            f, x, d = Quartic(), np.zeros(2), np.array([1.0, 0.5])
            gamma = ucfw.exact_line_search(f, x, d, f.gradient(x))
            assert 0.0 < gamma < 1.0 and abs(np.dot(f.gradient(x + gamma * d), d)) < 1e-8, gamma

            out = {str(tmp_path)!r}
            solve = dict({TestSolveVerb.CONFIG!r}, rule="exact")
            online = {TestOnlineVerb.CONFIG!r}
            runs = [
                ["solve", "--config", json.dumps(solve), "--out", out + "/solve"],
                ["online", "--config", json.dumps(online), "--out", out + "/online"],
                ["suite", "online", "--out", out + "/suite_online"],
                ["verify", "--set", {L3_SET!r}, "--check", "definition1",
                 "--pairs", "50", "--directions", "10"],
            ]
            codes = [main(argv) for argv in runs]
            assert codes == [0, 0, 0, 0], codes
            print("ok")
        """)
        assert _run_python(code).stdout.splitlines()[-1] == "ok"
