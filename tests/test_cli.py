"""The command line entry point: verbs, exit codes, outputs."""

import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ucfw
from ucfw import experiments
from ucfw.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main

L3_SET = json.dumps({"family": "lp", "p": 3.0, "radius": 1.0, "dim": 4})


class TestVerifyVerb:
    def test_catalog_check_passes(self, capsys):
        code = main(
            ["verify", "--set", L3_SET, "--check", "definition1",
             "--pairs", "200"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_inflated_alpha_fails(self, capsys):
        code = main(
            ["verify", "--set", L3_SET, "--check", "definition1",
             "--alpha", "2.0", "--q", "3.0", "--pairs", "200"]
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
             "--alpha", alpha, "--q", q, "--pairs", "20"]
        )
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("check, name, worst", [
        ("definition1", "definition1", "nan"),
        ("lemma1", "lemma1_global_scaling", "inf"),
        ("local_scaling", "local_scaling", "inf"),
    ])
    def test_non_finite_worst_violation_exits_2(self, check, name, worst):
        """On an l3 ball of radius 1e150, ||x-y||^q overflows: the check
        found no verdict, so it exits 2 with one line and no numpy warning."""
        huge = json.dumps({"family": "lp", "p": 3.0, "radius": 1e150, "dim": 4})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run_cli(["verify", "--set", huge, "--check", check, "--pairs", "100"])
        assert code == EXIT_ERROR and out == ""
        assert err == f"error: {name}: worst violation is {worst}; numerical breakdown\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("p", ["3.0", "2.5"])
    def test_definition1_on_a_1x1_schatten_ball(self, capsys, p):
        """In one dimension half the boundary pairs have y = -x, so the
        midpoint c is 0 and its farthest point is rho times a unit point."""
        one = json.dumps({"family": "schatten", "p": float(p), "rows": 1, "cols": 1, "radius": 1.0})
        assert main(["verify", "--set", one, "--check", "definition1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_alpha_without_q_is_config_error(self):
        assert (
            main(["verify", "--set", L3_SET, "--check", "definition1", "--alpha", "1.0"])
            == EXIT_ERROR
        )

    @pytest.mark.parametrize("check", ["lemma1", "local_scaling", "lemma3"])
    @pytest.mark.parametrize("desc", [{"family": "lp", "p": 3.0, "radius": 1.0, "dim": 4},
                                      {"family": "l1", "radius": 1.0, "dim": 4}], ids=["l3", "l1"])
    def test_lemma_checks_report_the_override(self, capsys, desc, check):
        code = main(
            ["verify", "--set", json.dumps(desc), "--check", check,
             "--alpha", "0.1", "--q", "2", "--pairs", "50"]
        )
        assert code in (EXIT_OK, EXIT_VIOLATION)
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["alpha"], config["q"]) == (0.1, 2.0)

    @pytest.mark.parametrize("check", ["local_scaling", "lemma3"])
    def test_linf_ball_lemma_checks_pass(self, capsys, check):
        """The checks' reference optimum over the l-infinity ball is the
        Frank-Wolfe one, as over the l1 ball; the KKT solver needs finite p."""
        linf = json.dumps({"family": "lp", "p": "inf", "radius": 1.0, "dim": 4})
        code = main(["verify", "--set", linf, "--check", check, "--alpha", "0.1", "--q", "2", "--pairs", "50"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("p, dim", [(10.0, 100), (5.0, 100), (7.0, 30)])
    def test_ball_quadratic_lies_outside_high_p_balls(self, capsys, p, dim):
        """Three radii out in l2 along the ones vector is inside these
        balls; three radii out in their own norm is not, so c > 0."""
        ball = json.dumps({"family": "lp", "p": p, "radius": 1.0, "dim": dim})
        assert main(["verify", "--set", ball, "--check", "lemma3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["config"]["c"] > 0.0
        assert main(["verify", "--set", ball, "--check", "local_scaling", "--pairs", "200"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_set_without_alpha_q_needs_overrides(self, capsys):
        l1 = json.dumps({"family": "l1", "radius": 1.0, "dim": 4})
        assert main(["verify", "--set", l1, "--check", "lemma3"]) == EXIT_ERROR
        assert "pass --alpha/--q" in capsys.readouterr().err


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
        assert set(manifest) == {
            "files", "csv", "rows", "stopped_at", "final_min_fw_gap", "f_star_certificate",
        }
        assert manifest["rows"] == manifest["stopped_at"] + 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == manifest
        assert printed["final_min_fw_gap"] >= 0.0

    @pytest.mark.parametrize("tiny", [4.3e-236, 5e-324], ids=["squares-underflow", "subnormal"])
    def test_tiny_explicit_direction_runs(self, tmp_path, capsys, tiny):
        """A direction whose squared norm underflows, or whose norm is
        subnormal, still scales x0 to x0_scale, without numpy warnings."""
        config = json.loads(json.dumps(self.CONFIG))
        config["set"]["dim"] = config["objective"]["dim"] = 2
        config["objective"]["x0_direction"] = [tiny, 0.0]
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", json.dumps(config), "--out", str(out)])
        assert code == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("rule", ["short", "exact", "deterministic"])
    def test_linf_ball_runs_without_overlays(self, tmp_path, capsys, rule):
        """The l-infinity ball has no (alpha, q): its run takes the
        Frank-Wolfe reference and gets no bound columns and no constants,
        and its sidecar writes p as the string "inf"."""
        config = dict(self.CONFIG, rule=rule, set={"family": "lp", "p": "inf", "radius": 1.0, "dim": 4})
        out = tmp_path / "run"
        assert main(["solve", "--config", json.dumps(config), "--out", str(out)]) == EXIT_OK
        header = (out / "trace.csv").read_text().splitlines()[0].split(",")
        assert not [column for column in header if column.startswith("bound_t")]
        sidecar = json.loads((out / "trace.json").read_text())
        assert "constants" not in sidecar
        assert sidecar["set"] == {"family": "lp", "p": "inf", "radius": 1.0, "dim": 4}
        assert json.loads(capsys.readouterr().out)["stopped_at"] >= 1

    @pytest.mark.parametrize("rule", ["short", "exact"])
    def test_lp_ball_near_p1_runs(self, tmp_path, capsys, rule):
        """At p = 1.001 Theorem 2's q = 2 factor rounds to 1: the run exits
        0, and its T2 column is the flat envelope h_t <= h_anchor, which
        the run's primal gaps keep."""
        config = {
            "set": {"family": "lp", "p": 1.001, "radius": 1.0, "dim": 8},
            "objective": {"family": "quadratic", "dim": 8, "cond": 100.0,
                          "x0_direction": "ones", "x0_scale": 3.0},
            "rule": rule,
            "T": 1000,
        }
        out = tmp_path / "run"
        assert main(["solve", "--config", json.dumps(config), "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        anchor = json.loads((out / "trace.json").read_text())["t2_anchor"]
        h = [float(row["primal_gap"]) for row in rows[anchor:]]
        assert {float(row["bound_t2"]) for row in rows[anchor:]} == {h[0]}
        assert max(h) == h[0]
        assert json.loads(capsys.readouterr().out)["rows"] == len(rows)

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

    def test_online_run_over_its_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        """One run whose ``pass`` is false makes the suite's ``pass`` false,
        and the suite exits 1 through the same rule as every verb."""
        real = experiments.ftl_experiment

        def ftl_experiment(feasible, *args):
            record = real(feasible, *args)
            return {**record, "pass": record["pass"] and feasible.p != 3.0}

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        monkeypatch.setattr(experiments, "ftl_experiment", ftl_experiment)
        out = tmp_path / "online"
        assert main(["suite", "online", "--out", str(out)]) == EXIT_VIOLATION
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"suite": "online", "pass": False, "out": str(out)}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert [run["pass"] for run in manifest["runs"]] == [True, True, False, True]


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


class TestStrictJson:
    def test_every_output_parses_without_nan_or_infinity(self, tmp_path, monkeypatch):
        """Every JSON file and every stdout of solve, online, verify and the
        four suites, at small sizes, parses with NaN and Infinity refused.
        fig2's horizon of 8 leaves no point in its slope window [10, T], so
        each run's ``min_gap_slope`` is null."""
        small = {
            "run_fig2": dict(dim=6, horizon=8),
            "run_online_suite": dict(T=200),
            "run_bounds_grid": dict(steps=1000),
            "run_verify_all": dict(n_pairs=50),
        }
        for name, kwargs in small.items():
            monkeypatch.setattr(experiments, name, functools.partial(getattr(experiments, name), **kwargs))
        runs = [
            ["solve", "--config", json.dumps(TestSolveVerb.CONFIG), "--out", str(tmp_path / "solve")],
            ["online", "--config", json.dumps(TestOnlineVerb.CONFIG), "--out", str(tmp_path / "online")],
            *[["verify", "--set", L3_SET, "--check", check, "--pairs", "50"] for check in _CHECKS],
            *[["suite", tag, "--out", str(tmp_path / "suite" / tag)] for tag in ("fig2", "online", "verify_all", "bounds_grid")],
        ]
        for argv in runs:
            code, out, err = _run_cli(argv)
            assert code == EXIT_OK, (argv, err)
            json.loads(out, parse_constant=_refuse_constant)
        files = sorted(tmp_path.rglob("*.json"))
        # solve 2, online 1; the suites: fig2 31, online 1, verify_all 2, bounds_grid 1
        assert len(files) == 38
        for path in files:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        fig2 = json.loads((tmp_path / "suite" / "fig2" / "manifest.json").read_text())
        assert [run["min_gap_slope"] for run in fig2["runs"]] == [None] * 30


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
        assert manifest["pass"] is True
        assert manifest["final_regret"] <= manifest["final_bound"]
        assert manifest["csv"] == "online.csv" and manifest["T"] == 500
        assert (out / "online.csv").exists()

    @pytest.mark.parametrize("w", [0.25, 4.0, 9.0])
    def test_level_set_regret_within_bound(self, tmp_path, capsys, w):
        """A level set is the l2 ball of radius sqrt(w): FTL runs on its LMO
        and stays under the level-set Theorem-4 bound."""
        config = dict(self.CONFIG, set={"family": "levelset", "kind": "sqnorm", "w": w, "dim": 4})
        out = tmp_path / "online"
        assert main(["online", "--config", json.dumps(config), "--out", str(out)]) == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["pass"] is True and not manifest["degenerate"]
        header = (out / "online.csv").read_text().splitlines()[0]
        assert header == "t,loss,cum_grad_dual_norm,regret,bound"

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
        [{"family": "lp", "p": 2000, "radius": 1.0, "dim": 4}],  # alpha underflows
        ids=["p2000"],
    )
    def test_runtime_error_exits_2_without_traceback(self, tmp_path, capsys, set_desc):
        config = dict(self.CONFIG, set=set_desc)
        code = main(["online", "--config", json.dumps(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unexpected_exception_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch):
        """An exception outside the package's own errors is a runtime error
        too: exit 2 with one line naming its type, never exit 1."""

        def run_ftl(*args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(experiments, "run_ftl", run_ftl)
        code = main(["online", "--config", json.dumps(self.CONFIG), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: RuntimeError: unexpected\n"

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
        assert "pass" not in manifest and "final_bound" not in manifest
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
                 "--pairs", "50", "--seed", "0"]
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--set", L3_SET, "--check", "definition1", "--pairs", "20"],
            ["solve", "--config", json.dumps(TestSolveVerb.CONFIG)],
            ["online", "--config", json.dumps(TestOnlineVerb.CONFIG)],
            ["suite", "online"],
        ],
        ids=["verify", "solve", "online", "suite"],
    )
    def test_negative_env_seed_is_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("UCFW_SEED", "-1")
        code = main([*argv, *(["--out", str(tmp_path / "out")] if argv[0] != "verify" else [])])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: UCFW_SEED must be an integer >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--set", L3_SET, "--check", "definition1", "--seed", "-1"],
            ["suite", "online", "--seed", "-1"],
        ],
        ids=["verify", "suite"],
    )
    def test_negative_flag_seed_is_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.delenv("UCFW_SEED", raising=False)
        code = main([*argv, *(["--out", str(tmp_path / "out")] if argv[0] == "suite" else [])])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "out").exists()


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
            ({"family": "lp", "p": 3.0, "radius": 1.0, "dim": 2.9}, "dim"),
            ({"family": "lp", "p": 3.0, "radius": 1.0, "dim": True}, "dim"),
            ({"family": "l1", "radius": 1.0, "dim": 3.5}, "dim"),
            ({"family": "schatten", "p": 2.5, "rows": 2.5, "cols": 2, "radius": 1.0}, "rows"),
            ({"family": "schatten", "p": 2.5, "rows": 2, "cols": True, "radius": 1.0}, "cols"),
            ({"family": "levelset", "w": 4, "dim": 3.5}, "dim"),
        ],
    )
    def test_verify_rejects_set(self, capsys, desc, field):
        code = main(
            ["verify", "--set", json.dumps(desc), "--check", "definition1",
             "--alpha", "0.1", "--q", "2.0", "--pairs", "20"]
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
            ({"set": {"family": "lp", "p": 3.0, "radius": 1.0, "dim": 4.7},
              "objective": dict(TestSolveVerb.CONFIG["objective"], dim=4.2)},
             "dim must be an integer >= 1, got 4.7"),
            ({"objective": dict(TestSolveVerb.CONFIG["objective"], dim=4.2)},
             "dim must be an integer >= 1, got 4.2"),
            ({"objective": dict(TestSolveVerb.CONFIG["objective"], dim=True)},
             "dim must be an integer >= 1, got True"),
            # integers that numpy refuses to allocate before it tries
            ({"T": 10**30}, f"T = {10**30} is too large to allocate"),
            ({"T": 2**62}, f"T = {2**62} is too large to allocate"),
            ({"objective": "quad"}, "bad objective descriptor: string indices must be integers"),
            ({"objective": dict(TestSolveVerb.CONFIG["objective"], cond="x")},
             "bad objective descriptor: could not convert string to float: 'x'"),
        ],
        ids=["T-float", "T-bool", "T-string", "T-1e30", "seed-float", "stop_gap-negative",
             "stop_gap-string", "stop_gap-nan", "rule-list", "dim-mismatch", "dims-float",
             "objective-dim-float", "objective-dim-bool", "T-int-10**30", "T-int-2**62",
             "objective-string", "cond-string"],
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
            ({"T": 10**30}, f"T = {10**30} is too large to allocate"),
            ({"T": 2**62}, f"T = {2**62} is too large to allocate"),
            ({"stream": "adv"}, "bad stream descriptor: string indices must be integers"),
            ({"stream": dict(TestOnlineVerb.CONFIG["stream"], flip_scale="x")},
             "bad stream descriptor: could not convert string to float: 'x'"),
            ({"stream": {"tag": "drifting", "base": [1.0, 0.0, 0.0, 0.0], "noise_scale": "x", "seed": 0}},
             "bad stream descriptor: could not convert string to float: 'x'"),
            # no direction is perpendicular to a non-zero 1-D base
            ({"set": {"family": "lp", "p": 3.0, "radius": 1.0, "dim": 1},
              "stream": dict(TestOnlineVerb.CONFIG["stream"], base=[1.0])},
             "an adversarial stream needs a kick direction perpendicular to its base"),
        ],
        ids=["T-string", "T-float", "seed-float", "T-int-10**30", "T-int-2**62", "stream-string",
             "flip_scale-string", "noise_scale-string", "adversarial-1d"],
    )
    def test_online_rejects(self, tmp_path, capsys, patch, message):
        out = tmp_path / "online"
        code = main(["online", "--config", json.dumps(dict(TestOnlineVerb.CONFIG, **patch)), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (out / "online.csv").exists()


MISSING = object()  # a config field left out


def _field(valid, *invalid):
    """A config field: mostly a valid value, else one of ``invalid`` (a
    wrong type, an out-of-range value or MISSING)."""
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(invalid) if k == 10 else valid)


def _present(desc):
    """``desc`` without its MISSING fields, at every depth."""
    if isinstance(desc, dict):
        return {k: _present(v) for k, v in desc.items() if v is not MISSING}
    return desc


_NUMBER_FAULTS = (-1.0, 0.0, float("nan"), float("inf"), 1e300, "1", None, MISSING)


@st.composite
def _set_desc(draw, dim, families):
    return {
        "family": draw(_field(st.sampled_from(families), "bogus", 3, MISSING)),
        "p": draw(_field(st.floats(1.05, 12.0), 1.0, 0.5, *_NUMBER_FAULTS)),
        "radius": draw(_field(st.floats(0.1, 10.0), *_NUMBER_FAULTS)),
        "w": draw(_field(st.floats(0.1, 10.0), *_NUMBER_FAULTS)),
        "dim": draw(_field(st.just(dim), dim + 1, 0, 2.5, True, "3", None, MISSING)),
        "rows": 1,
        "cols": draw(_field(st.just(dim), 0, 1.5, MISSING)),
    }


def _vector(dim):
    return _field(
        st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim),
        [1.0] * (dim + 1), [0.0] * dim, [float("nan")] * dim, [1e300] * dim, "ones", None, MISSING,
    )


@st.composite
def _solve_configs(draw):
    dim = draw(st.integers(1, 5))
    return _present({
        # solve drives lp balls and refuses the other families
        "set": draw(_field(_set_desc(dim, ["lp"] * 6 + ["l1", "schatten", "levelset"]), None, MISSING)),
        "objective": {
            "family": draw(_field(st.just("quadratic"), "bogus", MISSING)),
            "dim": draw(_field(st.just(dim), dim + 1, 0, 4.2, True, MISSING)),
            "cond": draw(_field(st.floats(1.0, 1e4), 0.5, *_NUMBER_FAULTS)),
            "x0_direction": draw(st.one_of(st.sampled_from(["ones", "e1"]), _vector(dim))),
            "x0_scale": draw(_field(st.floats(0.01, 100.0), *_NUMBER_FAULTS)),
        },
        "rule": draw(_field(st.sampled_from(["deterministic", "short", "exact"]), "bogus", ["short"], 3, MISSING)),
        "T": draw(_field(st.integers(1, 50), 0, -3, 2.5, "5", True, None, MISSING)),
        "seed": draw(_field(st.integers(0, 2**32), -1, 1.5, "0", None, MISSING)),
        "stop_gap": draw(_field(
            st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), -1.0, float("nan"), float("inf"), "x", MISSING,
        )),
    })


@st.composite
def _online_configs(draw):
    dim = draw(st.integers(1, 5))
    n_losses = draw(st.integers(0, 50))
    return _present({
        "set": draw(_field(_set_desc(dim, ["lp", "lp", "l1", "schatten", "levelset"]), None, MISSING)),
        "stream": {
            "tag": draw(_field(st.sampled_from(["adversarial", "drifting", "fixed"]), "bogus", None, MISSING)),
            "base": draw(_vector(dim)),
            "flip_scale": draw(_field(st.floats(-2.0, 2.0), *_NUMBER_FAULTS)),
            "noise_scale": draw(_field(st.floats(0.0, 2.0), *_NUMBER_FAULTS)),
            "seed": draw(_field(st.integers(0, 2**32), -1, 1.5, "0", None, MISSING)),
            "losses": draw(_field(
                st.lists(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
                         min_size=n_losses, max_size=n_losses),
                [[1e308] * dim] * 3, [[1.0] * (dim + 1)], [], "x", MISSING,
            )),
        },
        "T": draw(_field(st.integers(1, 50), 0, -3, 2.5, "5", True, None, MISSING)),
    })


_CHECKS = ["definition1", "lemma1", "local_scaling", "lemma3"]
_OVERRIDES = {
    flag: _field(valid, -1.0, 0.0, float("nan"), float("inf"))
    for flag, valid in (("--alpha", st.floats(0.01, 100.0)), ("--q", st.floats(2.0, 6.0)))
}


@st.composite
def _verify_argvs(draw):
    dim = draw(st.integers(1, 5))
    argv = [
        "verify",
        "--set", json.dumps(_present(draw(_set_desc(dim, ["lp", "lp", "l1", "schatten", "levelset"])))),
        "--check", draw(st.sampled_from(_CHECKS)),
        "--pairs", str(draw(_field(st.integers(1, 50), 0, -1))),
        "--seed", str(draw(_field(st.integers(0, 2**32), -1))),
    ]
    # catalog constants, both overrides, or only one of them (an error)
    for flag in draw(st.sampled_from([(), ("--alpha", "--q"), ("--alpha",), ("--q",)])):
        argv += [flag, repr(draw(_OVERRIDES[flag]))]
    return argv


def _not_a_seed(text: str) -> bool:
    """True when ``UCFW_SEED=text`` is refused: not an integer, or below 0."""
    try:
        return int(text) < 0
    except ValueError:
        return True


# --seed and UCFW_SEED values that fail before a suite runs: a negative
# flag alone, or an environment value that is no integer >= 0
_BAD_SEEDS = st.one_of(
    st.tuples(st.just("--seed"), st.integers(max_value=-1).map(str)),
    st.tuples(st.just("UCFW_SEED"), st.text("0123456789+-_. e", max_size=6).filter(_not_a_seed)),
)


def _run_cli(argv: list) -> tuple[int, str, str]:
    """``main(argv)`` in-process, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(verb: str, config: dict, csv_name: str, column: str) -> None:
    """Exit 0, 1 or 2 and no traceback; exit 2 is one ``error:`` line; a
    written CSV has no NaN in ``column``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, _, err = _run_cli([verb, "--config", json.dumps(config), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_ERROR)
        assert "Traceback" not in err
        if code == EXIT_ERROR:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if (out / csv_name).exists():
            with open(out / csv_name, newline="") as fh:
                cells = [float(row[column]) for row in csv.DictReader(fh)]
            assert not any(math.isnan(c) for c in cells), column


class TestFailureContract:
    """Valid, wrongly typed, out-of-range and missing config fields, run
    through the CLI in-process, keep the exit-code contract."""

    @given(config=_solve_configs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_solve(self, config):
        _assert_contract("solve", config, "trace.csv", "fw_gap")

    @given(config=_online_configs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_online(self, config):
        _assert_contract("online", config, "online.csv", "regret")

    @given(argv=_verify_argvs())
    @example(argv=["verify", "--set", L3_SET, "--check", "definition1", "--alpha", "2.0", "--q", "3.0",
                   "--pairs", "50"])  # an inflated alpha: exit 1
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_verify(self, argv):
        """Exit 1 only with a printed report whose ``pass`` is false, and
        exit 0 only with one whose ``pass`` is true."""
        with mock.patch.dict(os.environ):
            os.environ.pop("UCFW_SEED", None)
            code, out, err = _run_cli(argv)
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_ERROR)
        assert "Traceback" not in err
        if code == EXIT_ERROR:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
            assert json.loads(out)["pass"] is (code == EXIT_OK)

    @given(tag=st.sampled_from(["fig2", "online", "verify_all", "bounds_grid"]), seed=_BAD_SEEDS)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_suite_bad_seed(self, tag, seed):
        """A refused seed exits 2 with one line naming its source, before
        the suite writes anything."""
        source, value = seed
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            out = Path(tmp) / "out"
            argv = ["suite", tag, "--out", str(out)]
            if source == "--seed":
                os.environ.pop("UCFW_SEED", None)
                argv += ["--seed", value]
            else:
                os.environ["UCFW_SEED"] = value
            code, printed, err = _run_cli(argv)
            assert code == EXIT_ERROR
            assert printed == "" and err.startswith(f"error: {source} must be an integer") and err.count("\n") == 1
            assert not out.exists()


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
        """With scipy blocked, so that importing it raises, ucfw imports
        and every verb exits 0."""
        code = textwrap.dedent(f"""
            import json, sys
            sys.modules["scipy"] = None  # any scipy import now raises ImportError

            import ucfw
            from ucfw.cli import main

            out = {str(tmp_path)!r}
            solve = dict({TestSolveVerb.CONFIG!r}, rule="exact")
            online = {TestOnlineVerb.CONFIG!r}
            runs = [
                ["solve", "--config", json.dumps(solve), "--out", out + "/solve"],
                ["online", "--config", json.dumps(online), "--out", out + "/online"],
                ["suite", "online", "--out", out + "/suite_online"],
                ["verify", "--set", {L3_SET!r}, "--check", "definition1",
                 "--pairs", "50"],
            ]
            codes = [main(argv) for argv in runs]
            assert codes == [0, 0, 0, 0], codes
            print("ok")
        """)
        assert _run_python(code).stdout.splitlines()[-1] == "ok"
