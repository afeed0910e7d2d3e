"""Fast tests of the benchmark's independent checkers.

    python3 -m pytest perfbench -q
"""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from ucfw import LpBall, QuadraticObjective, StepRule, adversarial_stream, run_fw, run_ftl  # noqa: E402


def _brute_force_2d(a, x0, p, r, n=400_001):
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts *= r / checks.lp_norms(pts, p)[:, None]
    return float((0.5 * ((pts - x0) ** 2) @ a).min())


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
def test_kkt_optimum_matches_brute_force(p):
    a = np.array([1.0, 7.0])
    x0 = np.array([2.5, -1.5])
    x, f = checks.kkt_optimum(a, x0, p, 1.0)
    brute = _brute_force_2d(a, x0, p, 1.0)
    assert checks.lp_norms(x, p) <= 1.0 + 1e-15
    assert f <= brute + 1e-12
    assert brute - f < 1e-8 * brute


def test_kkt_optimum_closed_forms():
    a = np.array([2.0, 3.0, 4.0])
    inside = np.array([0.1, -0.2, 0.3])
    assert checks.kkt_optimum(a, inside, 3.0, 1.0)[1] == 0.0
    x, f = checks.kkt_optimum(a, np.array([0.0, -4.0, 0.0]), 3.0, 1.0)
    np.testing.assert_array_equal(x, [0.0, -1.0, 0.0])
    assert f == 0.5 * 3.0 * 9.0


def _write_csv(path, cols):
    names = list(cols)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        for i in range(len(cols[names[0]])):
            w.writerow([repr(float(cols[n][i])) for n in names])


@pytest.fixture
def fw_run(tmp_path):
    ball = LpBall(p=3.0, radius=1.0, dim=5)
    a = np.linspace(1.0, 10.0, 5)
    x0 = np.full(5, 2.0)
    f = QuadraticObjective(A=a, x0=x0)
    f_opt = checks.kkt_optimum(a, x0, 3.0, 1.0)[1]
    x_init = ball.lmo(np.ones(5))
    trace = run_fw(ball, f, x_init, StepRule.deterministic(), 300, f_star=f_opt)
    trace.to_csv(tmp_path / "t.csv")
    trace.write_sidecar(tmp_path / "t.json")
    return tmp_path / "t.csv", tmp_path / "t.json", f_opt


def test_fw_run_passes(fw_run):
    assert checks.check_fw_run(*fw_run, "deterministic") == []


@pytest.mark.parametrize("column, row, value", [
    ("fw_gap", 250, 0.0),  # below the true primal gap
    ("min_fw_gap", 100, 1.0),  # not the running minimum
    ("gamma", 10, 0.5),  # not 1/(t+1)
])
def test_perturbed_trace_fails(fw_run, column, row, value):
    csv_path, sidecar, f_opt = fw_run
    cols = checks.read_csv(csv_path)
    cols[column][row] = value
    _write_csv(csv_path, cols)
    assert checks.check_fw_run(csv_path, sidecar, f_opt, "deterministic")


def test_wrong_f_star_fails(fw_run):
    csv_path, sidecar, f_opt = fw_run
    assert checks.check_fw_run(csv_path, sidecar, f_opt * (1.0 + 1e-9), "deterministic")


@pytest.fixture
def ftl_run(tmp_path):
    ball = LpBall(p=3.0, radius=1.0, dim=4)
    stream = adversarial_stream(np.array([1.0, 0.0, 0.0, 0.0]), flip_scale=0.5, seed=5)
    x1 = np.array([0.3, -0.2, 0.5, 0.1])
    x1 = x1 / checks.lp_norms(x1, 3.0)
    trace = run_ftl(ball, stream, 300, x1_policy=x1)
    uc = ball.uc_params()
    trace.to_csv(tmp_path / "o.csv", bound=trace.bound_curve(uc.alpha, uc.q))
    return tmp_path / "o.csv", trace, stream.materialize(300), x1


def test_ftl_recomputation_matches_run_ftl(ftl_run):
    csv_path, trace, C, x1 = ftl_run
    mine = checks.ftl_columns(C, 3.0, 1.0, x1)
    np.testing.assert_allclose(mine["regret"], trace.regret, rtol=1e-9, atol=1e-9)
    assert checks.check_ftl_run(csv_path, C, 3.0, 1.0, x1) == []


@pytest.mark.parametrize("column", ["regret", "loss"])
def test_perturbed_regret_fails(ftl_run, column):
    csv_path, _, C, x1 = ftl_run
    cols = checks.read_csv(csv_path)
    cols[column][150] += 1e-6
    _write_csv(csv_path, cols)
    assert checks.check_ftl_run(csv_path, C, 3.0, 1.0, x1)


def test_verify_report_counts_silent_negative_control():
    pos = {"check": "definition1", "pass": True, "worst_violation": 0.0, "config": {"tol": 1e-9}}
    neg = {"check": "definition1", "pass": False, "worst_violation": 0.5, "config": {"tol": 1e-9}}
    silent = dict(neg, **{"pass": True, "worst_violation": 0.0})
    report = {"positive": [pos], "negative": [neg, silent]}
    failures = [bool(e) for e in checks.check_verify_report(report, 2, 2)]
    assert failures == [False, True, False, True]  # missing positive, silent control
