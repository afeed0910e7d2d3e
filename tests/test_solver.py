"""The Frank-Wolfe loop: step rules, trace invariants, serialization."""

import csv
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucfw import (
    FeasibleSet,
    InfeasibleStart,
    InvalidParams,
    L1Ball,
    LpBall,
    QuadraticObjective,
    RunTrace,
    SchattenBall,
    StepRule,
    UCFWError,
    ZeroDirection,
    exact_line_search,
    fw_gap_at,
    grad_floor_quadratic,
    reference_optimum,
    run_fw,
    short_step,
)
import ucfw
from ucfw import solver
from ucfw.experiments import fit_loglog_slope, problem_constants, x_init_for
from ucfw.geometry import _BLOCK, _block_rows, lp_norm


class TestShortStep:
    def test_converged(self):
        assert short_step(0.0, 1.0, 1.0) == 0.0

    def test_clipped(self):
        assert short_step(2.0, 1.0, 1.0) == 1.0

    def test_interior(self):
        assert short_step(0.5, 2.0, 1.0) == 0.25

    def test_degenerate_direction(self):
        assert short_step(0.5, 1.0, 0.0) == 1.0

    @given(
        gap=st.floats(0.0, 1e6),
        L=st.floats(1e-6, 1e6),
        dsq=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, gap, L, dsq):
        assert 0.0 <= short_step(gap, L, dsq) <= 1.0


class TestExactLineSearch:
    def test_clamped_to_one(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 0.0]))
        assert exact_line_search(f, np.zeros(2), np.array([1.0, 0.0]), f.gradient(np.zeros(2))) == 1.0

    def test_zero_direction(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 0.0]))
        assert exact_line_search(f, np.zeros(2), np.zeros(2), f.gradient(np.zeros(2))) == 0.0

    def test_interior_minimizer(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([0.5, 0.0]))
        assert exact_line_search(f, np.zeros(2), np.array([1.0, 0.0]), f.gradient(np.zeros(2))) == pytest.approx(0.5)

    def test_matches_numeric_search_for_nonquadratic(self):
        class Quartic:
            L = 12.0
            mu_sc = None
            heb = None
            grad_floor = None

            def value(self, x):
                return float(np.sum(x**4) + np.sum((x - 1.0) ** 2))

            def gradient(self, x):
                return 4.0 * x**3 + 2.0 * (x - 1.0)

        f = Quartic()
        x = np.zeros(2)
        d = np.array([1.0, 0.5])
        gamma = exact_line_search(f, x, d, f.gradient(x))
        # returned point must beat the endpoints and the short step
        for other in (0.0, 1.0, short_step(-np.dot(f.gradient(x), d), f.L, np.dot(d, d))):
            assert f.value(x + gamma * d) <= f.value(x + other * d) + 1e-12

    def test_analytic_matches_numeric_on_quadratic(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(12)
        f = QuadraticObjective(A=np.array([1.0, 5.0, 0.3]), x0=rng.standard_normal(3))
        for _ in range(20):
            x, d = rng.standard_normal(3), rng.standard_normal(3)
            gamma = exact_line_search(f, x, d, f.gradient(x))
            res = minimize_scalar(
                lambda g: f.value(x + g * d), bounds=(0.0, 1.0), method="bounded",
                options={"xatol": 1e-12},
            )
            # bounded Brent stops short of the interval endpoints
            assert gamma == pytest.approx(float(np.clip(res.x, 0, 1)), abs=1e-6)


def _projection_problem():
    ball = LpBall(p=2.0, radius=1.0, dim=2)
    f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 0.0]))
    return ball, f


class TestRunFw:
    def test_start_at_interior_optimum(self):
        ball = LpBall(p=2.0, radius=5.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([1.0, 0.0]))
        trace = run_fw(ball, f, np.array([1.0, 0.0]), StepRule.short(), 50)
        assert len(trace) == 1
        assert trace.fw_gap[0] == 0.0

    def test_projection_onto_disk(self):
        ball, f = _projection_problem()
        trace = run_fw(
            ball, f, np.array([0.0, 1.0]), StepRule.short(), 200,
            x_star=np.array([1.0, 0.0]), f_star=0.5, keep_points=True,
        )
        assert trace.primal_gap[-1] <= 1e-6
        assert np.linalg.norm(trace.iterates[-1] - [1.0, 0.0]) <= 1e-3

    def test_deterministic_rule_sublinear_on_disk(self):
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 0.5]))
        trace = run_fw(ball, f, np.array([0.0, 1.0]), StepRule.deterministic(), 500)
        slope = fit_loglog_slope(trace.t, trace.min_fw_gap, 5, 500)
        assert -1.4 <= slope <= -0.6

    def test_infeasible_start(self):
        ball, f = _projection_problem()
        with pytest.raises(InfeasibleStart):
            run_fw(ball, f, np.array([2.0, 2.0]), StepRule.short(), 10)

    def test_gap_dominates_primal_gap(self):
        ball, f = _projection_problem()
        trace = run_fw(
            ball, f, np.array([0.0, 1.0]), StepRule.short(), 200,
            x_star=np.array([1.0, 0.0]), f_star=0.5,
        )
        assert np.all(trace.fw_gap + 1e-12 >= trace.primal_gap)

    def test_iterates_feasible_and_updates_convex(self):
        ball = LpBall(p=3.0, radius=1.0, dim=5)
        f = QuadraticObjective(A=np.linspace(1, 3, 5), x0=np.ones(5))
        trace = run_fw(ball, f, x_init_for(ball, 0), StepRule.exact(), 100, keep_points=True)
        assert ball.batch_membership_excess(trace.iterates).max() <= 1e-9
        for i in range(len(trace) - 1):
            g = trace.gamma[i]
            expect = (1 - g) * trace.iterates[i] + g * trace.vertices[i]
            np.testing.assert_allclose(trace.iterates[i + 1], expect, atol=1e-14)

    def test_monotone_descent_and_per_step_decrease(self):
        ball = LpBall(p=3.0, radius=1.0, dim=8)
        f = QuadraticObjective(A=np.ones(8), x0=np.ones(8))
        trace = run_fw(ball, f, x_init_for(ball, 1), StepRule.short(), 300,
                       x_star=None, f_star=None, keep_points=True)
        vals = np.array([f.value(x) for x in trace.iterates])
        assert np.all(np.diff(vals) <= 1e-12)
        for i in range(len(trace) - 1):
            g = trace.fw_gap[i]
            d = trace.vertices[i] - trace.iterates[i]
            dec = 0.5 * g * min(1.0, g / (f.L * float(np.dot(d, d)))) if np.any(d) else 0.0
            assert vals[i + 1] <= vals[i] - dec + 1e-12

    def test_distance_to_optimum_diagnostic(self):
        # ||x_t - x*||^q <= (2/(c alpha)) h_t on a gradient-floor problem
        ball = LpBall(p=3.0, radius=1.0, dim=8)
        f = QuadraticObjective(A=np.ones(8), x0=np.ones(8) * (3.0 / np.sqrt(8)))
        consts = problem_constants(ball, f)
        assert consts["c"] > 0.0
        x_init = x_init_for(ball, 0)
        x_star, f_star = reference_optimum(ball, f, x_init, 50_000, stop_gap=1e-15)
        trace = run_fw(ball, f, x_init, StepRule.short(), 2000,
                       x_star=x_star, f_star=f_star, keep_points=True)
        lhs = np.array([ball.norm(x - x_star) for x in trace.iterates]) ** consts["q"]
        rhs = (2.0 / (consts["c"] * consts["alpha"])) * trace.primal_gap
        assert np.all(lhs <= rhs + 1e-6)

    @pytest.mark.parametrize("rule", ["short", "exact"])
    def test_schatten_ball_on_flat_points(self, rule):
        # a 3x3 matrix ball whose points are row-major length-9 vectors
        ball = SchattenBall(p=2.5, rows=3, cols=3, radius=1.0)
        f = QuadraticObjective(A=np.ones(9), x0=3.0 * np.ones(9))
        x_init = x_init_for(ball, 0)
        assert x_init.shape == (9,)
        x_star, f_star = reference_optimum(ball, f, x_init, 25_000, stop_gap=1e-13)
        trace = run_fw(ball, f, x_init, StepRule(rule), 500, f_star=f_star, keep_points=True)
        assert ball.batch_membership_excess(trace.iterates).max() <= 1e-9
        assert trace.min_fw_gap[-1] < 1e-9 * trace.min_fw_gap[0]
        assert abs(trace.primal_gap[-1]) <= 1e-6
        np.testing.assert_allclose(trace.iterates[-1], x_star, rtol=0.0, atol=1e-6)


class TestTraceSerialization:
    def test_csv_byte_stable(self, tmp_path):
        ball, f = _projection_problem()
        trace = run_fw(ball, f, np.array([0.0, 1.0]), StepRule.short(), 50)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(a)
        trace.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "t,gamma,fw_gap,min_fw_gap,primal_gap,dist_to_vertex,grad_dual_norm"

    def test_identical_runs_bitwise(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        f = QuadraticObjective(A=np.linspace(1, 2, 6), x0=np.ones(6))
        t1 = run_fw(ball, f, x_init_for(ball, 3), StepRule.short(), 100, keep_points=True)
        t2 = run_fw(ball, f, x_init_for(ball, 3), StepRule.short(), 100, keep_points=True)
        np.testing.assert_array_equal(t1.iterates, t2.iterates)

    def test_sidecar(self, tmp_path):
        ball, f = _projection_problem()
        trace = run_fw(ball, f, np.array([0.0, 1.0]), StepRule.exact(), 10)
        trace.write_sidecar(tmp_path / "m.json")
        import json

        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["step_rule"] == "exact"
        assert meta["set"]["family"] == "lp"


class TestReferenceOptimum:
    def test_matches_analytic_projection(self):
        ball, f = _projection_problem()
        x_star, f_star = reference_optimum(ball, f, np.array([0.0, 1.0]), 10_000)
        assert np.linalg.norm(x_star - [1.0, 0.0]) <= 1e-5
        assert f_star == pytest.approx(0.5, abs=1e-9)


def best_iterate_fw(feasible, f, x_init, horizon, stop_gap=0.0):
    """The reference fallback's former hand-written loop: Frank-Wolfe with
    exact line search, keeping the best iterate seen."""
    x = np.array(x_init, dtype=float)
    best_x, best_f = x.copy(), f.value(x)
    for _ in range(horizon):
        g = f.gradient(x)
        try:
            v = feasible.lmo(-g)
        except ZeroDirection:
            break
        d = v - x
        fw_gap = float(np.dot(g, -d))
        if fw_gap <= stop_gap:
            break
        gamma = exact_line_search(f, x, d, g)
        if gamma <= 0.0:
            break
        x = (1.0 - gamma) * x + gamma * v
        fx = f.value(x)
        if fx < best_f:
            best_f, best_x = fx, x.copy()
    return best_x, best_f


class _CoarseValue(QuadraticObjective):
    """A full-matrix quadratic whose value oracle is rounded down to 1/8 and
    tilted by |x_0|: the values along the run tie, so the first iterate of
    least value comes well before the last."""

    def value(self, x):
        return float(np.floor(8.0 * (super().value(x) + abs(x[0])))) / 8.0


def _fallback_cases():
    rng = np.random.default_rng(8)
    l1_100 = L1Ball(radius=1.0, dim=100)
    x0_100 = 3.0 * rng.standard_normal(100) / np.sqrt(100)
    ball = LpBall(p=3.0, radius=1.0, dim=5)
    M = rng.standard_normal((5, 5))
    schatten = SchattenBall(2.5, 3, 3, 1.0)
    return {
        "l1-d2": (L1Ball(radius=1.0, dim=2), QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0])),
                  np.array([1.0, 0.0]), 50_000, 0.0),
        "l1-d100": (l1_100, QuadraticObjective(A=np.exp(rng.uniform(0.0, 3.0, 100)), x0=x0_100),
                    x_init_for(l1_100, 0), 3000, 1e-13),
        "lp-full-matrix": (ball, QuadraticObjective(A=M @ M.T + np.eye(5), x0=3.0 * rng.standard_normal(5)),
                           x_init_for(ball, 0), 2000, 1e-13),
        "lp-coarse-value": (ball, _CoarseValue(A=np.diag(np.linspace(1.0, 5.0, 5)), x0=3.0 * rng.standard_normal(5)),
                            x_init_for(ball, 0), 300, 1e-13),
        "schatten-3x3": (schatten, QuadraticObjective(A=np.linspace(1.0, 10.0, 9),
                                                      x0=2.0 * rng.standard_normal(9)),
                         x_init_for(schatten, 0), 2000, 0.0),
    }


FALLBACK_CASES = _fallback_cases()


class _GradientTurnsNaN(QuadraticObjective):
    """A quadratic whose gradient is NaN from its second call on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g if self.calls == 1 else np.full_like(g, np.nan)


class TestReferenceFallback:
    """Every problem without a KKT solution runs through run_fw and gets what
    the former best-iterate loop gave, bit for bit."""

    @pytest.mark.parametrize("name", FALLBACK_CASES)
    def test_matches_best_iterate_loop(self, name, monkeypatch):
        feasible, f, x_init, horizon, stop_gap = FALLBACK_CASES[name]
        calls = []
        monkeypatch.setattr(solver, "run_fw", lambda *a, **k: calls.append(1) or run_fw(*a, **k))
        x_star, f_star = reference_optimum(feasible, f, x_init, horizon, stop_gap=stop_gap)
        x_old, f_old = best_iterate_fw(feasible, f, x_init, horizon, stop_gap=stop_gap)
        assert calls == [1]
        assert x_star.tobytes() == x_old.tobytes()
        assert f_star == f_old and isinstance(f_star, float)

    def test_nan_gradient_raises(self):
        f = _GradientTurnsNaN(A=np.array([1.0, 2.0, 3.0]), x0=np.array([0.5, 3.0, -1.0]))
        with pytest.raises(UCFWError):
            reference_optimum(L1Ball(radius=2.0, dim=3), f, np.array([2.0, 0.0, 0.0]), 100)


def _bisection_optimum(a, x0, p, r):
    """min 1/2 sum a_i (x_i - x0_i)^2 over ||x||_p <= r by nested bisection:
    for a multiplier mu each |x_i| solves a_i (|x0_i| - y) = mu y^(p-1);
    sum y(mu)^p falls in mu, so bisect log mu until sum y^p = r^p."""
    b = np.abs(x0)

    def magnitudes(mu):
        lo, hi = np.zeros_like(b), b.copy()
        while True:
            mid = 0.5 * (lo + hi)
            if np.all((hi - lo <= 4e-16 * hi) | (mid == lo) | (mid == hi)):
                return lo
            pos = a * (b - mid) > mu * mid ** (p - 1.0)
            lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)

    t_lo, t_hi = -100.0, 100.0
    while t_hi - t_lo > 1e-13:
        t = 0.5 * (t_lo + t_hi)
        if np.sum((magnitudes(np.exp(t)) / r) ** p) > 1.0:
            t_lo = t
        else:
            t_hi = t
    x = np.sign(x0) * magnitudes(np.exp(t_hi))
    return x, 0.5 * float(np.dot(a, (x - x0) ** 2))


class TestKKTReference:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 3.0, 10.0, 20.0])
    @pytest.mark.parametrize("d", [2, 8, 100, 1000])
    def test_matches_bisection(self, p, d):
        rng = np.random.default_rng([int(10 * p), d])
        a = np.exp(rng.uniform(0.0, np.log(100.0), d))
        x0 = rng.standard_normal(d)
        x0[2:][rng.random(d - 2) < 0.2] = 0.0  # zero coordinates stay zero
        r = rng.uniform(0.5, 2.0)
        x0 *= rng.uniform(1.5, 4.0) * r / lp_norm(x0, p)
        ball = LpBall(p=p, radius=r, dim=d)
        f = QuadraticObjective(A=a, x0=x0)
        x_star, f_star = reference_optimum(ball, f, x_init_for(ball, 0), 10)
        _, f_bis = _bisection_optimum(a, x0, p, r)
        assert abs(f_star - f_bis) <= 1e-12 * f_bis
        assert f_star == f.value(x_star)
        assert ball.membership_excess(x_star) <= 0.0
        assert np.all(x_star[x0 == 0.0] == 0.0)
        assert fw_gap_at(ball, f, x_star) <= 1e-12 * f_star

    def test_interior_returns_x0(self):
        ball = LpBall(p=3.0, radius=2.0, dim=3)
        f = QuadraticObjective(A=np.array([1.0, 2.0, 3.0]), x0=np.array([0.5, -1.0, 0.0]))
        x_star, f_star = reference_optimum(ball, f, np.array([2.0, 0.0, 0.0]), 10)
        np.testing.assert_array_equal(x_star, f.x0)
        assert f_star == 0.0
        assert fw_gap_at(ball, f, x_star) == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_single_axis_closed_form(self, p):
        ball = LpBall(p=p, radius=5.0, dim=4)
        f = QuadraticObjective(A=np.array([2.0, 1.0, 3.0, 4.0]), x0=np.array([0.0, -15.0, 0.0, 0.0]))
        x_star, f_star = reference_optimum(ball, f, x_init_for(ball, 0), 10)
        np.testing.assert_array_equal(x_star, [0.0, -5.0, 0.0, 0.0])
        assert f_star == 0.5 * 1.0 * 10.0**2
        assert fw_gap_at(ball, f, x_star) == 0.0

    def test_non_finite_input_refused(self):
        ball = LpBall(p=3.0, radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([np.nan, 2.0]))
        with pytest.raises(InvalidParams):
            reference_optimum(ball, f, np.array([1.0, 0.0]), 10)

    def test_l1_ball_and_full_matrix_use_fw_fallback(self, monkeypatch):
        def no_kkt(*args):
            raise AssertionError("KKT path taken")

        monkeypatch.setattr(solver, "_lp_ball_quadratic_optimum", no_kkt)
        diamond = L1Ball(radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 1.0]))
        x_star, f_star = reference_optimum(diamond, f, np.array([1.0, 0.0]), 10_000)
        np.testing.assert_allclose(x_star, [1.0, 0.0], atol=1e-9)
        assert f_star == pytest.approx(1.0, abs=1e-9)

        ball = LpBall(p=3.0, radius=1.0, dim=3)
        x0 = np.array([2.0, -1.0, 0.5])
        full = QuadraticObjective(A=np.diag([1.0, 2.0, 3.0]), x0=x0)
        _, f_full = reference_optimum(ball, full, x_init_for(ball, 0), 10_000)
        _, f_exact = _bisection_optimum(np.array([1.0, 2.0, 3.0]), x0, 3.0, 1.0)
        assert f_full == pytest.approx(f_exact, rel=1e-6)


def per_iteration_fw(feasible, f, x_init, rule, T, stop_gap=1e-12, f_star=None):
    """Reference Frank-Wolfe loop: every recorded quantity from the scalar
    oracles in the iteration that produces it (the unbatched algorithm)."""
    x = np.array(x_init, dtype=float)
    rows = []
    for t in range(T + 1):
        g = f.gradient(x)
        try:
            v = feasible.lmo(-g)
            fw_gap = max(float(np.dot(g, x - v)), 0.0)
        except ZeroDirection:
            v, fw_gap = x.copy(), 0.0
        d = v - x
        primal = f.value(x) - f_star if f_star is not None else np.nan
        row = [t, 0.0, fw_gap, primal, feasible.norm(d), feasible.dual_norm(g), x.copy(), v.copy()]
        rows.append(row)
        if fw_gap <= stop_gap or t == T:
            break
        if rule.tag == "deterministic":
            gamma = 1.0 / (t + 1.0)
        elif rule.tag == "short":
            gamma = short_step(fw_gap, f.L, float(np.dot(d, d)))
        else:
            gamma = exact_line_search(f, x, d, g)
        row[1] = gamma
        x = (1.0 - gamma) * x + gamma * v
        assert feasible.membership_excess(x) <= solver.FEASIBILITY_TOL
    names = ["t", "gamma", "fw_gap", "primal_gap", "dist_to_vertex", "grad_dual_norm", "iterates", "vertices"]
    return {name: np.array([r[i] for r in rows]) for i, name in enumerate(names)}


class OraclesOnly(FeasibleSet):
    """An lp ball with only the single-vector oracles, so run_fw's batched
    pass goes through the base class's row loops."""

    def __init__(self, ball):
        self.ball, self.dim, self.radius = ball, ball.dim, ball.radius

    def lmo(self, phi):
        return self.ball.lmo(phi)

    def norm(self, x):
        return self.ball.norm(x)

    def dual_norm(self, phi):
        return self.ball.dual_norm(phi)

    def membership_excess(self, x):
        return self.ball.membership_excess(x)

    def descriptor(self):
        return {"family": "oracles-only"}


def _fw_case(feasible, A=None):
    d = feasible.dim
    rng = np.random.default_rng(d)
    x0 = rng.standard_normal(d)
    x0 *= 2.5 * feasible.radius / np.linalg.norm(x0)  # outside every ball here
    if A is None:
        A = np.linspace(1.0, 4.0, d)
    return feasible, QuadraticObjective(A=A, x0=x0)


_M = np.random.default_rng(9).standard_normal((6, 6))
FW_CASES = {
    "p1.5": _fw_case(LpBall(p=1.5, radius=1.0, dim=6)),
    "p2": _fw_case(LpBall(p=2.0, radius=1.0, dim=6)),
    "p3": _fw_case(LpBall(p=3.0, radius=2.0, dim=6)),
    "p10": _fw_case(LpBall(p=10.0, radius=1.0, dim=6)),
    "l1": _fw_case(L1Ball(radius=1.0, dim=6)),
    "full-A": _fw_case(LpBall(p=3.0, radius=1.0, dim=6), A=_M @ _M.T + np.eye(6)),
    "oracles-only": _fw_case(OraclesOnly(LpBall(p=2.5, radius=1.0, dim=6))),
}


def assert_matches_per_iteration(trace, ref):
    for name in ("t", "gamma", "fw_gap", "primal_gap", "iterates", "vertices"):
        got = getattr(trace, name)
        assert got.shape == ref[name].shape, name
        assert got.tobytes() == ref[name].tobytes(), name
    for name in ("dist_to_vertex", "grad_dual_norm"):
        got, want = getattr(trace, name), ref[name]
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), name


class CountingBall(FeasibleSet):
    """An lp ball that counts oracle calls; ``bad_lmo = (i, scale)`` scales
    the i-th LMO answer (0-based) by ``scale``."""

    def __init__(self, ball, bad_lmo=None):
        self.ball, self.dim, self.radius = ball, ball.dim, ball.radius
        self.bad_lmo = bad_lmo
        self.calls = Counter()

    def lmo(self, phi):
        self.calls["lmo"] += 1
        v = self.ball.lmo(phi)
        if self.bad_lmo is not None and self.calls["lmo"] - 1 == self.bad_lmo[0]:
            v = v * self.bad_lmo[1]
        return v

    def _one(self, name, x):
        self.calls[name] += 1
        return getattr(self.ball, name)(x)

    def _rows(self, name, X):
        self.calls[name] += len(X)
        return getattr(self.ball, name)(X)

    def norm(self, x):
        return self._one("norm", x)

    def dual_norm(self, phi):
        return self._one("dual_norm", phi)

    def membership_excess(self, x):
        return self._one("membership_excess", x)

    def batch_norm(self, X):
        return self._rows("batch_norm", X)

    def batch_dual_norm(self, Phi):
        return self._rows("batch_dual_norm", Phi)

    def batch_membership_excess(self, X):
        return self._rows("batch_membership_excess", X)

    def descriptor(self):
        return {"family": "counting"}


class CountingQuadratic(QuadraticObjective):
    """A quadratic that counts value and gradient calls; the gradient is NaN
    from call ``nan_gradient_at`` (0-based) on."""

    def __init__(self, A, x0, nan_gradient_at=None):
        super().__init__(A, x0)
        self.nan_gradient_at = nan_gradient_at
        self.calls = Counter()

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def batch_value(self, X):
        self.calls["batch_value"] += len(X)
        return super().batch_value(X)

    def gradient(self, x):
        self.calls["gradient"] += 1
        g = super().gradient(x)
        if self.nan_gradient_at is not None and self.calls["gradient"] > self.nan_gradient_at:
            g = g * np.nan
        return g


class TestBlockedBookkeeping:
    @pytest.mark.parametrize("rule", ["deterministic", "short", "exact"])
    @pytest.mark.parametrize("T", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("name", list(FW_CASES))
    def test_matches_per_iteration_loop(self, name, T, rule):
        feasible, f = FW_CASES[name]
        x_init = feasible.lmo(np.ones(6))
        f_star = None if name == "l1" else 0.25
        trace = run_fw(feasible, f, x_init, StepRule(rule), T, f_star=f_star, keep_points=True)
        ref = per_iteration_fw(feasible, f, x_init, StepRule(rule), T, f_star=f_star)
        assert_matches_per_iteration(trace, ref)

    @pytest.mark.parametrize("rule", ["deterministic", "short", "exact"])
    @pytest.mark.parametrize("name", list(FW_CASES))
    def test_early_stop_on_gap(self, name, rule):
        feasible, f = FW_CASES[name]
        stop_gap = 3e-3 if rule == "deterministic" else 1e-9
        trace = run_fw(feasible, f, np.zeros(6), StepRule(rule), 1000, stop_gap=stop_gap, f_star=0.0,
                       keep_points=True)
        ref = per_iteration_fw(feasible, f, np.zeros(6), StepRule(rule), 1000, stop_gap, f_star=0.0)
        assert_matches_per_iteration(trace, ref)
        assert trace.metadata["stopped_at"] == len(trace) - 1
        if rule == "deterministic":  # stops after 4 to 980 iterations
            assert len(trace) < 1001 and trace.fw_gap[-1] <= stop_gap

    @pytest.mark.parametrize("rule", ["deterministic", "short", "exact"])
    @pytest.mark.parametrize(
        "dim, T", [(1000, 1), (1000, 7), (1000, 8), (1000, 9), (1000, 17), (1000, 100),
                   (8193, 1), (8193, 2), (8193, 5)],
    )
    @pytest.mark.parametrize("family", ["p3", "l1"])
    def test_small_blocks_match_per_iteration_loop(self, family, dim, T, rule):
        # 8-row blocks at dim 1000, 1-row blocks at dim 8193
        assert _block_rows(dim) == {1000: 8, 8193: 1}[dim]
        ball = LpBall(p=3.0, radius=2.0, dim=dim) if family == "p3" else L1Ball(radius=1.0, dim=dim)
        feasible, f = _fw_case(ball)
        x_init = feasible.lmo(np.ones(dim))
        trace = run_fw(feasible, f, x_init, StepRule(rule), T, f_star=0.25, keep_points=True)
        ref = per_iteration_fw(feasible, f, x_init, StepRule(rule), T, f_star=0.25)
        assert len(trace) == T + 1
        assert_matches_per_iteration(trace, ref)

    @pytest.mark.parametrize("rule", ["deterministic", "short", "exact"])
    @pytest.mark.parametrize("name", list(FW_CASES))
    def test_points_are_optional(self, name, rule):
        feasible, f = FW_CASES[name]
        x_init = feasible.lmo(np.ones(6))
        kept = run_fw(feasible, f, x_init, StepRule(rule), 600, f_star=0.25, keep_points=True)
        lean = run_fw(feasible, f, x_init, StepRule(rule), 600, f_star=0.25)
        assert lean.iterates is None and lean.vertices is None
        assert kept.iterates.shape == kept.vertices.shape == (len(kept), 6)
        for column in ("t", "gamma", "fw_gap", "primal_gap", "dist_to_vertex", "grad_dual_norm"):
            assert getattr(lean, column).tobytes() == getattr(kept, column).tobytes(), column
        assert lean.metadata == kept.metadata

    def test_point_memory_does_not_grow_with_T(self):
        # the points of a whole run would take 2 x 4001 x 1000 floats (64 MB)
        dim, T = 1000, 4000
        ball = LpBall(p=1.5, radius=1.0, dim=dim)
        f = QuadraticObjective(A=np.linspace(1.0, 100.0, dim), x0=np.full(dim, 0.1))
        x_init = x_init_for(ball, 0)
        tracemalloc.start()
        try:
            trace = run_fw(ball, f, x_init, StepRule.deterministic(), T, f_star=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == T + 1
        assert trace.iterates is None and trace.vertices is None
        assert peak < 2 * 2**20

    def test_early_stop_leaves_the_horizon_untouched(self):
        """A run that stops at t = 0 writes one row of its length-(T+1)
        scalar columns and faults in none of the rest; filling one such
        column up front would take 30 MiB at this T."""
        code = textwrap.dedent("""
            import os, resource
            import numpy as np
            from ucfw import LpBall, QuadraticObjective, StepRule, run_fw

            # ru_maxrss survives exec, so this process reports the peak of
            # whatever spawned it; a forked child starts from its own pages
            pid = os.fork()
            if pid:
                os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            ball = LpBall(p=2.0, radius=5.0, dim=2)
            f = QuadraticObjective(A=np.ones(2), x0=np.array([1.0, 0.0]))
            peaks = []
            for T in (1000, 4_000_000):
                trace = run_fw(ball, f, np.array([1.0, 0.0]), StepRule.short(), T)
                assert len(trace) == 1 and np.isnan(trace.primal_gap[0])
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB
            print(peaks[1] - peaks[0])
        """)
        src = str(Path(ucfw.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert int(out.stdout) < 8 * 1024

    def test_no_per_iteration_bookkeeping_calls(self):
        feasible = CountingBall(LpBall(p=3.0, radius=1.0, dim=5))
        f = CountingQuadratic(A=np.linspace(1.0, 2.0, 5), x0=np.full(5, 2.0))
        trace = run_fw(feasible, f, np.zeros(5), StepRule.deterministic(), 600, f_star=1.0)
        n = len(trace)
        assert n == 601
        assert f.calls == {"gradient": n, "batch_value": n}
        assert feasible.calls == {
            "membership_excess": 1,  # the start guard
            "lmo": n, "batch_norm": n, "batch_dual_norm": n, "batch_membership_excess": n,
        }

    @pytest.mark.parametrize("k", [100, 256, 257])
    @pytest.mark.parametrize("T_extra", [5, 1000])
    def test_guard_names_first_infeasible_iterate(self, k, T_extra):
        # the LMO's answer at t = k - 1 is pushed far out, so x_k is the
        # first iterate outside the ball
        feasible = CountingBall(LpBall(p=3.0, radius=1.0, dim=5), bad_lmo=(k - 1, 1e6))
        f = CountingQuadratic(A=np.linspace(1.0, 2.0, 5), x0=np.full(5, 2.0))
        with pytest.raises(UCFWError, match=f"iterate t = {k} left the feasible set"):
            run_fw(feasible, f, np.zeros(5), StepRule.deterministic(), k + T_extra)

    def test_guard_is_nan_safe(self):
        X = np.zeros((10, 3))
        X[4, 1] = np.nan
        with pytest.raises(UCFWError, match="iterate t = 516 left the feasible set by nan"):
            solver._check_iterates(LpBall(p=3.0, radius=1.0, dim=3), X, 512)

    @pytest.mark.parametrize("source", ["gradient", "lmo"])
    def test_nan_gap_raises_at_once(self, source):
        k = 300
        feasible = CountingBall(LpBall(p=3.0, radius=1.0, dim=4),
                                bad_lmo=(k, np.nan) if source == "lmo" else None)
        f = CountingQuadratic(A=np.linspace(1.0, 2.0, 4), x0=np.full(4, 2.0),
                              nan_gradient_at=k if source == "gradient" else None)
        with pytest.raises(UCFWError, match=f"gap is nan at t = {k}"):
            run_fw(feasible, f, np.zeros(4), StepRule.deterministic(), 5000)
        assert f.calls["gradient"] == feasible.calls["lmo"] == k + 1

    def test_nan_start_is_infeasible(self):
        ball, f = _projection_problem()
        with pytest.raises(InfeasibleStart):
            run_fw(ball, f, np.array([np.nan, 0.0]), StepRule.short(), 10)


class TestRunTraceCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        n = 2 * _BLOCK + 37
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-300, 300, (7, n))
        cols[:, :6] = [[0.0, -0.0, np.inf, -np.inf, np.nan, 1e22]] * 7
        trace = RunTrace(
            t=np.arange(n), gamma=cols[0], fw_gap=cols[1], primal_gap=cols[2],
            dist_to_vertex=cols[3], grad_dual_norm=cols[4],
            iterates=np.zeros((n, 1)), vertices=np.zeros((n, 1)),
        )
        extra = {"bound_t1": cols[5], "count": list(range(n)), "bound_t2": cols[6].tolist()}
        trace.to_csv(tmp_path / "got.csv", extra_columns=extra)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "gamma", "fw_gap", "min_fw_gap", "primal_gap",
                             "dist_to_vertex", "grad_dual_norm", *extra])
            min_gap = trace.min_fw_gap
            for i in range(n):
                row = [int(trace.t[i])] + [repr(float(c[i])) for c in (
                    cols[0], cols[1], min_gap, cols[2], cols[3], cols[4], *extra.values()
                )]
                writer.writerow(row)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
