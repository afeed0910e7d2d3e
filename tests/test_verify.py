"""The sampling verifier: positive checks on the catalog, negative controls."""

import numpy as np
import pytest

from ucfw import (
    L1Ball,
    LpBall,
    QuadraticObjective,
    SamplerConfig,
    StaleOptimum,
    StepRule,
    UCParams,
    check_definition1,
    check_lemma1,
    check_lemma3,
    check_local_scaling,
    estimate_local_alpha,
    grad_floor_quadratic,
    reference_optimum,
    run_fw,
    sample_feasible,
    sqnorm_level_set,
)
from ucfw.experiments import problem_constants, x_init_for

CFG = SamplerConfig(n_pairs=300, n_directions=25, seed=0)


class TestSampler:
    def test_samples_are_feasible(self):
        ball = LpBall(p=3.0, radius=2.0, dim=5)
        rng = np.random.default_rng(0)
        X = sample_feasible(ball, 500, rng, boundary_bias=0.5)
        assert ball.batch_membership_excess(X).max() <= 1e-9

    def test_boundary_bias_puts_mass_on_boundary(self):
        ball = LpBall(p=2.0, radius=1.0, dim=4)
        rng = np.random.default_rng(0)
        X = sample_feasible(ball, 400, rng, boundary_bias=1.0)
        norms = ball.batch_norm(X)
        assert norms.min() >= 1.0 - 1e-9


class TestDefinition1:
    def test_euclidean_ball_catalog(self):
        ball = LpBall(p=2.0, radius=1.0, dim=5)
        assert check_definition1(ball, ball.uc_params(), CFG).passed

    def test_inflated_alpha_fails(self):
        ball = LpBall(p=3.0, radius=1.0, dim=5)
        fake = UCParams(alpha=2.0, q=3.0, norm_tag="lp:3.0")
        report = check_definition1(ball, fake, CFG)
        assert not report.passed
        assert report.worst_violation > 0.0
        assert report.witness is not None

    def test_tiny_alpha_reduces_to_convexity(self):
        # alpha -> 0 limit: plain convex combinations, always members
        ball = L1Ball(radius=1.0, dim=4)
        near_zero = UCParams(alpha=1e-300, q=2.0, norm_tag="l1")
        assert check_definition1(ball, near_zero, CFG).passed

    def test_levelset_catalog(self):
        ls = sqnorm_level_set(w=4.0, dim=4)
        assert check_definition1(ls, ls.uc_params(), CFG).passed

    def test_report_serializes(self):
        ball = LpBall(p=2.0, radius=1.0, dim=3)
        report = check_definition1(ball, ball.uc_params(), CFG)
        import json

        payload = json.loads(report.to_json())
        assert payload["check"] == "definition1"
        assert payload["pass"] is True


def _ball_objective(ball):
    x0 = np.ones(ball.dim) * (3.0 * ball.radius / np.sqrt(ball.dim))
    return QuadraticObjective(A=np.ones(ball.dim), x0=x0)


class TestLemma1:
    def test_l15_catalog_passes(self):
        ball = LpBall(p=1.5, radius=1.0, dim=6)
        report = check_lemma1(ball, ball.uc_params(), _ball_objective(ball), CFG)
        assert report.passed

    def test_flat_face_negative_control(self):
        diamond = L1Ball(radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
        fake = UCParams(alpha=0.1, q=2.0, norm_tag="l1")
        cfg = SamplerConfig(n_pairs=300, n_directions=25, seed=0, boundary_bias=1.0)
        assert not check_lemma1(diamond, fake, f, cfg).passed


class TestLocalScaling:
    def _solved_l3(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        plain = _ball_objective(ball)
        f = QuadraticObjective(A=plain.A, x0=plain.x0, grad_floor=grad_floor_quadratic(plain, ball))
        x_init = x_init_for(ball, 0)
        x_star, f_star = reference_optimum(ball, f, x_init, 50_000, stop_gap=1e-14)
        return ball, f, x_init, x_star, f_star

    def test_curved_optimum_passes_catalog(self):
        ball, f, _, x_star, _ = self._solved_l3()
        uc = ball.uc_params()
        assert check_local_scaling(ball, f, x_star, uc.alpha, uc.q, CFG).passed

    def test_at_optimum_zero_case(self):
        ball, f, _, x_star, _ = self._solved_l3()
        uc = ball.uc_params()
        report = check_local_scaling(ball, f, x_star, uc.alpha, uc.q, CFG)
        assert report.worst_violation == 0.0

    def test_stale_optimum_raises(self):
        ball = LpBall(p=2.0, radius=5.0, dim=3)
        # claimed positive floor, but x0 is interior
        f = QuadraticObjective(A=np.ones(3), x0=np.array([1.0, 0.0, 0.0]), grad_floor=0.3)
        with pytest.raises(StaleOptimum):
            check_local_scaling(ball, f, f.x0, 0.5, 2.0, CFG)

    def test_flat_face_negative_control(self):
        diamond = L1Ball(radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
        x_star, _ = reference_optimum(diamond, f, np.array([1.0, 0.0]), 50_000)
        cfg = SamplerConfig(n_pairs=300, n_directions=25, seed=0, boundary_bias=1.0)
        assert not check_local_scaling(diamond, f, x_star, 0.5, 2.0, cfg).passed

    def test_curved_location_supports_larger_alpha_than_flat(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        results = {}
        for tag, direction in (("curved", np.ones(6)), ("flat", np.eye(6)[0])):
            f = QuadraticObjective(A=np.ones(6), x0=3.0 * direction / np.linalg.norm(direction))
            x_star, _ = reference_optimum(ball, f, x_init_for(ball, 0), 50_000, stop_gap=1e-14)
            # q = 2: an axis point of the l3 ball has vanishing second-order
            # curvature, so its quadratic modulus is strictly smaller
            results[tag] = estimate_local_alpha(ball, f, x_star, q=2.0, cfg=CFG)
        assert results["curved"] > results["flat"]


class TestLemma3:
    def _trace(self, ball, f, T=1500):
        x_init = x_init_for(ball, 0)
        x_star, f_star = reference_optimum(ball, f, x_init, 50_000, stop_gap=1e-14)
        return run_fw(ball, f, x_init, StepRule.short(), T, x_star=x_star, f_star=f_star)

    def test_l3_distance_control(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        f = _ball_objective(ball)
        trace = self._trace(ball, f)
        consts = problem_constants(ball, f)
        report = check_lemma3(trace, consts["c"], consts["alpha"], consts["q"], consts["L"])
        assert report.passed

    def test_flat_face_negative_control(self):
        diamond = L1Ball(radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
        trace = self._trace(diamond, f)
        report = check_lemma3(trace, c=1.0, alpha=0.25, q=2.0, L=1.0)
        assert not report.passed
