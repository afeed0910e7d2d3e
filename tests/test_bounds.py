"""Rate constants and the recursion envelope, validated against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucfw import (
    InvalidParams,
    LpBall,
    QuadraticObjective,
    RateBound,
    StepRule,
    check_trace,
    iterate_recursion,
    lemma3_distance_constant,
    reference_optimum,
    run_fw,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
from ucfw.bounds import RecursionConstants
from ucfw.experiments import problem_constants, x_init_for


class TestRecursionConstants:
    def test_eta_one_classic_rate(self):
        rc = RecursionConstants(eta=1.0, C=1.0, h0=1.0)
        assert rc.k == 0.0
        assert rc.M_rate == pytest.approx(2.0)
        assert rc.evaluate(10) == pytest.approx(0.2)

    def test_half_eta_frozen_constants(self):
        rc = RecursionConstants(eta=0.5, C=1.0, h0=1.0)
        assert rc.k == pytest.approx(math.sqrt(2), rel=1e-10)
        assert rc.M_rate == pytest.approx(23.31, abs=0.01)
        traj = iterate_recursion(0.5, 1.0, 1.0, 10**5)
        t = np.arange(10**5 + 1)
        assert np.all(traj <= rc.evaluate(t) + 1e-12)

    def test_quarter_eta_against_brute_force(self):
        rc = RecursionConstants(eta=0.25, C=0.1, h0=5.0)
        traj = iterate_recursion(0.25, 0.1, 5.0, 10**5)
        t = np.arange(10**5 + 1)
        assert np.all(traj <= rc.evaluate(t) + 1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            RecursionConstants(eta=0.0, C=1.0, h0=1.0)
        with pytest.raises(InvalidParams):
            RecursionConstants(eta=0.5, C=0.0, h0=1.0)

    def test_tiny_eta_no_overflow(self):
        # exponents 1/eta blow up; log-space evaluation must stay finite-safe
        rc = RecursionConstants(eta=0.02, C=0.01, h0=10.0)
        assert math.isinf(rc.M_rate) or rc.M_rate > 0
        val = rc.evaluate(10**6)
        assert np.isfinite(val) or val == np.inf

    @given(
        eta=st.floats(0.05, 1.0),
        C=st.floats(0.01, 2.0),
        h0=st.floats(0.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_envelope_holds_everywhere(self, eta, C, h0):
        rc = RecursionConstants(eta=eta, C=C, h0=h0)
        traj = iterate_recursion(eta, C, h0, 2000)
        t = np.arange(2001)
        curve = rc.evaluate(t)
        assert np.all(traj <= curve + 1e-12)


class TestTheorem1:
    def test_q2_linear_factor(self):
        b = theorem1_bound(c=1.0, alpha=1.0, q=2.0, L=1.0, h0=1.0)
        assert b.linear_factor is not None
        assert b.linear_factor == pytest.approx(0.75)

    def test_q3_eta(self):
        b = theorem1_bound(c=1.0, alpha=0.5, q=3.0, L=1.0, h0=1.0)
        assert b.recursion.eta == pytest.approx(1.0 / 3.0)
        assert b.exponent == pytest.approx(3.0)

    def test_large_q_approaches_classic_rate(self):
        b = theorem1_bound(c=1.0, alpha=0.5, q=1e6, L=1.0, h0=1.0)
        assert b.recursion.eta == pytest.approx(1.0, abs=1e-5)

    def test_exponent_decreases_in_q(self):
        exps = [
            theorem1_bound(1.0, 0.5, q, 1.0, 1.0).exponent for q in (2.5, 3.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(exps, exps[1:]))

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            theorem1_bound(c=0.0, alpha=1.0, q=3.0, L=1.0, h0=1.0)
        with pytest.raises(InvalidParams):
            theorem1_bound(c=1.0, alpha=1.0, q=1.5, L=1.0, h0=1.0)


class TestTheorem2:
    def test_distance_constant(self):
        H = lemma3_distance_constant(c=1.0, alpha=1.0, q=3.0, L=1.0)
        assert H == pytest.approx(2.0 * 2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_q2_linear(self):
        b = theorem2_bound(c=1.0, alpha=1.0, q=2.0, L=1.0, h0=0.8)
        assert b.linear_factor is not None

    def test_q2_factor_that_rounds_to_one_is_flat(self):
        """Once 1/(2 L H^2) is below half an ulp of 1, as near p = 1, the
        factor is 1.0 and the envelope stays at the anchor."""
        b = theorem2_bound(1e-6, 1.0, 2.0, 1.0, 0.5)
        assert b.linear_factor == 1.0
        assert b.evaluate(np.array([0.0, 1.0, 1e6])).tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.0 + 2.0**-52, math.nan])
    def test_factor_outside_unit_interval_refused(self, factor):
        with pytest.raises(InvalidParams):
            RateBound(theorem_tag="T2", linear_factor=factor, h0=1.0)

    def test_q3_exponent(self):
        b = theorem2_bound(c=1.0, alpha=1.0, q=3.0, L=1.0, h0=0.5)
        assert b.recursion.eta == pytest.approx(2.0 / 3.0)
        assert b.exponent == pytest.approx(1.5)

    def test_weaker_than_theorem1(self):
        for q in (2.5, 3.0, 5.0):
            b1 = theorem1_bound(1.0, 0.5, q, 1.0, 1.0)
            b2 = theorem2_bound(1.0, 0.5, q, 1.0, 1.0)
            assert b2.exponent <= b1.exponent

    def test_anchor_clipped_to_burn_in(self):
        b = theorem2_bound(c=1.0, alpha=1.0, q=3.0, L=1.0, h0=7.0)
        assert b.h0 == 1.0


class TestTheorem3:
    def test_accelerated_quadratic_regime(self):
        b = theorem3_bound(alpha=1.0, q=2.0, mu_heb=1.0, theta=0.5, L=1.0, h0=1.0)
        assert b.exponent == pytest.approx(2.0)

    def test_theta_to_zero_limit(self):
        b = theorem3_bound(alpha=1.0, q=2.0, mu_heb=1.0, theta=1e-6, L=1.0, h0=1.0)
        assert b.exponent == pytest.approx(1.0, abs=1e-5)

    def test_q4_exponent(self):
        b = theorem3_bound(alpha=1.0, q=4.0, mu_heb=1.0, theta=0.5, L=1.0, h0=1.0)
        assert b.recursion.eta == pytest.approx(0.75)

    def test_invalid_theta(self):
        with pytest.raises(InvalidParams):
            theorem3_bound(alpha=1.0, q=2.0, mu_heb=1.0, theta=0.7, L=1.0, h0=1.0)


def _l3_trace():
    ball = LpBall(p=3.0, radius=1.0, dim=8)
    f = QuadraticObjective(A=np.ones(8), x0=np.ones(8) * (3.0 / np.sqrt(8)))
    _, f_star, _ = reference_optimum(ball, f)
    trace = run_fw(ball, f, x_init_for(ball, 0), StepRule.short(), 2000, f_star=f_star)
    return ball, f, trace


class TestCheckTrace:
    def test_theorem1_holds_on_matching_run(self):
        ball, f, trace = _l3_trace()
        consts = problem_constants(ball, f)
        b = theorem1_bound(consts["c"], consts["alpha"], consts["q"], consts["L"],
                           float(trace.primal_gap[0]))
        report = check_trace(trace, b)
        assert report.passed
        assert report.config["max_ratio"] <= 1.0

    def test_vacuous_bound_never_violated(self):
        _, _, trace = _l3_trace()
        b = theorem1_bound(1e-12, 1e-12, 3.0, 1e6, float(trace.primal_gap[0]))
        assert check_trace(trace, b).passed

    def test_halved_envelope_is_violated(self):
        # negative control: shrink the envelope below the measured gaps
        ball, f, trace = _l3_trace()
        h0 = float(trace.primal_gap[0])
        tight = theorem1_bound(1e6, 1e6, 3.0, 1e-9, min(h0, 1e-12))
        report = check_trace(trace, tight)
        assert not report.passed
        assert report.witness is not None
