"""The sampling verifier: positive checks on the catalog, negative controls."""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ucfw import (
    L1Ball,
    LevelSet,
    LpBall,
    QuadraticObjective,
    SamplerConfig,
    FeasibleSet,
    SchattenBall,
    StaleOptimum,
    StepRule,
    UCFWError,
    UCParams,
    check_definition1,
    check_lemma1,
    check_lemma3,
    check_local_scaling,
    check_trace,
    estimate_local_alpha,
    grad_floor_quadratic,
    reference_optimum,
    run_fw,
    sample_feasible,
    theorem1_bound,
)
from ucfw.experiments import catalog_sets, problem_constants, run_check, x_init_for
from ucfw.verify import CHECK_TOL, TRACE_TOL

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
        fake = UCParams(alpha=2.0, q=3.0)
        report = check_definition1(ball, fake, CFG)
        assert not report.passed
        assert report.worst_violation > 0.0
        assert report.witness is not None

    def test_tiny_alpha_reduces_to_convexity(self):
        # alpha -> 0 limit: plain convex combinations, always members
        ball = L1Ball(radius=1.0, dim=4)
        near_zero = UCParams(alpha=1e-300, q=2.0)
        assert check_definition1(ball, near_zero, CFG).passed

    def test_levelset_catalog(self):
        ls = LevelSet(w=4.0, dim=4)
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
        fake = UCParams(alpha=0.1, q=2.0)
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
        return run_fw(ball, f, x_init, StepRule.short(), T, f_star=f_star)

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


class TestLemmaChecksOnNonLpSets:
    """``ucfw verify`` runs the lemma checks on every set with (alpha, q):
    the catalog's Schatten ball and level set pass them with their catalog
    constants, as the lp balls do."""

    @pytest.mark.parametrize("check", ["lemma1", "local_scaling", "lemma3"])
    @pytest.mark.parametrize("name", ["schatten_2.5", "levelset_sqnorm_w4"])
    def test_catalog_constants_pass(self, name, check):
        feasible = dict(catalog_sets())[name]
        report = run_check(check, feasible, feasible.uc_params(), SamplerConfig(seed=0))
        assert report.passed, report.to_json()
        assert (report.config["alpha"], report.config["q"]) == (feasible.uc.alpha, feasible.uc.q)


# ---------------------------------------------------------------------------
# one report shape for every check
# ---------------------------------------------------------------------------


DIAMOND = L1Ball(radius=1.0, dim=2)
F_FLAT = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
EDGE_CFG = SamplerConfig(n_pairs=300, n_directions=25, seed=0, boundary_bias=1.0)


def _trace_report(passing):
    """Theorem 1 on a short-step l3 run, or the same run against an envelope
    shrunk below its gaps."""
    ball = LpBall(p=3.0, radius=1.0, dim=8)
    f = _ball_objective(ball)
    x_init = x_init_for(ball, 0)
    _, f_star = reference_optimum(ball, f, x_init, 50_000, stop_gap=1e-15)
    trace = run_fw(ball, f, x_init, StepRule.short(), 2000, f_star=f_star)
    h0 = float(trace.primal_gap[0])
    if passing:
        k = problem_constants(ball, f)
        return check_trace(trace, theorem1_bound(k["c"], k["alpha"], k["q"], k["L"], h0))
    return check_trace(trace, theorem1_bound(1e6, 1e6, 3.0, 1e-9, min(h0, 1e-12)))


def _failing_report(check):
    """The flat-face controls of the verification battery, and Definition 1
    at an inflated alpha."""
    if check == "definition1":
        return check_definition1(LpBall(p=3.0, radius=1.0, dim=5), UCParams(alpha=2.0, q=3.0), CFG)
    if check == "lemma1":
        return check_lemma1(DIAMOND, UCParams(alpha=0.1, q=2.0), F_FLAT, EDGE_CFG)
    x_star, f_star = reference_optimum(DIAMOND, F_FLAT, np.array([1.0, 0.0]), 50_000)
    if check == "local_scaling":
        return check_local_scaling(DIAMOND, F_FLAT, x_star, 0.5, 2.0, EDGE_CFG)
    trace = run_fw(DIAMOND, F_FLAT, np.array([1.0, 0.0]), StepRule.short(), 1500, f_star=f_star)
    return check_lemma3(trace, c=1.0, alpha=0.25, q=2.0, L=1.0)


class TestOneReportShape:
    @pytest.mark.parametrize("passing", [True, False], ids=["pass", "fail"])
    @pytest.mark.parametrize("check", ["definition1", "lemma1", "local_scaling", "lemma3", "trace"])
    def test_report_shape(self, check, passing):
        """Every check returns one CheckReport whose JSON has the same five
        keys, records its tolerance, and names a witness exactly when it
        fails."""
        if check == "trace":
            report, tol = _trace_report(passing), TRACE_TOL
        elif passing:
            ball = LpBall(p=3.0, radius=1.0, dim=6)
            report, tol = run_check(check, ball, ball.uc_params(), CFG), CHECK_TOL
        else:
            report, tol = _failing_report(check), CHECK_TOL
        assert report.passed is passing
        payload = json.loads(report.to_json())
        assert set(payload) == {"check", "pass", "worst_violation", "witness", "config"}
        assert payload["pass"] is passing
        assert payload["config"]["tol"] == tol
        assert (payload["witness"] is None) == passing
        assert (payload["worst_violation"] > tol) == (not passing)


# ---------------------------------------------------------------------------
# the batched checks against the per-sample algorithm
# ---------------------------------------------------------------------------


def per_sample_points(feasible, cfg):
    """The sampler one direction at a time."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_pairs
    n_boundary = int(round(cfg.boundary_bias * n))
    dirs = rng.standard_normal((n, feasible.dim))
    shrink = rng.random(n) ** (1.0 / feasible.dim)
    return np.array([
        feasible.boundary_point(dirs[i]) * (shrink[i] if i >= n_boundary else 1.0) for i in range(n)
    ])


def per_sample_lemma1(feasible, uc, f, cfg):
    worst, witness = -np.inf, None
    for i, x in enumerate(per_sample_points(feasible, cfg)):
        g = f.gradient(x)
        if not np.any(g):
            continue
        v = feasible.lmo(-g)
        lhs = float(np.dot(-g, v - x))
        rhs = 0.5 * uc.alpha * feasible.norm(v - x) ** uc.q * feasible.dual_norm(g)
        if rhs - lhs > worst:
            worst, witness = rhs - lhs, {"sample_index": i, "lhs": lhs, "rhs": rhs}
    return worst, witness


def per_sample_local_terms(feasible, f, x_star, cfg):
    g_star = f.gradient(x_star)
    X = per_sample_points(feasible, cfg)
    lhs = np.array([float(np.dot(-g_star, x_star - x)) for x in X])
    dist = np.array([feasible.norm(x_star - x) for x in X])
    return feasible.dual_norm(g_star), lhs, dist


def per_sample_local_scaling(feasible, f, x_star, alpha, q, cfg):
    gnorm, lhs, dist = per_sample_local_terms(feasible, f, x_star, cfg)
    worst, witness = -np.inf, None
    for i in range(len(lhs)):
        rhs = 0.5 * alpha * gnorm * dist[i] ** q
        if rhs - lhs[i] > worst:
            worst, witness = rhs - lhs[i], {"sample_index": i, "lhs": lhs[i], "rhs": rhs}
    return worst, witness


def per_sample_local_alpha(feasible, f, x_star, q, cfg, alpha_hi=16.0, resolution=1e-4):
    gnorm, lhs, dist = per_sample_local_terms(feasible, f, x_star, cfg)

    def holds(alpha):
        return all(lhs[i] + CHECK_TOL >= 0.5 * alpha * gnorm * dist[i] ** q for i in range(len(lhs)))

    lo, hi = 0.0, alpha_hi
    if holds(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def assert_report_matches(report, worst, witness, tol):
    assert report.passed == (worst <= tol)
    assert report.worst_violation == pytest.approx(max(worst, 0.0), rel=1e-12, abs=1e-12)
    if worst <= tol:
        assert report.witness is None
        return
    assert report.witness["sample_index"] == witness["sample_index"]
    for key in ("lhs", "rhs"):
        assert report.witness[key] == pytest.approx(witness[key], rel=1e-12, abs=1e-12)


class HalfZeroGradient(QuadraticObjective):
    """A quadratic whose gradient is zero wherever x[0] > 0."""

    def gradient(self, x):
        return np.zeros_like(x) if x[0] > 0.0 else super().gradient(x)


def _quad(feasible, cls=QuadraticObjective):
    x0 = np.linspace(1.0, 2.0, feasible.dim) * (3.0 * feasible.radius / np.sqrt(feasible.dim))
    return cls(A=np.linspace(1.0, 3.0, feasible.dim), x0=x0)


BATCH_SETS = {
    "lp1.5": LpBall(p=1.5, radius=1.0, dim=6),
    "lp3r5": LpBall(p=3.0, radius=5.0, dim=6),
    "l1": L1Ball(radius=1.0, dim=3),
    "schatten2x3": SchattenBall(p=2.5, rows=2, cols=3, radius=1.0),
}


class TestBatchedChecksMatchPerSample:
    @pytest.mark.parametrize("bias", [0.5, 1.0])
    @pytest.mark.parametrize("name", list(BATCH_SETS))
    def test_sampler(self, name, bias):
        feasible = BATCH_SETS[name]
        cfg = SamplerConfig(n_pairs=200, seed=3, boundary_bias=bias)
        X = sample_feasible(feasible, 200, np.random.default_rng(3), bias)
        want = per_sample_points(feasible, cfg)
        assert np.all(np.abs(X - want) <= 1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0])
    @pytest.mark.parametrize("objective", [QuadraticObjective, HalfZeroGradient])
    @pytest.mark.parametrize("name", list(BATCH_SETS))
    def test_lemma1(self, name, objective, alpha_scale):
        feasible = BATCH_SETS[name]
        uc = feasible.uc or UCParams(alpha=0.1, q=2.0)
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        f = _quad(feasible, objective)
        cfg = SamplerConfig(n_pairs=200, seed=4, boundary_bias=1.0)
        report = check_lemma1(feasible, uc, f, cfg)
        assert_report_matches(report, *per_sample_lemma1(feasible, uc, f, cfg), CHECK_TOL)

    def test_lemma1_all_gradients_zero(self):
        ball = LpBall(p=3.0, radius=1.0, dim=4)
        f = QuadraticObjective(A=np.ones(4), x0=np.zeros(4))
        f.gradient = lambda x: np.zeros_like(x)
        report = check_lemma1(ball, ball.uc_params(), f, CFG)
        assert report.passed and report.worst_violation == 0.0 and report.witness is None

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 20.0])
    @pytest.mark.parametrize("name", list(BATCH_SETS))
    def test_local_scaling_and_alpha_estimate(self, name, alpha):
        feasible = BATCH_SETS[name]
        f = _quad(feasible)
        x_star, _ = reference_optimum(feasible, f, feasible.lmo(np.ones(feasible.dim)), 5_000)
        cfg = SamplerConfig(n_pairs=200, seed=5, boundary_bias=0.5)
        for q in (2.0, 3.0):
            report = check_local_scaling(feasible, f, x_star, alpha, q, cfg)
            want = per_sample_local_scaling(feasible, f, x_star, alpha, q, cfg)
            assert_report_matches(report, *want, CHECK_TOL)
            assert estimate_local_alpha(feasible, f, x_star, q, cfg) == pytest.approx(
                per_sample_local_alpha(feasible, f, x_star, q, cfg), abs=1e-12
            )


# ---------------------------------------------------------------------------
# the streamed definition-1 check against one stack over all weights
# ---------------------------------------------------------------------------


def monolithic_definition1(feasible, uc, cfg):
    """(passed, worst_violation, witness) from one (11, n, m, dim) stack of
    every perturbed point, reduced by one max and one argmax.  A NaN or
    infinite worst excess is a numerical breakdown."""
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Y = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Z = rng.standard_normal((cfg.n_directions, feasible.dim))
    Z /= feasible.batch_norm(Z)[:, None]
    etas = np.linspace(0.0, 1.0, 11)
    dist = feasible.batch_norm(X - Y)
    radial = (etas[:, None] * (1.0 - etas[:, None])) * uc.alpha * dist[None, :] ** uc.q
    combo = etas[:, None, None] * X[None, :, :] + (1.0 - etas[:, None, None]) * Y[None, :, :]
    points = combo[:, :, None, :] + radial[:, :, None, None] * Z[None, None, :, :]
    excess = feasible.batch_membership_excess(points)
    worst = float(excess.max())
    if not worst < math.inf:
        raise UCFWError(f"definition1: worst violation is {worst}; numerical breakdown")
    witness = None
    if worst > CHECK_TOL:
        ie, ip, iz = np.unravel_index(int(np.argmax(excess)), excess.shape)
        witness = {
            "eta": float(etas[ie]),
            "pair_index": int(ip),
            "direction_index": int(iz),
            "chord_length": float(dist[ip]),
            "excess": worst,
        }
    return worst <= CHECK_TOL, max(worst, 0.0), witness


def one_stack_json(feasible, uc, cfg):
    """The report ``check_definition1`` must give, from one stack of every
    perturbed point."""
    passed, worst, witness = monolithic_definition1(feasible, uc, cfg)
    config = {"alpha": uc.alpha, "q": uc.q, **asdict(cfg), "tol": CHECK_TOL}
    payload = {"check": "definition1", "pass": passed, "worst_violation": worst, "witness": witness, "config": config}
    return json.dumps(payload, sort_keys=True)


def assert_same_outcome(feasible, uc, cfg):
    """``check_definition1`` gives the report of one stack byte for byte, or
    raises the error one stack raises."""
    try:
        want = one_stack_json(feasible, uc, cfg)
    except UCFWError as exc:
        with pytest.raises(UCFWError) as got:
            check_definition1(feasible, uc, cfg)
        assert str(got.value) == str(exc)
        return
    assert check_definition1(feasible, uc, cfg).to_json() == want


def assert_same_report(report, passed, worst, witness):
    """Bit for bit."""
    assert report.passed == passed
    assert report.worst_violation == worst
    assert report.witness == witness


DEFINITION1_SETS = {**BATCH_SETS, "levelset": LevelSet(w=4.0, dim=4)}


class EtaProbe(FeasibleSet):
    """An l2 ball in the plane whose sampler puts the i-th x at (1, i) and
    the i-th y at (0, i), so a perturbed point's coordinates are its weight
    eta and its pair index (for a tiny alpha).  Its excess is ``value`` at
    each (eta, pair, direction) of ``spots`` and 0 elsewhere.  A stack with
    no direction axis holds one point per pair, as the check's bound does:
    its excess is the largest of 0 and the pair's values at that eta, which
    bounds the excess of every direction."""

    dim = 2
    radius = 1.0

    def __init__(self, spots):
        self.spots = spots
        self._samples = 0

    def batch_norm(self, X):
        return np.sqrt((np.asarray(X) ** 2).sum(axis=-1))

    def boundary_point(self, direction):
        self._samples += 1  # odd calls sample the x's, even calls the y's
        out = np.zeros_like(direction)
        out[:, 0] = self._samples % 2
        out[:, 1] = np.arange(len(out))
        return out

    def batch_membership_excess(self, points):
        points = np.asarray(points)
        eta, pair = points[..., 0], np.rint(points[..., 1])
        direction = np.indices(eta.shape)[-1] if eta.ndim >= 2 else None
        out = np.zeros(eta.shape)
        for e, i, j, value in self.spots:
            at = np.isclose(eta, e, rtol=0.0, atol=1e-12) & (pair == i)
            if direction is None:
                out[at] = np.maximum(out[at], value)  # NaN propagates
            else:
                out[at & (direction == j)] = value
        return out


PROBE_UC = UCParams(alpha=1e-300, q=2.0)
PROBE_CFG = SamplerConfig(n_pairs=8, n_directions=4, seed=0, boundary_bias=1.0)


class TestStreamedDefinition1:
    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0])
    @pytest.mark.parametrize("name", list(DEFINITION1_SETS))
    def test_matches_one_stack(self, name, alpha_scale):
        feasible = DEFINITION1_SETS[name]
        uc = feasible.uc or UCParams(alpha=0.1, q=2.0)
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        for cfg in (SamplerConfig(n_pairs=200, n_directions=20, seed=6),
                    SamplerConfig(n_pairs=37, n_directions=7, seed=7, boundary_bias=1.0)):
            assert_same_report(check_definition1(feasible, uc, cfg), *monolithic_definition1(feasible, uc, cfg))

    def test_weights_0_and_1_evaluate_each_pair_once(self):
        """A catalog check evaluates the origin (the set's scale), each pair
        once at eta = 0 and 1, one bound point per pair at each interior
        eta, and no row of perturbed points: every bound is below 0."""
        evaluated = []

        class CountingBall(LpBall):
            def batch_membership_excess(self, X):
                evaluated.append(np.shape(X)[:-1])
                return super().batch_membership_excess(X)

        ball, cfg = LpBall(p=3.0, radius=1.0, dim=5), SamplerConfig(n_pairs=30, n_directions=7, seed=2)
        want = monolithic_definition1(ball, ball.uc_params(), cfg)
        report = check_definition1(CountingBall(p=3.0, radius=1.0, dim=5), ball.uc_params(), cfg)
        assert sorted(evaluated) == sorted([()] + [(30, 1)] * 2 + [(30,)] * 9)
        assert_same_report(report, *want)

    def test_inflated_alpha_builds_few_rows(self):
        """The negative control of ``run_verify_all`` builds the perturbed
        points of a handful of its 9 x 1000 (eta, pair) rows."""
        rows = []

        class CountingBall(LpBall):
            def batch_membership_excess(self, X):
                if np.ndim(X) == 3 and np.shape(X)[1] > 1:
                    rows.append(len(X))
                return super().batch_membership_excess(X)

        cfg = SamplerConfig(seed=0, boundary_bias=1.0)
        report = check_definition1(CountingBall(p=3.0, radius=1.0, dim=8), UCParams(alpha=2.0, q=3.0), cfg)
        assert not report.passed
        assert 1 <= sum(rows) <= 20

    def test_witness_at_weight_1_names_the_first_direction(self):
        spots = [(1.0, 4, 0, 2.0)]
        report = check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert report.witness == {
            "eta": 1.0, "pair_index": 4, "direction_index": 0, "chord_length": 1.0, "excess": 2.0,
        }
        assert_same_report(report, *monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG))

    def test_tie_across_weights_keeps_the_earlier_eta(self):
        spots = [(0.3, 5, 2, 1.0), (0.7, 1, 0, 1.0)]
        report = check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert not report.passed and report.worst_violation == 1.0
        assert report.witness == {
            "eta": float(np.linspace(0.0, 1.0, 11)[3]),
            "pair_index": 5,
            "direction_index": 2,
            "chord_length": 1.0,
            "excess": 1.0,
        }
        assert_same_report(report, *monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG))

    def test_nan_in_a_later_weight_fails_like_one_stack(self):
        """A NaN excess anywhere is a numerical breakdown, not a verdict:
        the check raises, as the reduction of one stack does."""
        spots = [(0.2, 3, 1, 1.0), (0.8, 0, 0, np.nan)]
        message = "^definition1: worst violation is nan; numerical breakdown$"
        with pytest.raises(UCFWError, match=message):
            check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        with pytest.raises(UCFWError, match=message):
            monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)

    @pytest.mark.parametrize("first", [True, False])
    def test_top_row_merges_in_pair_order(self, first):
        """At eta = 0.5 pair 4 has the largest bound (5, from a bound-only
        spot: direction -1 matches no direction) and so is built first, at
        excess 2; pair 6, and with ``first`` also pair 2, are built after it
        at the same excess.  The witness is the first of the tied rows in
        pair order, not the top row because it was built first."""
        spots = [(0.5, 4, -1, 5.0), (0.5, 4, 1, 2.0), (0.5, 6, 0, 2.0), (0.2, 3, 2, 1.0)]
        if first:
            spots.append((0.5, 2, 3, 2.0))
        report = check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert report.witness == {
            "eta": 0.5,
            "pair_index": 2 if first else 4,
            "direction_index": 3 if first else 1,
            "chord_length": 1.0,
            "excess": 2.0,
        }
        assert_same_report(report, *monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG))

    def test_nan_row_beside_the_top_row_fails_like_one_stack(self):
        spots = [(0.5, 4, -1, 5.0), (0.5, 4, 1, 2.0), (0.5, 6, 2, np.nan), (0.5, 2, 0, 2.0)]
        message = "^definition1: worst violation is nan; numerical breakdown$"
        with pytest.raises(UCFWError, match=message):
            check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        with pytest.raises(UCFWError, match=message):
            monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)

    def test_memory_grows_with_pairs_plus_directions(self):
        """At 20 000 pairs x 200 directions a dense (9, pairs, directions)
        array would take 275 MiB; the check keeps only the rows it built."""
        ball = LpBall(p=3.0, radius=1.0, dim=8)
        cfg = SamplerConfig(n_pairs=20_000, n_directions=200, seed=0)
        tracemalloc.start()
        try:
            report = check_definition1(ball, ball.uc_params(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 16 * 2**20, peak / 2**20

    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0, 1e3])
    @pytest.mark.parametrize("name", ["lp3r5", "schatten2x3", "levelset"])
    def test_boundary_pairs_match_one_stack(self, name, alpha_scale):
        feasible = DEFINITION1_SETS[name]
        cfg = SamplerConfig(n_pairs=150, n_directions=10, seed=8, boundary_bias=1.0)
        uc = feasible.uc_params()
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        assert check_definition1(feasible, uc, cfg).to_json() == one_stack_json(feasible, uc, cfg)


PRUNED_SETS = {
    **DEFINITION1_SETS,
    "lp3_line": LpBall(p=3.0, radius=1.0, dim=1),  # z = +-1: each bound is attained
    "lp3_tiny": LpBall(p=3.0, radius=1e-150, dim=4),
    "lp3_huge": LpBall(p=3.0, radius=1e150, dim=4),
    "levelset_huge": LevelSet(w=1e30, dim=3),
}


class TestPrunedDefinition1:
    """Skipping the rows whose bound is below the floor gives the report of
    one stack of every perturbed point, byte for byte, or its error: on the
    radius-1e150 ball ||x-y||^q overflows, and both raise."""

    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0, 1e3])
    @pytest.mark.parametrize("name", list(PRUNED_SETS))
    def test_report_equals_one_stack(self, name, alpha_scale):
        feasible = PRUNED_SETS[name]
        uc = feasible.uc or UCParams(alpha=0.1, q=2.0)
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        for bias in (0.0, 0.5, 1.0):
            for seed in (11, 12):
                cfg = SamplerConfig(n_pairs=60, n_directions=9, seed=seed, boundary_bias=bias)
                assert_same_outcome(feasible, uc, cfg)
