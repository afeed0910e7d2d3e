"""The sampling verifier: positive checks on the catalog, negative controls."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ucfw import (
    L1Ball,
    LevelSet,
    LpBall,
    QuadraticObjective,
    RunTrace,
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
    reference_optimum,
    run_fw,
    sample_feasible,
    theorem1_bound,
)
from ucfw.experiments import catalog_sets, problem_constants, run_check, x_init_for
from ucfw import verify as verify_module
from ucfw.verify import CHECK_TOL, TRACE_TOL

CFG = SamplerConfig(n_pairs=300, seed=0)


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

    @pytest.mark.parametrize(
        "feasible", [LpBall(p=3.0, radius=1.0, dim=1), LevelSet(w=4.0, dim=1)], ids=["lp3", "levelset"]
    )
    def test_catalog_on_a_line(self, feasible):
        """Half the boundary pairs have y = -x, so c = 0 at eta = 1/2."""
        cfg = SamplerConfig(n_pairs=300, seed=0, boundary_bias=1.0)
        assert check_definition1(feasible, feasible.uc_params(), cfg).passed

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
        cfg = SamplerConfig(n_pairs=300, seed=0, boundary_bias=1.0)
        assert not check_lemma1(diamond, fake, f, cfg).passed


class TestLocalScaling:
    def _solved_l3(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        f = _ball_objective(ball)
        x_star, f_star, _ = reference_optimum(ball, f)
        return ball, f, x_init_for(ball, 0), x_star, f_star

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
        # x0 lies 2 outside the ball, so the gradient floor over it is 2 and
        # x0, where the gradient vanishes, cannot be the optimum
        ball = LpBall(p=2.0, radius=1.0, dim=3)
        f = QuadraticObjective(A=np.ones(3), x0=np.array([3.0, 0.0, 0.0]))
        with pytest.raises(StaleOptimum, match="gradient floor over the set is 2"):
            check_local_scaling(ball, f, f.x0, 0.5, 2.0, CFG)

    def test_gradient_below_the_floor_raises(self):
        # x* = (2.5, 0, 0) has gradient norm 0.5, below the floor 2
        ball = LpBall(p=2.0, radius=1.0, dim=3)
        f = QuadraticObjective(A=np.ones(3), x0=np.array([3.0, 0.0, 0.0]))
        with pytest.raises(StaleOptimum, match="= 0.5 although the gradient floor over the set is 2"):
            check_local_scaling(ball, f, np.array([2.5, 0.0, 0.0]), 0.5, 2.0, CFG)

    @pytest.mark.parametrize("scale", [1e-12, 1e-150])
    def test_staleness_is_relative(self, scale):
        """A ball and quadratic shrunk together: the optimum's gradient
        shrinks with them and stays on the floor, and x0 stays stale."""
        ball = LpBall(p=2.0, radius=scale, dim=3)
        f = QuadraticObjective(A=np.ones(3), x0=np.array([3.0 * scale, 0.0, 0.0]))
        assert check_local_scaling(ball, f, np.array([scale, 0.0, 0.0]), 0.5 / scale, 2.0, CFG).passed
        with pytest.raises(StaleOptimum):
            check_local_scaling(ball, f, f.x0, 0.5 / scale, 2.0, CFG)

    def test_interior_optimum_is_not_stale(self):
        # x0 is interior: the floor is 0, and x0 is the optimum
        ball = LpBall(p=2.0, radius=5.0, dim=3)
        f = QuadraticObjective(A=np.ones(3), x0=np.array([1.0, 0.0, 0.0]))
        assert check_local_scaling(ball, f, f.x0, 0.5, 2.0, CFG).passed

    def test_flat_face_negative_control(self):
        diamond = L1Ball(radius=1.0, dim=2)
        f = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
        x_star, _, _ = reference_optimum(diamond, f)
        cfg = SamplerConfig(n_pairs=300, seed=0, boundary_bias=1.0)
        assert not check_local_scaling(diamond, f, x_star, 0.5, 2.0, cfg).passed

    def test_curved_location_supports_larger_alpha_than_flat(self):
        ball = LpBall(p=3.0, radius=1.0, dim=6)
        results = {}
        for tag, direction in (("curved", np.ones(6)), ("flat", np.eye(6)[0])):
            f = QuadraticObjective(A=np.ones(6), x0=3.0 * direction / np.linalg.norm(direction))
            x_star, _, _ = reference_optimum(ball, f)
            # q = 2: an axis point of the l3 ball has vanishing second-order
            # curvature, so its quadratic modulus is strictly smaller
            results[tag] = estimate_local_alpha(ball, f, x_star, q=2.0, cfg=CFG)
        assert results["curved"] > results["flat"]


class TestLemma3:
    def _trace(self, ball, f, T=1500):
        _, f_star, _ = reference_optimum(ball, f)
        return run_fw(ball, f, x_init_for(ball, 0), StepRule.short(), T, f_star=f_star)

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

    def test_primal_gap_below_zero_reads_zero(self):
        """A gap of -4.4e-16, roundoff below an exact f*, allows distance 0
        where its root would be NaN."""
        n = 3
        trace = RunTrace(t=np.arange(n), gamma=np.zeros(n), fw_gap=np.zeros(n),
                         primal_gap=np.array([2.0, 0.25, -4.4e-16]), dist_to_vertex=np.array([1.0, 0.5, 0.0]),
                         grad_dual_norm=np.ones(n))
        with np.errstate(invalid="raise"):
            report = check_lemma3(trace, c=1.0, alpha=0.25, q=2.0, L=1.0)
        assert report.passed and report.config["burn_in"] == 1
        trace.dist_to_vertex[2] = 1e-6  # the allowed distance at h = 0 is 0
        assert check_lemma3(trace, c=1.0, alpha=0.25, q=2.0, L=1.0).witness["t"] == 2


def test_local_scaling_reference_ignores_the_sampler_seed(monkeypatch):
    """run_check's reference optimum depends on the set and its quadratic
    alone: two sampler seeds see the same x* on the Schatten ball, whose
    reference is the Frank-Wolfe one."""
    feasible = SchattenBall(p=2.5, rows=3, cols=3, radius=1.0)
    seen = []
    real = verify_module.check_local_scaling

    def recording(feasible, f, x_star, *rest):
        seen.append(x_star.tobytes())
        return real(feasible, f, x_star, *rest)

    monkeypatch.setattr(verify_module, "check_local_scaling", recording)
    for seed in (0, 5):
        assert run_check("local_scaling", feasible, feasible.uc_params(), SamplerConfig(n_pairs=50, seed=seed)).passed
    assert len(seen) == 2 and seen[0] == seen[1]


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
EDGE_CFG = SamplerConfig(n_pairs=300, seed=0, boundary_bias=1.0)


def _trace_report(passing):
    """Theorem 1 on a short-step l3 run, or the same run against an envelope
    shrunk below its gaps."""
    ball = LpBall(p=3.0, radius=1.0, dim=8)
    f = _ball_objective(ball)
    _, f_star, _ = reference_optimum(ball, f)
    trace = run_fw(ball, f, x_init_for(ball, 0), StepRule.short(), 2000, f_star=f_star)
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
    x_star, f_star, _ = reference_optimum(DIAMOND, F_FLAT)
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
        x_star, _, _ = reference_optimum(feasible, f)
        cfg = SamplerConfig(n_pairs=200, seed=5, boundary_bias=0.5)
        for q in (2.0, 3.0):
            report = check_local_scaling(feasible, f, x_star, alpha, q, cfg)
            want = per_sample_local_scaling(feasible, f, x_star, alpha, q, cfg)
            assert_report_matches(report, *want, CHECK_TOL)
            assert estimate_local_alpha(feasible, f, x_star, q, cfg) == pytest.approx(
                per_sample_local_alpha(feasible, f, x_star, q, cfg), abs=1e-12
            )


# ---------------------------------------------------------------------------
# Definition 1 at its farthest point against sampled directions
# ---------------------------------------------------------------------------


def monolithic_definition1(feasible, uc, cfg, n_directions, farthest=False):
    """The excess of every point c + rho z over sampled unit directions z,
    as one (11, pairs, directions) stack; with ``farthest``, z = c / ||c||
    (or, where c = 0, the first sampled z) joins each (eta, pair) row as
    its last direction.  The pairs are ``check_definition1``'s, and the
    directions are drawn after them."""
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Y = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Z = rng.standard_normal((n_directions, feasible.dim))
    Z /= feasible.batch_norm(Z)[:, None]
    etas = np.linspace(0.0, 1.0, 11)
    dist = feasible.batch_norm(X - Y)
    radial = (etas[:, None] * (1.0 - etas[:, None])) * uc.alpha * dist[None, :] ** uc.q
    combo = etas[:, None, None] * X[None, :, :] + (1.0 - etas[:, None, None]) * Y[None, :, :]
    Z = np.broadcast_to(Z, (*radial.shape, *Z.shape))
    if farthest:
        norm = feasible.batch_norm(combo)[..., None]
        along = np.where(norm == 0.0, Z[:, :, 0], combo / np.where(norm == 0.0, 1.0, norm))
        Z = np.concatenate([Z, along[:, :, None, :]], axis=2)
    points = combo[:, :, None, :] + radial[:, :, None, None] * Z
    return feasible.batch_membership_excess(points)


def assert_farthest_point(feasible, uc, cfg, n_directions):
    """``check_definition1`` against the sampled directions: its worst
    violation is at least theirs, it fails wherever they fail, and with
    z = c / ||c|| joined to them each (eta, pair) row reaches its largest
    excess at z, whose worst over the rows is the report's.  Each holds to
    within 1e-12 of the set's scale plus the excess's own size, which
    covers the roundoff between c (1 + rho / ||c||) and c + rho c / ||c||.
    Where a sampled excess is NaN or infinite the check raises too."""
    with np.errstate(over="ignore", invalid="ignore"):
        stack = monolithic_definition1(feasible, uc, cfg, n_directions, farthest=True)
    sampled, far = stack[..., :-1].max(axis=2), stack[..., -1]
    if not sampled.max() < math.inf:
        with pytest.raises(UCFWError, match="^definition1: worst violation is (nan|inf); numerical breakdown$"):
            check_definition1(feasible, uc, cfg)
        return
    report = check_definition1(feasible, uc, cfg)
    scale = abs(feasible.membership_excess(np.zeros(feasible.dim)))
    slack = 1e-12 * (scale + abs(far.max()))
    assert report.worst_violation >= max(sampled.max(), 0.0) - slack
    if sampled.max() > CHECK_TOL:
        assert not report.passed
    assert np.all(stack.max(axis=2) - far <= 1e-12 * (scale + np.abs(far)))
    assert abs(report.worst_violation - max(far.max(), 0.0)) <= slack
    if not report.passed:
        ie = int(np.flatnonzero(np.linspace(0.0, 1.0, 11) == report.witness["eta"])[0])
        assert far[ie, report.witness["pair_index"]] >= far.max() - slack
        assert report.witness["excess"] == report.worst_violation


DEFINITION1_SETS = {
    **BATCH_SETS,
    "levelset": LevelSet(w=4.0, dim=4),
    "lp3_line": LpBall(p=3.0, radius=1.0, dim=1),  # z = +-1: each row's excess is attained
    "levelset_line": LevelSet(w=4.0, dim=1),
    "lp3_tiny": LpBall(p=3.0, radius=1e-150, dim=4),
    "lp3_huge": LpBall(p=3.0, radius=1e150, dim=4),  # ||x-y||^q overflows: both raise
    "levelset_huge": LevelSet(w=1e30, dim=3),
}


class EtaProbe(FeasibleSet):
    """An l2 ball in the plane whose sampler puts the i-th x at (1, i) and
    the i-th y at (0, i), so that, for a tiny alpha, the farthest point of
    weight eta and pair i is (eta, i).  Its excess is ``value`` at each
    (eta, pair) of ``spots`` and 0 elsewhere."""

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
        out = np.zeros(eta.shape)
        for e, i, value in self.spots:
            out[np.isclose(eta, e, rtol=0.0, atol=1e-12) & (pair == i)] = value
        return out


PROBE_UC = UCParams(alpha=1e-300, q=2.0)
PROBE_CFG = SamplerConfig(n_pairs=8, seed=0, boundary_bias=1.0)


class TestStreamedDefinition1:
    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0])
    @pytest.mark.parametrize("name", list(DEFINITION1_SETS))
    def test_matches_one_stack(self, name, alpha_scale):
        feasible = DEFINITION1_SETS[name]
        uc = feasible.uc or UCParams(alpha=0.1, q=2.0)
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        assert_farthest_point(feasible, uc, SamplerConfig(n_pairs=200, seed=6), n_directions=20)
        assert_farthest_point(feasible, uc, SamplerConfig(n_pairs=37, seed=7, boundary_bias=1.0), n_directions=7)

    def test_weights_0_and_1_evaluate_each_pair_once(self):
        """One stack of pairs per weight: at eta = 0 and 1 the pairs' y and
        x themselves, bit for bit, and at each interior eta one farthest
        point per pair."""
        evaluated = []

        class RecordingBall(LpBall):
            def batch_membership_excess(self, X):
                evaluated.append(np.array(X))
                return super().batch_membership_excess(X)

        cfg = SamplerConfig(n_pairs=30, seed=2)
        ball = RecordingBall(p=3.0, radius=1.0, dim=5)
        assert check_definition1(ball, ball.uc_params(), cfg).passed
        rng = np.random.default_rng(cfg.seed)
        X = sample_feasible(ball, 30, rng, cfg.boundary_bias)
        Y = sample_feasible(ball, 30, rng, cfg.boundary_bias)
        assert [points.shape for points in evaluated] == [(30, 5)] * 11
        assert np.array_equal(evaluated[0], Y) and np.array_equal(evaluated[-1], X)

    def test_witness_at_weight_1_names_the_pair(self):
        report = check_definition1(EtaProbe([(1.0, 4, 2.0)]), PROBE_UC, PROBE_CFG)
        assert report.witness == {"eta": 1.0, "pair_index": 4, "chord_length": 1.0, "excess": 2.0}

    def test_tie_across_weights_keeps_the_earlier_eta(self):
        spots = [(0.3, 5, 1.0), (0.7, 1, 1.0)]
        report = check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert not report.passed and report.worst_violation == 1.0
        assert report.witness == {
            "eta": float(np.linspace(0.0, 1.0, 11)[3]),
            "pair_index": 5,
            "chord_length": 1.0,
            "excess": 1.0,
        }

    @pytest.mark.parametrize("first", [True, False])
    def test_top_row_merges_in_pair_order(self, first):
        """The top excess at eta = 0.5, 2, is reached by pair 4, listed
        first, by pair 6 and, with ``first``, by pair 2.  The witness is
        the first of the tied pairs in pair order, not in listing order."""
        spots = [(0.5, 4, 2.0), (0.5, 6, 2.0), (0.2, 3, 1.0)]
        if first:
            spots.append((0.5, 2, 2.0))
        report = check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert report.witness == {
            "eta": 0.5,
            "pair_index": 2 if first else 4,
            "chord_length": 1.0,
            "excess": 2.0,
        }

    def test_nan_in_a_later_weight_fails_like_one_stack(self):
        """A NaN excess anywhere is a numerical breakdown, not a verdict:
        the check raises, and the stack of sampled directions holds the NaN
        too."""
        spots = [(0.2, 3, 1.0), (0.8, 0, np.nan)]
        with pytest.raises(UCFWError, match="^definition1: worst violation is nan; numerical breakdown$"):
            check_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG)
        assert np.isnan(monolithic_definition1(EtaProbe(spots), PROBE_UC, PROBE_CFG, 4).max())

    def test_memory_grows_with_pairs(self):
        """At 20 000 pairs the check holds one (11, pairs) excess grid and
        the points of one weight."""
        ball = LpBall(p=3.0, radius=1.0, dim=8)
        cfg = SamplerConfig(n_pairs=20_000, seed=0)
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
        uc = feasible.uc_params()
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        assert_farthest_point(feasible, uc, SamplerConfig(n_pairs=150, seed=8, boundary_bias=1.0), n_directions=10)


class TestPrunedDefinition1:
    """The check prunes every direction z but the farthest, z = c / ||c||,
    and so is the worst over the sampled directions: the property of
    :func:`assert_farthest_point` over every set, three alpha scales, three
    boundary biases and two seeds."""

    @pytest.mark.parametrize("alpha_scale", [1.0, 50.0, 1e3])
    @pytest.mark.parametrize("name", list(DEFINITION1_SETS))
    def test_report_equals_one_stack(self, name, alpha_scale):
        feasible = DEFINITION1_SETS[name]
        uc = feasible.uc or UCParams(alpha=0.1, q=2.0)
        uc = UCParams(alpha=uc.alpha * alpha_scale, q=uc.q)
        for bias in (0.0, 0.5, 1.0):
            for seed in (11, 12):
                assert_farthest_point(feasible, uc, SamplerConfig(n_pairs=60, seed=seed, boundary_bias=bias), n_directions=9)
