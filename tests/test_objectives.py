"""Objective oracles, structural descriptors, and the sets' norm
conversions."""

import numpy as np
import pytest

from ucfw import (
    HEBDescriptor,
    InvalidParams,
    L1Ball,
    LpBall,
    QuadraticObjective,
    SchattenBall,
    grad_floor_quadratic,
    heb_from_uniform_convexity,
    objective_from_json,
    sample_feasible,
)
from ucfw.errors import ConfigError
from ucfw.experiments import (
    FIG2_P_GRID,
    ExperimentConfig,
    _ball_quadratic,
    build_problem,
    catalog_sets,
    problem_constants,
)
from ucfw.objectives import quadratic_from_descriptor

CATALOG = dict(catalog_sets())
# the sampled validity tests run on an lp ball and on these catalog sets
NON_LP_SETS = [CATALOG["schatten_2.5"], CATALOG["levelset_sqnorm_w4"]]


class TestHeb:
    def test_strongly_convex_base_case(self):
        heb = heb_from_uniform_convexity(2.0, 2.0)
        assert (heb.mu_heb, heb.theta) == (1.0, 0.5)

    def test_small_modulus(self):
        heb = heb_from_uniform_convexity(0.5, 2.0)
        assert heb.mu_heb == pytest.approx(2.0)

    def test_quartic(self):
        heb = heb_from_uniform_convexity(2.0, 4.0)
        assert (heb.mu_heb, heb.theta) == (1.0, 0.25)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            HEBDescriptor(mu_heb=1.0, theta=0.7)
        with pytest.raises(InvalidParams):
            heb_from_uniform_convexity(0.0, 2.0)

    def test_sampled_points_satisfy_bound(self):
        # ||x - x*|| <= mu_heb h(x)^theta for an unconstrained quadratic
        f = QuadraticObjective(A=2.0 * np.ones(4), x0=np.zeros(4))
        heb = f.heb
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 4))
        for x in X:
            h = f.value(x)
            assert np.linalg.norm(x) <= heb.mu_heb * h**heb.theta + 1e-9


class TestQuadratic:
    def test_eigen_summary(self):
        f = QuadraticObjective(A=np.array([1.0, 4.0, 100.0]), x0=np.zeros(3))
        assert (f.L, f.mu_sc, f.condition_number) == (100.0, 1.0, 100.0)

    def test_rejects_indefinite(self):
        """A diagonal with a zero, negative or NaN entry is refused."""
        for diag in ([1.0, 0.0], [1.0, -2.0], [np.nan, 1.0]):
            with pytest.raises(InvalidParams, match="diagonal of A must be positive"):
                QuadraticObjective(A=np.array(diag), x0=np.zeros(2))

    @pytest.mark.parametrize("A", [np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((1, 2, 2))])
    def test_refuses_a_matrix(self, A):
        """A is the 1-D diagonal; a matrix, positive definite or not, is refused."""
        with pytest.raises(InvalidParams, match="A must be the 1-D diagonal"):
            QuadraticObjective(A=A, x0=np.zeros(2))

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), 0.0])
    def test_refuses_an_x0_of_another_shape(self, x0):
        """x0 has A's shape; another one would fail only at the first value,
        as numpy's broadcasting error."""
        with pytest.raises(InvalidParams, match="x0 must have A's shape"):
            QuadraticObjective(A=np.ones(3), x0=x0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        f = QuadraticObjective(A=rng.uniform(1.0, 6.0, 5), x0=rng.standard_normal(5))
        eps = 1e-6
        for x in rng.standard_normal((100, 5)):
            g = f.gradient(x)
            for i in range(5):
                e = np.zeros(5)
                e[i] = eps
                fd = (f.value(x + e) - f.value(x - e)) / (2 * eps)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("d", [1, 8, 100, 1000])
    def test_batch_value_is_value_per_row(self, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((300, d)) * rng.choice([1e-3, 1.0, 1e3], (300, 1))
        f = QuadraticObjective(A=np.exp(rng.uniform(0.0, 4.6, d)), x0=rng.standard_normal(d))
        want = np.array([f.value(x) for x in X])
        assert f.batch_value(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 8, 100])
    def test_batch_gradient_is_gradient_per_row(self, d):
        """Bit for bit: for the quadratic, a subclass whose gradient
        differs, and an instance whose gradient was replaced."""

        class Clipped(QuadraticObjective):
            def gradient(self, x):
                return np.minimum(super().gradient(x), 1.0)

        rng = np.random.default_rng(d)
        X = rng.standard_normal((300, d)) * rng.choice([1e-3, 1.0, 1e3], (300, 1))
        diag, x0 = np.exp(rng.uniform(0.0, 4.6, d)), rng.standard_normal(d)
        replaced = QuadraticObjective(A=diag, x0=x0)
        replaced.gradient = lambda x: np.zeros_like(x)
        for f in [
            QuadraticObjective(A=diag, x0=x0),
            Clipped(A=diag, x0=x0),
            replaced,
        ]:
            want = np.array([f.gradient(x) for x in X])
            got = f.batch_gradient(X)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_grad_floor_set_at_construction(self):
        assert QuadraticObjective(A=np.ones(2), x0=np.zeros(2)).grad_floor is None
        assert QuadraticObjective(A=np.ones(2), x0=np.zeros(2), grad_floor=0.3).grad_floor == 0.3

    def test_smoothness_constant(self):
        f = QuadraticObjective(A=np.array([1.0, 3.0]), x0=np.zeros(2))
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
            assert lhs <= f.L * np.linalg.norm(x - y) + 1e-12


class TestNormConversion:
    def test_l2_identity(self):
        assert 3.0 * LpBall(p=2.0, radius=1.0, dim=10).norm_equivalence().smoothness == 3.0

    def test_p_above_two(self):
        # ||.||_p <= ||.||_2 and ||.||_{p*} dual pairing lose d^{1-2/p}
        assert LpBall(p=4.0, radius=1.0, dim=16).norm_equivalence().smoothness == pytest.approx(16.0 ** 0.5)

    def test_conversion_is_valid_smoothness(self):
        rng = np.random.default_rng(4)
        for feasible in [LpBall(p=3.0, radius=1.0, dim=6), *NON_LP_SETS]:
            d = feasible.dim
            f = QuadraticObjective(A=np.linspace(1, 2, d), x0=np.zeros(d))
            Lp = f.L * feasible.norm_equivalence().smoothness
            for _ in range(200):
                x, y = rng.standard_normal(d), rng.standard_normal(d)
                lhs = feasible.dual_norm(f.gradient(x) - f.gradient(y))
                assert lhs <= Lp * feasible.norm(x - y) + 1e-12

    def test_dual_floor_factor(self):
        rng = np.random.default_rng(6)
        for feasible in [LpBall(p=3.0, radius=1.0, dim=8), *NON_LP_SETS]:
            factor = feasible.norm_equivalence().dual_floor
            for g in rng.standard_normal((200, feasible.dim)):
                assert feasible.dual_norm(g) >= factor * np.linalg.norm(g) - 1e-12

    def test_problem_constants_finite_on_catalog(self):
        for name, feasible in catalog_sets():
            if feasible.uc is not None:
                consts = problem_constants(feasible, _ball_quadratic(feasible))
                assert all(0.0 < v < np.inf for v in consts.values()), (name, consts)


def _floor_cases():
    """(id, set, quadratic) pairs: every catalog set, an l1, an l-infinity
    and a 2x4 Schatten ball under anisotropic quadratics whose x0 is 3
    radii out in the set's norm along the ones vector, e1 and a seeded
    direction, or inside the set; and fig2's ten instances."""
    sets = [*catalog_sets(), ("l1_r1", L1Ball(radius=1.0, dim=8)),
            ("linf_r1", LpBall(p=float("inf"), radius=1.0, dim=8)),
            ("schatten_4_2x4", SchattenBall(p=4.0, rows=2, cols=4, radius=1.0))]
    cases = []
    for name, feasible in sets:
        d = feasible.dim
        e1 = np.eye(d)[0]
        seeded = np.random.default_rng(len(cases)).standard_normal(d)
        for where, direction, scale in [("ones", np.ones(d), 3.0), ("e1", e1, 3.0),
                                        ("seeded", seeded, 3.0), ("inside", seeded, 0.5)]:
            x0 = scale * feasible.boundary_point(direction)
            cases.append((f"{name}-{where}", feasible, QuadraticObjective(A=np.logspace(0, 2, d), x0=x0)))
    for location in ("curved", "flat"):
        for p in FIG2_P_GRID:
            cases.append((f"fig2-{location}-p{p:g}", *build_problem(ExperimentConfig(optimum_location=location), p)))
    return cases


FLOOR_CASES = _floor_cases()


def enclosing_ball_floor(f, feasible) -> float:
    """The floor through the l2 ball that encloses the set, radius
    r n^max(0, 1/2 - 1/p): the bound the support function replaced."""
    n, p = feasible.lp_equivalent
    enclosing = feasible.radius * n ** max(0.0, 0.5 - 1.0 / p)
    dist = max(0.0, float(np.linalg.norm(f.x0)) - enclosing)
    return f.mu_sc * dist * feasible.norm_equivalence().dual_floor


class TestGradFloor:
    def test_identity_far_center(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([10.0, 0.0]))
        ball = LpBall(p=2.0, radius=5.0, dim=2)
        assert grad_floor_quadratic(f, ball) == pytest.approx(5.0)

    def test_feasible_center_gives_zero(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([1.0, 0.0]))
        assert grad_floor_quadratic(f, LpBall(p=2.0, radius=5.0, dim=2)) == 0.0

    def test_anisotropic_lower_bound_vs_sampling(self):
        f = QuadraticObjective(A=np.array([1.0, 100.0]), x0=np.array([10.0, 0.0]))
        ball = LpBall(p=2.0, radius=5.0, dim=2)
        c = grad_floor_quadratic(f, ball)
        assert c == pytest.approx(5.0)
        rng = np.random.default_rng(8)
        dirs = rng.standard_normal((10**5, 2))
        pts = 5.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        pts *= rng.random(10**5)[:, None] ** 0.5
        grads = (pts - f.x0) * np.array([1.0, 100.0])
        assert np.linalg.norm(grads, axis=1).min() >= c - 1e-9
        # the floor in the dual norm of non-lp sets, at the verifier's samples
        for feasible in NON_LP_SETS:
            d = feasible.dim
            f = QuadraticObjective(A=np.logspace(0, 2, d), x0=np.ones(d) * (3.0 * feasible.radius / np.sqrt(d)))
            c = grad_floor_quadratic(f, feasible)
            assert c > 0.0
            pts = sample_feasible(feasible, 10**4, rng, 0.5)
            grads = (pts - f.x0) * f.A
            assert feasible.batch_dual_norm(grads).min() >= c - 1e-9

    def test_l1_ball_uses_dual_sup_norm(self):
        f = QuadraticObjective(A=np.ones(2), x0=np.array([4.0, 4.0]))
        ball = L1Ball(radius=1.0, dim=2)
        c = grad_floor_quadratic(f, ball)
        assert c > 0.0
        # floor must hold for the actual dual (sup) norm on sampled points
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1, 1, (2000, 2))
        pts = pts[np.abs(pts).sum(axis=1) <= 1.0]
        sup = np.abs(pts - f.x0).max(axis=1)
        assert sup.min() >= c - 1e-9

    @pytest.mark.parametrize("name, feasible, f", FLOOR_CASES, ids=[case[0] for case in FLOOR_CASES])
    def test_below_sampled_dual_gradient_norms(self, name, feasible, f):
        c = grad_floor_quadratic(f, feasible)
        rng = np.random.default_rng(12)
        for bias in (1.0, 0.5):
            pts = sample_feasible(feasible, 4000, rng, bias)
            assert feasible.batch_dual_norm(f.batch_gradient(pts)).min() >= c - 1e-9

    @pytest.mark.parametrize("name, feasible, f", FLOOR_CASES, ids=[case[0] for case in FLOOR_CASES])
    def test_never_below_the_enclosing_ball_floor(self, name, feasible, f):
        # roundoff may put it an ulp below: 1.1339340169263843 against
        # ...847 on lp_5_r1's ball quadratic
        old = enclosing_ball_floor(f, feasible)
        assert grad_floor_quadratic(f, feasible) >= old * (1.0 - 1e-12)

    def test_outside_points_along_the_ones_vector_get_a_positive_floor(self):
        for name, feasible, f in FLOOR_CASES:
            if name.endswith("-ones"):
                assert grad_floor_quadratic(f, feasible) > 0.0, name

    def test_fig2_floors(self):
        """Flat x0 = 15 e1 lies 10 from every ball; the curved floors are
        the enclosing ball's, which is exact along the ones vector."""
        for name, feasible, f in FLOOR_CASES:
            if name.startswith("fig2-flat"):
                assert grad_floor_quadratic(f, feasible) == pytest.approx(10.0, rel=1e-12), name
            elif name.startswith("fig2-curved"):
                old = enclosing_ball_floor(f, feasible)
                assert grad_floor_quadratic(f, feasible) == pytest.approx(old, rel=1e-12, abs=0.0), name

    def test_zero_x0_gives_zero(self):
        f = QuadraticObjective(A=np.ones(3), x0=np.zeros(3))
        assert grad_floor_quadratic(f, LpBall(p=3.0, radius=1.0, dim=3)) == 0.0


class TestDescriptors:
    def test_quadratic_from_descriptor_cond(self):
        f = quadratic_from_descriptor(dim=10, cond=100.0, x0_direction="ones", x0_scale=3.0)
        assert f.condition_number == pytest.approx(100.0)
        assert np.linalg.norm(f.x0) == pytest.approx(3.0)

    def test_descriptor_is_reproducible(self):
        a = quadratic_from_descriptor(dim=6, cond=10.0, x0_direction="e1", x0_scale=2.0)
        b = quadratic_from_descriptor(dim=6, cond=10.0, x0_direction="e1", x0_scale=2.0)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.x0, b.x0)

    def test_json_round_trip(self):
        f = objective_from_json(
            {"family": "quadratic", "dim": 4, "cond": 7.0, "x0_direction": "ones", "x0_scale": 1.0}
        )
        assert f.condition_number == pytest.approx(7.0)

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            quadratic_from_descriptor(dim=4, cond=2.0, x0_direction="diag", x0_scale=1.0)
