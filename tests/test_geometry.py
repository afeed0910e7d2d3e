"""Oracle-backed tests for feasible sets, LMOs, and the curvature catalog."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucfw
from ucfw import (
    InvalidParams,
    L1Ball,
    LevelSet,
    LpBall,
    NotUniformlyConvex,
    SchattenBall,
    UCParams,
    ZeroDirection,
    dual_exponent,
    lmo_l1,
    lmo_lp,
    lmo_schatten,
    lp_ball_uc_params,
    lp_norm,
    levelset_uc_params,
    set_from_json,
)
from ucfw.errors import ConfigError
from ucfw.experiments import catalog_sets
from ucfw.geometry import _GRAM_BLOCK, _batch_lp_norm, _row_max

JSON_FAMILIES = (
    {"family": "lp", "p": 2.5, "radius": 3.0, "dim": 4},
    {"family": "l1", "radius": 1.0, "dim": 4},
    {"family": "schatten", "p": 3.0, "rows": 2, "cols": 3, "radius": 1.0},
    {"family": "levelset", "kind": "sqnorm", "w": 2.0, "dim": 4},
)


def sample_ball(ball, n, rng):
    """Uniform-ish feasible samples: boundary directions pulled inward."""
    dirs = rng.standard_normal((n, ball.dim))
    pts = np.empty_like(dirs)
    shrink = rng.random(n) ** (1.0 / ball.dim)
    for i in range(n):
        pts[i] = np.asarray(ball.boundary_point(dirs[i].reshape(-1))).ravel() * shrink[i]
    return pts


class TestLmoLp:
    def test_euclidean_axis(self):
        np.testing.assert_allclose(lmo_lp(2.0, 1.0, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_l3_diagonal_closed_form(self):
        # brute-force oracle: closed form must dominate a large boundary sample
        v = lmo_lp(3.0, 5.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(v, [5.0 * 2 ** (-1 / 3)] * 2, rtol=1e-12)
        phi = np.array([1.0, 1.0])
        assert np.dot(phi, v) == pytest.approx(5.0 * 2 ** (2 / 3), rel=1e-12)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((10**6, 2))
        norms = (np.abs(samples) ** 3).sum(axis=1) ** (1 / 3)
        samples = 5.0 * samples / norms[:, None]
        assert (samples @ phi).max() <= np.dot(phi, v) + 1e-9

    def test_axis_direction_any_p(self):
        np.testing.assert_allclose(lmo_lp(1.5, 1.0, np.array([0.0, -2.0])), [0.0, -1.0])

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            lmo_lp(3.0, 1.0, np.zeros(4))

    def test_requires_p_above_one(self):
        with pytest.raises(InvalidParams):
            lmo_lp(1.0, 1.0, np.ones(3))

    @given(
        p=st.floats(1.1, 40.0),
        seed=st.integers(0, 10**6),
        dim=st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_duality_and_feasibility(self, p, seed, dim):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(dim)
        v = lmo_lp(p, 2.0, phi)
        assert lp_norm(v, p) == pytest.approx(2.0, rel=1e-10)
        assert np.dot(phi, v) == pytest.approx(2.0 * lp_norm(phi, dual_exponent(p)), rel=1e-10)


def lmo_lp_reference(p, r, phi):
    """The single-vector lmo_lp formula as first written, kept verbatim as a
    bit-for-bit reference for the lean one-vector path."""
    phi = np.asarray(phi, dtype=float)
    a = np.abs(phi)
    m = a.max(axis=-1, keepdims=True, initial=0.0)
    if np.count_nonzero(m) < m.size:
        raise ZeroDirection("lmo_lp called with phi = 0")
    pstar = dual_exponent(p)
    w = (a / m) ** (pstar - 1.0)
    sums = (w**p).sum(axis=-1)
    scale = r / float(sums ** (1.0 / p))
    return scale * np.where(phi >= 0.0, 1.0, -1.0) * w


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


LEAN_P_GRID = (1.5, 2.5, 3.0, 5.0, 10.0, np.inf)


class TestLmoLpOneVector:
    @given(
        p=st.sampled_from(LEAN_P_GRID),
        r=st.sampled_from([0.3, 1.0, 5.0]),
        dim=st.integers(1, 300),
        rows=st.integers(1, 4),
        log_scale=st.floats(-5.0, 5.0),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_match_one_vector_and_reference(self, p, r, dim, rows, log_scale, zero_share, seed):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((rows, dim)) * 10.0**log_scale
        # signed zeros in a share of the entries, never a whole row
        zeros = rng.random((rows, dim)) < zero_share
        zeros[:, rng.integers(dim)] = False
        Phi[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
        batch = lmo_lp(p, r, Phi)
        for i in range(rows):
            one = lmo_lp(p, r, Phi[i])
            assert same_bits(one, batch[i])
            assert same_bits(one, lmo_lp_reference(p, r, Phi[i]))

    @pytest.mark.parametrize("p", LEAN_P_GRID)
    @pytest.mark.parametrize(
        "phi", [np.zeros(5), -np.zeros(5), np.zeros(1), np.zeros(0)], ids=["zero", "negative-zero", "one-zero", "empty"]
    )
    def test_zero_and_empty_raise_like_reference(self, p, phi):
        for oracle in (lmo_lp, lmo_lp_reference):
            with pytest.raises(ZeroDirection, match="phi = 0"):
                oracle(p, 1.0, phi)

    @pytest.mark.parametrize("p", LEAN_P_GRID)
    def test_non_finite_entries_match_reference(self, p):
        for phi in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.0]):
            with np.errstate(invalid="ignore"):  # NaN positions agree; NaN bits carry nothing
                np.testing.assert_array_equal(lmo_lp(p, 2.0, phi), lmo_lp_reference(p, 2.0, phi))


class TestL2NormRange:
    """The l2 norms rescale by the max entry only where the squares over- or
    underflow, so normal inputs keep the unscaled result's bits."""

    @pytest.mark.parametrize("x", [[1e300, 0.0], [-1e300, 0.0], [1e-200, 0.0], [0.0, 5e-324]])
    def test_huge_and_tiny_entries(self, x):
        want = abs(x[0]) or x[1]
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        assert lp_norm(x, 2.0) == want
        assert ball.dual_norm(np.array(x)) == want
        assert ball.batch_norm(np.array([x, [3.0, 4.0]])).tolist() == [want, 5.0]
        assert LevelSet(w=1.0, dim=2).batch_norm(np.array(x)) == want

    def test_normal_inputs_keep_their_bits(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 17)) * 10.0 ** rng.uniform(-100, 100, (200, 1))
        X[::7] *= 1e200  # rows that need rescaling sit between normal ones
        with np.errstate(over="ignore"):
            squares = (X * X).sum(axis=-1)
        batch = LpBall(p=2.0, radius=1.0, dim=17).batch_norm(X)
        for x, n, s in zip(X, batch, squares):
            if np.finfo(float).tiny <= s < np.inf:
                assert same_bits(n, np.sqrt(s))
                assert same_bits(lp_norm(x, 2.0), np.linalg.norm(x))
            assert n == pytest.approx(lp_norm(x, 2.0), rel=1e-14)
            assert n == pytest.approx(np.abs(x).max() * np.linalg.norm(x / np.abs(x).max()), rel=1e-14)

    @pytest.mark.parametrize(
        "x, want",
        [([1e308, 1e308], 1e308 * np.sqrt(2.0)), ([1.5e308, 1.5e308], np.inf), ([np.inf, 1.0], np.inf), ([np.nan, 1.0], np.nan), ([0.0, -0.0], 0.0), ([], 0.0)]
    )
    def test_non_finite_and_zero(self, x, want):
        with np.errstate(over="ignore"):
            got = [lp_norm(x, 2.0), LpBall(p=2.0, radius=1.0, dim=2).batch_norm(np.array([x]).reshape(1, -1))[0]]
        np.testing.assert_equal(got, [want, want])


class TestLmoL1:
    def test_unique_max(self):
        np.testing.assert_allclose(lmo_l1(1.0, np.array([3.0, -5.0, 1.0])), [0.0, -1.0, 0.0])

    def test_tie_lowest_index(self):
        np.testing.assert_allclose(lmo_l1(2.0, np.array([1.0, 1.0])), [2.0, 0.0])

    def test_against_vertex_enumeration(self):
        phi = np.array([0.1, 0.1, 0.3])
        v = lmo_l1(1.0, phi)
        np.testing.assert_allclose(v, [0.0, 0.0, 1.0])
        vertices = np.concatenate([np.eye(3), -np.eye(3)])
        assert np.dot(phi, v) >= (vertices @ phi).max() - 1e-15

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            lmo_l1(1.0, np.zeros(2))


class TestLmoSchatten:
    def test_rank_one_axis(self):
        G = np.diag([1.0, 0.0])
        np.testing.assert_allclose(lmo_schatten(2.0, 1.0, G), G, atol=1e-12)

    def test_diagonal_reduces_to_vector_oracle(self):
        G = np.diag([1.0, 1.0])
        V = lmo_schatten(3.0, 5.0, G)
        expected = np.diag(lmo_lp(3.0, 5.0, np.ones(2)))
        assert abs(np.vdot(G, V) - np.vdot(G, expected)) < 1e-10

    def test_value_is_dual_schatten_norm(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((4, 3))
        V = lmo_schatten(2.5, 1.0, G)
        sv = np.linalg.svd(G, compute_uv=False)
        assert np.vdot(G, V) == pytest.approx(lp_norm(sv, dual_exponent(2.5)), rel=1e-8)

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            lmo_schatten(2.0, 1.0, np.zeros((3, 3)))

    def test_ball_takes_flat_row_major_points(self):
        ball = SchattenBall(p=2.5, rows=2, cols=3, radius=2.0)
        G = np.array([[3.0, -1.0, 0.5], [0.0, 2.0, 1.0]])
        sv = np.linalg.svd(G, compute_uv=False)
        assert ball.norm(G.ravel()) == pytest.approx(lp_norm(sv, 2.5), rel=1e-14)
        assert ball.dual_norm(G.ravel()) == lp_norm(sv, dual_exponent(2.5))
        v = ball.lmo(G.ravel())
        assert v.shape == (6,)
        np.testing.assert_array_equal(v, lmo_schatten(2.5, 2.0, G).ravel())

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4, 2), (5, 5), (1, 4)])
    def test_batch_lmo_equals_lmo_row_by_row(self, shape):
        rng = np.random.default_rng(11)
        Phi = rng.standard_normal((300, shape[0] * shape[1])) * np.exp(rng.uniform(-5.0, 5.0, (300, 1)))
        for p in (1.5, 2.5, 4.0):
            ball = SchattenBall(p=p, rows=shape[0], cols=shape[1], radius=1.7)
            V = ball.lmo(Phi)
            assert V.shape == Phi.shape
            for phi, v in zip(Phi, V):
                np.testing.assert_array_equal(v, ball.lmo(phi))

    def test_stacked_zero_matrix_raises(self):
        ball = SchattenBall(p=2.5, rows=2, cols=3, radius=1.0)
        Phi = np.ones((4, 6))
        Phi[2] = 0.0
        with pytest.raises(ZeroDirection):
            ball.lmo(Phi)
        with pytest.raises(ZeroDirection):
            lmo_schatten(2.5, 1.0, Phi.reshape(4, 2, 3))

    def test_non_finite_matrix_gets_nan_vertex(self):
        """As lmo_lp gives an inf entry, a matrix holding inf or NaN gets a
        NaN vertex.  LAPACK's SVD of a 3x3 matrix holding inf may never
        return, so this runs in a child process with a timeout."""
        code = textwrap.dedent("""
            import numpy as np
            from ucfw import SchattenBall, ZeroDirection
            from ucfw.geometry import lmo_lp
            assert np.isnan(lmo_lp(2.5, 1.0, np.array([np.inf, 1.0, 2.0]))).all()
            for p in (1.5, 2.5):
                for shape in ((3, 3), (2, 4)):
                    ball = SchattenBall(p, *shape, 1.0)
                    X = np.arange(1.0, 4 * ball.dim + 1).reshape(4, ball.dim)
                    X[0, 0], X[1, 3], X[2, :2] = np.inf, -np.inf, (np.nan, np.inf)
                    V = ball.lmo(X)
                    assert np.isnan(V[:3]).all() and np.isfinite(V[3]).all()
                    assert np.array_equal(V[3], ball.lmo(X[3]))
                    assert all(np.isnan(ball.lmo(x)).all() for x in X[:3])
                    X[3] = 0.0
                    try:
                        ball.lmo(X)
                    except ZeroDirection:
                        pass
                    else:
                        raise AssertionError("a zero matrix beside non-finite ones must raise")
            print("ok")
        """)
        src = str(Path(ucfw.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


class TestSchattenGramNorm:
    """For p >= 2 a Schatten norm comes from the eigenvalues of the smaller
    Gram matrix, in closed form when that is 3x3; a matrix whose Gram matrix
    is not finite or whose largest eigenvalue is below the smallest normal
    double takes the SVD."""

    @staticmethod
    def svd_norms(ball, X):
        sv = np.linalg.svd(X.reshape(-1, ball.rows, ball.cols), compute_uv=False)
        return _batch_lp_norm(sv, ball.p)

    @pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 10.0])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4), (4, 1), (3, 3), (5, 5), (3, 5), (5, 3)])
    def test_matches_svd_and_row_by_row(self, shape, p):
        ball = SchattenBall(p=p, rows=shape[0], cols=shape[1], radius=1.0)
        rng = np.random.default_rng(17)
        log_scale = np.concatenate([[-300.0, 300.0], rng.uniform(-300.0, 300.0, 298)])
        X = rng.standard_normal((300, ball.dim)) * np.exp(log_scale)[:, None]
        got = ball.batch_norm(X)
        np.testing.assert_allclose(got, self.svd_norms(ball, X), rtol=1e-14, atol=0.0)
        assert same_bits(got, [ball.norm(x) for x in X])
        assert same_bits(ball.batch_norm(X.reshape(20, 15, ball.dim)), got.reshape(20, 15))

    @staticmethod
    def adversarial_3x3(rng):
        """U diag(s) V^T for singular values s that put two or three
        eigenvalues of the Gram matrix together, at row scales whose squares
        would under- or overflow the closed form's cube without its trace
        scaling."""
        gaps = np.logspace(-12.0, -0.5, 60)  # relative gaps of a close pair
        s = [[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [1.0, 0.5, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
        s += [[1.0, 1.0 - g, 0.3] for g in gaps]  # close pair at the top
        s += [[1.0, 0.3, 0.3 * (1.0 - g)] for g in gaps]  # close pair at the bottom
        s = np.repeat(np.array(s), 4, axis=0)
        U = np.linalg.qr(rng.standard_normal((len(s), 3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((len(s), 3, 3)))[0]
        M = (U * s[:, None, :]) @ V.transpose(0, 2, 1)
        scale = 10.0 ** np.array([-150.0, -60.0, 0.0, 60.0, 150.0])
        return (M.reshape(1, -1, 9) * scale[:, None, None]).reshape(-1, 9)

    @pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 10.0])
    def test_closed_form_near_double_eigenvalues(self, p, monkeypatch):
        ball = SchattenBall(p=p, rows=3, cols=3, radius=1.0)
        X = self.adversarial_3x3(np.random.default_rng(23))
        fallback = []
        eigvalsh = np.linalg.eigvalsh

        def counted(G):
            fallback.append(len(G))
            return eigvalsh(G)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        got = ball.batch_norm(X)
        np.testing.assert_allclose(got, self.svd_norms(ball, X), rtol=1e-14, atol=0.0)
        # the pairs' gaps fall on both sides of the threshold (~8e-3 at the
        # top, ~9e-2 at the bottom)
        assert 0 < sum(fallback) < len(X)
        assert same_bits(got[::7], [ball.norm(x) for x in X[::7]])

    @pytest.mark.parametrize("n", [_GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1])
    def test_stacked_equals_row_by_row_across_a_block(self, n):
        ball = SchattenBall(p=2.5, rows=3, cols=3, radius=1.0)
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 9))
        X[n - 5 :] = self.adversarial_3x3(rng)[:5]  # (near) rank 1, ending the last block
        got = ball.batch_norm(X)
        assert same_bits(got, [ball.norm(x) for x in X])
        assert same_bits(ball.batch_norm(X[::-1]), got[::-1])

    @pytest.mark.parametrize("p", [2.0, 2.5, 10.0])
    def test_edge_rows_keep_the_svd_norm(self, p):
        ball = SchattenBall(p=p, rows=2, cols=3, radius=1.0)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 6))
        edge = [1, 3, 4, 6, 7]
        X[1] = 0.0
        X[3] *= 1e-300
        X[4] *= 1e200
        X[6] = np.array([1.0, -2.0, 0.0, 3.0, 1.0, -1.0]) * 5e-324
        X[7] = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]) * 5e-324
        got = ball.batch_norm(X)
        want = self.svd_norms(ball, X)
        assert got[1] == 0.0
        assert same_bits(got[edge], want[edge])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert same_bits(got, [ball.norm(x) for x in X])

    def test_nan_matrix_raises(self):
        ball = SchattenBall(p=2.5, rows=3, cols=3, radius=1.0)
        X = np.ones((4, 9))
        X[2, 5] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            ball.batch_norm(X)
        with pytest.raises(np.linalg.LinAlgError):
            ball.norm(X[2])


class TestRowMax:
    @given(
        rows=st.sampled_from([(1,), (7,), (255,), (256,), (300,), (16, 16), (3, 5, 20)]),
        n=st.integers(1, 20),
        nan_share=st.sampled_from([0.0, 0.01, 0.3]),
        inf_share=st.sampled_from([0.0, 0.05]),
        zero_share=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_max_bit_for_bit(self, rows, n, nan_share, inf_share, zero_share, seed):
        # non-negative entries, as the norms pass |x|
        rng = np.random.default_rng(seed)
        a = np.abs(rng.standard_normal((*rows, n))) * 10.0 ** rng.integers(-300, 300, (*rows, n))
        draw = rng.random(a.shape)
        a[draw < zero_share] = 0.0
        a[draw > 1.0 - inf_share] = np.inf
        a[rng.random(a.shape) < nan_share] = np.nan
        got, want = _row_max(a), a.max(axis=-1)
        np.testing.assert_array_equal(got, want)  # NaN where max gives NaN
        finite = ~np.isnan(want)
        assert got.shape == want.shape and same_bits(got[finite], want[finite])


class TestNonFiniteNorms:
    """A row holding inf has norm inf and a row holding NaN has norm NaN, at
    every p.  A Schatten matrix holding inf has norm and dual norm inf; one
    holding NaN makes the SVD raise."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_inf_and_nan_rows(self, p):
        ball = L1Ball(radius=1.0, dim=3) if p == 1.0 else LpBall(p=p, radius=1.0, dim=3)
        X = np.array([[np.inf, 1.0, 2.0], [0.0, -np.inf, 0.0], [np.nan, 1.0, 2.0], [np.inf, np.nan, 0.0], [3.0, 0.0, 4.0]])
        with np.errstate(invalid="ignore"):
            for rows in (X, np.tile(X, (100, 1))):  # short and long stacks
                got = ball.batch_norm(rows)[:5]
                assert got[:2].tolist() == [np.inf, np.inf]
                assert np.isnan(got[2:4]).all()
                assert got[4] == pytest.approx(lp_norm(X[4], p), rel=1e-15)
            assert [lp_norm(x, p) for x in X[:2]] == [np.inf, np.inf]
            assert np.isnan([lp_norm(x, p) for x in X[2:4]]).all()
            assert ball.membership_excess(X[0]) == np.inf

    @pytest.mark.parametrize("p", [1.5, 2.5])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
    def test_schatten_inf_and_nan_matrices(self, p, shape):
        ball = SchattenBall(p=p, rows=shape[0], cols=shape[1], radius=1.0)
        X = np.arange(4 * ball.dim, dtype=float).reshape(4, ball.dim)
        X[0, 0], X[1, 3], X[2, :2] = np.inf, -np.inf, (np.inf, -np.inf)
        for rows in (X, np.tile(X, (2000, 1))):  # one block and several
            got = ball.batch_norm(rows)
            assert (got.reshape(-1, 4)[:, :3] == np.inf).all()
            assert got[3] == pytest.approx(TestSchattenGramNorm.svd_norms(ball, X[3])[0], rel=1e-14)
            assert (ball.batch_dual_norm(rows).reshape(-1, 4)[:, :3] == np.inf).all()
        for x in X[:3]:
            assert ball.norm(x) == ball.dual_norm(x) == ball.membership_excess(x) == np.inf
        X[1, 0] = np.nan  # a NaN matrix raises, inf entries or not
        for f in (ball.batch_norm, ball.batch_dual_norm, ball.batch_membership_excess):
            with pytest.raises(np.linalg.LinAlgError):
                f(X)
            with pytest.raises(np.linalg.LinAlgError):
                f(X[1])


class TestMembership:
    def test_boundary_point_is_member(self):
        assert LpBall(p=2.0, radius=1.0, dim=2).membership_excess(np.array([1.0, 0.0])) <= 0.0

    def test_outside_point(self):
        assert LpBall(p=3.0, radius=1.0, dim=2).membership_excess(np.array([1.0, 1.0])) > 0.0

    def test_levelset_member(self):
        ls = LevelSet(w=4.0, dim=3)
        assert ls.membership_excess(np.array([1.0, 1.0, 1.0])) <= 0.0

    def test_convex_combination_stays_feasible(self):
        rng = np.random.default_rng(3)
        for ball in (LpBall(p=2.5, radius=2.0, dim=5), L1Ball(radius=1.0, dim=5)):
            X = sample_ball(ball, 50, rng)
            Y = sample_ball(ball, 50, rng)
            for eta in (0.0, 0.3, 0.7, 1.0):
                pts = eta * X + (1 - eta) * Y
                assert ball.batch_membership_excess(pts).max() <= 1e-12


class TestCatalog:
    @pytest.mark.parametrize("alpha, q", [(np.inf, 3.0), (0.1, np.inf), (np.nan, 3.0), (0.1, np.nan)])
    def test_non_finite_params_refused(self, alpha, q):
        with pytest.raises(InvalidParams):
            UCParams(alpha=alpha, q=q)

    def test_l15_unit(self):
        uc = lp_ball_uc_params(1.5, 1.0)
        assert (uc.alpha, uc.q) == (0.25, 2.0)

    def test_p3_radius_scaling(self):
        u1 = LpBall(p=3.0, radius=1.0, dim=4).uc_params()
        u5 = LpBall(p=3.0, radius=5.0, dim=4).uc_params()
        assert u5.q == u1.q == 3.0
        assert u5.alpha == pytest.approx(u1.alpha / 25.0)

    def test_alpha_continuous_at_two(self):
        below = lp_ball_uc_params(2.0, 1.0).alpha
        above = lp_ball_uc_params(2.0 + 1e-9, 1.0).alpha
        assert above == pytest.approx(below, rel=1e-6)

    def test_alpha_decreases_in_radius(self):
        alphas = [lp_ball_uc_params(3.0, r).alpha for r in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_alpha_beyond_double_range_names_p(self):
        with pytest.raises(InvalidParams, match="p = 2000"):
            lp_ball_uc_params(2000.0, 1.0)
        with pytest.raises(InvalidParams, match="p = 1000"):
            lp_ball_uc_params(1000.0, 1e-3)  # alpha overflows

    def test_alpha_in_log_space_past_the_direct_product(self):
        # 2^(p-2) and r^(p-1) overflow and underflow separately; their
        # product is p / 2 exactly
        uc = lp_ball_uc_params(1100.0, 0.5)
        assert uc.alpha == pytest.approx(2.0 / 1100.0, rel=1e-12)
        assert lp_ball_uc_params(3.0, 5.0).alpha == 1.0 / (3.0 * 2.0 * 25.0)

    def test_l1_not_uniformly_convex(self):
        with pytest.raises(NotUniformlyConvex):
            L1Ball(radius=1.0, dim=3).uc_params()
        assert L1Ball(radius=1.0, dim=3).uc is None

    def test_linf_not_uniformly_convex(self):
        # the l-infinity ball is a polytope (a cube)
        with pytest.raises(NotUniformlyConvex):
            lp_ball_uc_params(np.inf, 1.0)
        assert LpBall(p=np.inf, radius=1.0, dim=3).uc is None

    def test_levelset_params(self):
        uc = levelset_uc_params(mu=2.0, r_exp=2.0, L=2.0, w=2.0)
        assert uc.alpha == pytest.approx(2.0 / (2.0 * np.sqrt(8.0)))
        assert uc.q == 2.0

    def test_levelset_formula(self):
        uc = levelset_uc_params(mu=1.0, r_exp=3.0, L=1.0, w=0.5)
        assert uc.alpha == pytest.approx(0.5)

    def test_levelset_alpha_decreases_in_w(self):
        a1 = levelset_uc_params(2.0, 2.0, 2.0, 1.0).alpha
        a2 = levelset_uc_params(2.0, 2.0, 2.0, 4.0).alpha
        assert a2 < a1


class TestLmoOptimality:
    @pytest.mark.parametrize(
        "ball",
        [
            LpBall(p=1.5, radius=1.0, dim=6),
            LpBall(p=3.0, radius=5.0, dim=6),
            L1Ball(radius=2.0, dim=6),
        ],
        ids=["l1.5", "l3r5", "l1"],
    )
    def test_lmo_dominates_samples(self, ball):
        rng = np.random.default_rng(11)
        X = sample_ball(ball, 10**4, rng)
        for _ in range(20):
            phi = rng.standard_normal(ball.dim)
            v = ball.lmo(phi)
            assert np.dot(phi, v) >= (X @ phi).max() - 1e-9


class TestLevelSet:
    def test_boundary_point_hits_level(self):
        ls = LevelSet(w=4.0, dim=3)
        pt = ls.boundary_point(np.array([1.0, 2.0, -1.0]))
        assert np.dot(pt, pt) == pytest.approx(4.0, abs=1e-9)

    def test_lmo_is_the_l2_ball_lmo(self):
        """One direction or a stack: the l2 ball's LMO at radius sqrt(w),
        bit for bit, on the level ||v||^2 = w; a zero direction raises."""
        ls = LevelSet(w=9.0, dim=4)
        Phi = np.random.default_rng(3).standard_normal((5, 4))
        V = ls.lmo(Phi)
        assert np.array_equal(V, lmo_lp(2.0, 3.0, Phi))
        assert np.array_equal(ls.lmo(Phi[0]), lmo_lp(2.0, 3.0, Phi[0]))
        assert np.allclose(ls.batch_membership_excess(V), 0.0, atol=1e-12)
        with pytest.raises(ZeroDirection):
            ls.lmo(np.zeros(4))

    def test_is_the_l2_ball_of_radius_sqrt_w(self):
        ls = LevelSet(4.0, 3)
        assert ls.radius == 2.0
        pt = ls.boundary_point(np.array([1.0, 2.0, -1.0]))
        assert abs(np.dot(pt, pt) - 4.0) <= 1e-12
        assert ls.membership_excess(np.array([1.0, 1.0, 1.0])) == 3.0 - 4.0


class TestJson:
    def test_round_trip_families(self):
        """Descriptor and reader are inverses, both ways, for every family."""
        for desc in JSON_FAMILIES:
            s = set_from_json(desc)
            assert s.dim == desc.get("dim", desc.get("rows", 0) * desc.get("cols", 0))
            assert s.descriptor() == desc
            assert set_from_json(s.descriptor()) == s

    def test_linf_ball_descriptor_is_strict_json(self):
        """p = inf is written as the string float() reads back."""
        ball = LpBall(p=np.inf, radius=1.0, dim=3)
        desc = ball.descriptor()
        assert desc == {"family": "lp", "p": "inf", "radius": 1.0, "dim": 3}
        assert json.loads(json.dumps(desc, allow_nan=False)) == desc
        assert set_from_json(desc) == ball

    @pytest.mark.parametrize(
        "desc, message",
        [
            ({"family": "lp", "radius": 1.0, "dim": 4}, "set descriptor missing field 'p'"),
            ({"family": "l1", "dim": 4}, "set descriptor missing field 'radius'"),
            ({"family": "schatten", "p": 3.0, "rows": 2, "radius": 1.0}, "set descriptor missing field 'cols'"),
            ({"family": "levelset", "kind": "sqnorm", "dim": 4}, "set descriptor missing field 'w'"),
            ({"p": 3.0, "radius": 1.0, "dim": 4}, "set descriptor missing field 'family'"),
            ([1, 2], "bad set descriptor: list indices must be integers or slices, not str"),
            ({"family": "lp", "p": 3.0, "radius": 1.0, "dim": 2.0}, "dim must be an integer >= 1, got 2.0"),
            ({"family": "schatten", "p": 3.0, "rows": True, "cols": 2, "radius": 1.0},
             "rows must be an integer >= 1, got True"),
            ({"family": "lp", "p": "x", "radius": 1.0, "dim": 4},
             "bad set descriptor: could not convert string to float: 'x'"),
            ({"family": "lp", "p": 1, "radius": 1.0, "dim": 4},
             "bad set descriptor: LpBall requires p > 1; p = 1 is L1Ball"),
            ({"family": "levelset", "w": -1.0, "dim": 4},
             "bad set descriptor: LevelSet requires a finite w > 0, got -1.0"),
            ({"family": "levelset", "kind": "cube", "w": 1.0, "dim": 4}, "unknown levelset kind 'cube'"),
            ({"family": "simplex", "dim": 3}, "unknown set family 'simplex'"),
            ({"family": ["lp"], "dim": 3}, "unknown set family ['lp']"),
        ],
        ids=[
            "missing-p", "missing-radius", "missing-cols", "missing-w", "missing-family", "not-an-object",
            "float-dim", "bool-rows", "non-numeric-p", "p1-on-lp", "negative-w", "unknown-kind",
            "unknown-family", "unhashable-family",
        ],
    )
    def test_error_messages(self, desc, message):
        with pytest.raises(ConfigError) as exc:
            set_from_json(desc)
        assert str(exc.value) == message

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            set_from_json({"family": "simplex", "dim": 3})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            set_from_json({"family": "lp", "p": 3.0})

    def test_descriptor_round_trip(self):
        ball = SchattenBall(p=2.5, rows=3, cols=4, radius=2.0)
        clone = set_from_json(ball.descriptor())
        assert clone == ball


CONTRACT_SETS = {
    **dict(catalog_sets()),
    "l1": L1Ball(radius=2.0, dim=5),
    **{f"json-{desc['family']}": set_from_json(desc) for desc in JSON_FAMILIES},
}


@pytest.mark.parametrize("name", list(CONTRACT_SETS))
class TestNormBallContract:
    """Every set on flat points: batched oracles agree with the scalar
    ones row by row, and boundary points land on the boundary."""

    def test_batch_oracles_match_scalar_rows(self, name):
        s = CONTRACT_SETS[name]
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, s.dim)) * rng.uniform(0.1, 3.0, (200, 1)) * s.radius
        for batch, scalar in (
            (s.batch_norm, s.norm),
            (s.batch_dual_norm, s.dual_norm),
            (s.batch_membership_excess, s.membership_excess),
        ):
            want = np.array([scalar(x) for x in X])
            # a stack's roots may take numpy's SIMD power, one point's the C
            # pow, which differ in the last bit; the bound is relative to the
            # terms of the excess: its value and the bound
            scale = np.abs(want) + abs(scalar(np.zeros(s.dim)))
            assert np.all(np.abs(batch(X) - want) <= 1e-15 * scale), scalar.__name__
        stacked = X.reshape(4, 50, s.dim)
        assert np.array_equal(s.batch_norm(stacked), s.batch_norm(X).reshape(4, 50))
        assert np.array_equal(
            s.batch_membership_excess(stacked), s.batch_membership_excess(X).reshape(4, 50)
        )

    def test_boundary_point_rows(self, name):
        s = CONTRACT_SETS[name]
        D = np.random.default_rng(2).standard_normal((50, s.dim))
        B = s.boundary_point(D)
        assert B.shape == D.shape
        for d, b in zip(D, B):
            assert np.array_equal(s.boundary_point(d), b)
        assert np.abs(s.batch_membership_excess(B)).max() <= 1e-12

    def test_zero_direction_raises(self, name):
        s = CONTRACT_SETS[name]
        D = np.ones((5, s.dim))
        D[3] = 0.0
        with pytest.raises(ZeroDirection):
            s.boundary_point(D)
        with pytest.raises(ZeroDirection):
            s.boundary_point(D[3])
