"""Follow-The-Leader: actions, exact regret, and regret bound curves."""

import csv
import warnings

import numpy as np
import pytest

from ucfw import (
    ConfigError,
    FeasibleSet,
    InvalidParams,
    L1Ball,
    LpBall,
    ZeroDirection,
    adversarial_stream,
    drifting_mean_stream,
    fixed_stream,
    run_ftl,
    theorem4_bound,
)
from ucfw.experiments import fit_loglog_slope
from ucfw.geometry import _block_rows, dual_exponent, lp_norm
from ucfw.online import OnlineTrace, stream_from_json


class OraclesOnly(FeasibleSet):
    """A set written to the bare subclass contract: batched norms and one
    LMO, everything else from the base class."""

    def __init__(self, ball):
        self.ball, self.dim, self.radius = ball, ball.dim, ball.radius

    def lmo(self, phi):
        return self.ball.lmo(phi)

    def batch_norm(self, X):
        return self.ball.batch_norm(X)

    def batch_dual_norm(self, Phi):
        return self.ball.batch_dual_norm(Phi)

    def descriptor(self):
        return {"family": "oracles-only"}


class RecordingLmo(OraclesOnly):
    """A copy of a set's oracles that keeps every LMO output row, in call
    order."""

    def __init__(self, ball):
        super().__init__(ball)
        self.outputs = []

    def lmo(self, phi):
        v = self.ball.lmo(phi)
        self.outputs.extend(np.atleast_2d(v))
        return v


def run_ftl_recording(feasible, stream, T, x1=None):
    """run_ftl on a recording copy of ``feasible``.  Returns the trace and
    the actions x_1..x_T it played.  run_ftl's LMO outputs are, in order,
    x1 when it is not given, then lmo(-S_t) for every t with S_t != 0: that
    is round t+1's action, and round t+1 plays x1 when S_t = 0 instead."""
    probe = RecordingLmo(feasible)
    trace = run_ftl(probe, stream, T, x1_policy=x1)
    outputs = iter(probe.outputs)
    x1 = next(outputs) if x1 is None else x1
    fallback = set(trace.fallback_rounds)
    actions = [x1] + [x1 if t in fallback else next(outputs) for t in range(2, T + 1)]
    return trace, np.array(actions)


def per_round_ftl(feasible, C, x1):
    """Reference FTL, one round at a time: two LMO calls per round."""
    T = len(C)
    actions, loss = np.empty_like(C), np.empty(T)
    avg_dual, regret = np.empty(T), np.empty(T)
    fallback_rounds = []
    cumulative, cum_loss = np.zeros(C.shape[1]), 0.0
    for i in range(T):
        t = i + 1
        x = x1
        if t > 1:
            try:
                x = feasible.lmo(-cumulative)
            except ZeroDirection:
                fallback_rounds.append(t)
        actions[i] = x
        loss[i] = np.dot(C[i], x)
        cum_loss += loss[i]
        cumulative = cumulative + C[i]
        avg_dual[i] = feasible.dual_norm(cumulative / t)
        try:
            hindsight = float(np.dot(cumulative, feasible.lmo(-cumulative)))
        except ZeroDirection:
            hindsight = 0.0
        regret[i] = cum_loss - hindsight
    M_loss = max(feasible.dual_norm(c) for c in C)
    return actions, loss, avg_dual, regret, M_loss, fallback_rounds


def assert_matches_per_round(feasible, C):
    x1 = feasible.lmo(np.linspace(1.0, -0.5, feasible.dim))
    trace, played = run_ftl_recording(feasible, fixed_stream(C), len(C), x1)
    actions, loss, avg_dual, regret, M_loss, fallback_rounds = per_round_ftl(feasible, C, x1)
    for got, ref in [
        (played, actions), (trace.loss, loss), (trace.cum_grad_dual_norm, avg_dual),
        (trace.regret, regret), (trace.M_loss, M_loss), (trace.L_T, avg_dual.min()),
    ]:
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert trace.fallback_rounds == fallback_rounds
    return trace


FTL_SETS = {
    "p1.5": LpBall(p=1.5, radius=1.0, dim=5),
    "p2": LpBall(p=2.0, radius=1.0, dim=5),
    "p3": LpBall(p=3.0, radius=2.0, dim=5),
    "p5": LpBall(p=5.0, radius=1.0, dim=5),
    "pinf": LpBall(p=np.inf, radius=1.0, dim=5),
    "l1": L1Ball(radius=1.0, dim=5),
    "oracles-only": OraclesOnly(LpBall(p=3.0, radius=1.0, dim=5)),
}
LMO_SETS = dict(
    FTL_SETS, p50=LpBall(p=50.0, radius=3.0, dim=5), p1_01=LpBall(p=1.01, radius=1.0, dim=5)
)


class TestFtlStep:
    """The action FTL plays in a given round."""

    def test_locks_onto_constant_stream(self):
        ball = LpBall(p=2.0, radius=1.0, dim=3)
        c = np.array([1.0, 2.0, -1.0])
        best = ball.lmo(-c)
        trace, actions = run_ftl_recording(ball, fixed_stream(np.tile(c, (50, 1))), 50)
        for t in (2, 5, 50):
            assert t not in trace.fallback_rounds
            np.testing.assert_allclose(actions[t - 1], best, atol=1e-12)

    def test_two_round_euclidean(self):
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        losses = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        _, actions = run_ftl_recording(ball, fixed_stream(losses), 3)
        np.testing.assert_allclose(actions[2], [-1 / np.sqrt(2)] * 2, rtol=1e-12)

    def test_zero_cumulative_falls_back(self):
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        x1 = np.array([0.0, 1.0])
        losses = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [2.0, 3.0]])
        trace = run_ftl(ball, fixed_stream(losses), 4, x1_policy=x1)
        assert trace.fallback_rounds == [4]
        assert trace.loss[3] == np.dot(losses[3], x1)  # round 4 played x1

    def test_rounds_start_at_one(self):
        with pytest.raises(InvalidParams):
            run_ftl(LpBall(p=2.0, radius=1.0, dim=2), fixed_stream(np.zeros((1, 2))), 0)


class TestBatchedFtl:
    """run_ftl's blocked pass against the per-round loop above."""

    @pytest.mark.parametrize("T", [1, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("name", list(FTL_SETS))
    def test_matches_per_round(self, name, T):
        base = np.array([1.0, 0.3, 0.0, -0.2, 0.0])
        C = adversarial_stream(base, 0.5, seed=T).materialize(T)
        assert_matches_per_round(FTL_SETS[name], C)

    @pytest.mark.parametrize("name", list(FTL_SETS))
    def test_fallback_across_block_edge(self, name):
        # the cumulative loss vector is zero after rounds 1023 and 1024, and
        # round 1024 ends a block, so the second fallback crosses a block edge
        assert 1024 % _block_rows(5) == 0
        rng = np.random.default_rng(8)
        C = rng.integers(-2, 3, size=(1500, 5)).astype(float)
        C[0] = [1.0, 0.0, 0.0, 0.0, 0.0]
        C[1022] = -C[:1022].sum(axis=0)
        C[1023] = 0.0
        trace = assert_matches_per_round(FTL_SETS[name], C)
        assert trace.fallback_rounds == [1024, 1025]

    @pytest.mark.parametrize(
        "p, losses, what",
        [
            (2.0, [[1.0, 0.0], [1.5e308, 1.5e308], [1.0, 0.0]], "dual norm of a loss overflows at round 2"),
            (3.0, [[1e308, 1e308]] * 3, "cumulative loss overflows at round 2"),
            # <S_2, V_2> = -||S_2||_1.5 overflows
            (3.0, [[0.75e308, 0.75e308]] * 2, "regret overflows at round 2"),
        ],
    )
    def test_overflow_is_config_error(self, p, losses, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=what):
                run_ftl(LpBall(p=p, radius=1.0, dim=2), fixed_stream(np.array(losses)), len(losses))

    def test_adversarial_kicks_stay_perpendicular_to_a_huge_base(self):
        # ||base||^2 overflows, ||base|| does not: the kicks are still
        # projected off the base, so they are the whole second coordinate
        C = adversarial_stream(np.array([1e300, 0.0]), 0.5, seed=0).materialize(4)
        assert C[:, 0].tolist() == [1e300] * 4
        assert np.abs(C[:, 1]).tolist() == [0.5] * 4

    def test_stream_dim_must_match_set(self):
        with pytest.raises(ConfigError, match="2.*3"):
            run_ftl(LpBall(p=2.0, radius=1.0, dim=3), fixed_stream(np.ones((4, 2))), 4)

    @pytest.mark.parametrize("name", list(LMO_SETS))
    def test_batch_lmo_is_lmo_per_row(self, name):
        feasible = LMO_SETS[name]
        rng = np.random.default_rng(3)
        Phi = rng.standard_normal((400, 5)) * rng.choice([1e-150, 1e-3, 1.0, 1e4, 1e150], (400, 1))
        Phi[::3, 1] = 0.0
        Phi[::5] = np.round(Phi[::5] * 1e-150) + 1.0  # ties
        V = feasible.lmo(Phi)
        rows = np.array([feasible.lmo(phi) for phi in Phi])
        assert V.view(np.uint64).tolist() == rows.view(np.uint64).tolist()

    @pytest.mark.parametrize("name", ["p3", "l1", "oracles-only"])
    def test_batch_lmo_zero_row(self, name):
        Phi = np.array([[1.0, 0.0, 0.0, 0.0, 2.0], [0.0] * 5])
        with pytest.raises(ZeroDirection):
            FTL_SETS[name].lmo(Phi)


class TestToCsv:
    @pytest.mark.parametrize("with_bound", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, with_bound):
        T = 2500
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((4, T)) * 10.0 ** rng.integers(-300, 300, (4, T))
        cols[:, :6] = [[0.0, -0.0, np.inf, -np.inf, np.nan, 1e22]] * 4
        trace = OnlineTrace(
            t=np.arange(1, T + 1), loss=cols[0], cum_grad_dual_norm=cols[1], regret=cols[2],
            M_loss=1.0, L_T=1.0, degenerate=False,
        )
        bound = cols[3] if with_bound else None
        trace.to_csv(tmp_path / "got.csv", bound=bound)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "loss", "cum_grad_dual_norm", "regret"] + (["bound"] if with_bound else []))
            for i in range(T):
                row = [int(trace.t[i])] + [repr(float(c[i])) for c in cols[: 4 if with_bound else 3]]
                writer.writerow(row)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRunFtl:
    def test_single_round_nonnegative_regret(self):
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        stream = fixed_stream(np.array([[1.0, 0.0]]))
        trace = run_ftl(ball, stream, 1)
        assert trace.regret[0] >= -1e-12

    def test_constant_stream_regret_flat_after_lock_on(self):
        ball = LpBall(p=3.0, radius=1.0, dim=4)
        c = np.array([1.0, -2.0, 0.5, 0.0])
        stream = fixed_stream(np.tile(c, (50, 1)))
        trace = run_ftl(ball, stream, 50)
        np.testing.assert_allclose(trace.regret[1:], trace.regret[1], atol=1e-10)

    def test_hindsight_matches_boundary_sampling(self):
        ball = LpBall(p=3.0, radius=1.0, dim=4)
        stream = drifting_mean_stream(np.array([1.0, 0.5, -0.2, 0.1]), 0.3, seed=5)
        T = 20
        trace, actions = run_ftl_recording(ball, stream, T)
        C = stream.materialize(T)
        total = C.sum(axis=0)
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((10**5, 4))
        samples /= (np.abs(samples) ** 3).sum(axis=1)[:, None] ** (1 / 3)
        hindsight_sampled = (samples @ total).min()
        hindsight_exact = float(np.dot(total, ball.lmo(-total)))
        assert hindsight_exact <= hindsight_sampled + 1e-6
        cum_loss = float(sum(np.dot(C[i], actions[i]) for i in range(T)))
        assert trace.regret[-1] == pytest.approx(cum_loss - hindsight_exact, abs=1e-9)

    def test_degenerate_stream_flagged(self):
        ball = LpBall(p=2.0, radius=1.0, dim=2)
        losses = np.array([[1.0, 0.0], [-1.0, 0.0]])
        trace = run_ftl(ball, fixed_stream(losses), 2)
        assert trace.degenerate

    def test_drifting_mean_log_regret_q2(self):
        ball = LpBall(p=2.0, radius=1.0, dim=4)
        base = np.array([1.0, 0.0, 0.0, 0.0])
        trace = run_ftl(ball, drifting_mean_stream(base, 0.1, seed=3), 10**4)
        assert trace.L_T >= 0.5
        uc = ball.uc_params()
        bound = theorem4_bound(uc.alpha, 2.0, trace.M_loss, trace.L_T, 10**4)
        assert trace.regret[-1] <= bound


class TestTheorem4Bound:
    def test_q2_at_t1(self):
        assert theorem4_bound(1.0, 2.0, 1.0, 1.0, 1) == pytest.approx(4.0)

    def test_q3_closed_form(self):
        val = theorem4_bound(1.0, 3.0, 1.0, 1.0, 100)
        assert val == pytest.approx(4.0 * np.sqrt(2.0) * 10.0, rel=1e-12)

    def test_exponent_approaches_linear(self):
        small = theorem4_bound(1.0, 200.0, 1.0, 1.0, np.array([10.0, 100.0]))
        slope = np.log10(small[1] / small[0])
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_requires_positive_average(self):
        with pytest.raises(InvalidParams):
            theorem4_bound(1.0, 2.0, 1.0, 0.0, 10)


class TestLmoHoelderContinuity:
    @pytest.mark.parametrize(
        "ball",
        [LpBall(p=1.5, radius=1.0, dim=6), LpBall(p=2.0, radius=1.0, dim=6),
         LpBall(p=3.0, radius=1.0, dim=6), LpBall(p=5.0, radius=1.0, dim=6)],
        ids=["p1.5", "p2", "p3", "p5"],
    )
    def test_vertex_variation_bound(self, ball):
        # <v1 - v2, phi1> <= (1/alpha)^(1/(q-1)) ||phi1-phi2||_*^(1+1/(q-1))
        #                    / max(||phi1||_*, ||phi2||_*)^(1/(q-1))
        uc = ball.uc_params()
        pstar = dual_exponent(ball.p)
        rng = np.random.default_rng(23)
        expo = 1.0 / (uc.q - 1.0)
        for _ in range(1000):
            phi1, phi2 = rng.standard_normal((2, ball.dim))
            v1, v2 = ball.lmo(phi1), ball.lmo(phi2)
            lhs = float(np.dot(v1 - v2, phi1))
            dn = lp_norm(phi1 - phi2, pstar)
            mx = max(lp_norm(phi1, pstar), lp_norm(phi2, pstar))
            rhs = (1.0 / uc.alpha) ** expo * dn ** (1.0 + expo) / mx**expo
            assert lhs <= rhs + 1e-9


class TestRegretRates:
    @pytest.mark.parametrize("p", [2.5, 3.0, 5.0])
    def test_slope_matches_theory(self, p):
        ball = LpBall(p=p, radius=1.0, dim=8)
        base = np.zeros(8)
        base[0] = 1.0
        trace = run_ftl(ball, adversarial_stream(base, 0.5, seed=0), 10**5)
        uc = ball.uc_params()
        bound = trace.bound_curve(uc.alpha, uc.q)
        assert np.all(trace.regret <= bound + 1e-9)
        slope = fit_loglog_slope(trace.t, np.maximum(trace.regret, 1e-12), 1e3, 1e5)
        target = 1.0 - 1.0 / (uc.q - 1.0)
        assert abs(slope - target) <= 0.1


class TestStreamJson:
    def test_round_trip(self):
        s = stream_from_json(
            {"tag": "adversarial", "base": [1.0, 0.0], "flip_scale": 0.5, "seed": 4}
        )
        losses = s.materialize(10)
        assert losses.shape == (10, 2)
        # sign flips strictly alternate
        kicks = losses - np.array([1.0, 0.0])
        signs = np.sign(kicks @ kicks[0])
        assert np.all(signs == (-1.0) ** np.arange(10) * signs[0])

    def test_fixed_too_short(self):
        s = stream_from_json({"tag": "fixed", "losses": [[1.0, 0.0]]})
        with pytest.raises(InvalidParams):
            s.materialize(5)


def _stream(tag, dim, T):
    base = np.linspace(0.0, 1.0, dim)  # zero in 1-D, where a kick needs a zero base
    if tag == "fixed":
        return fixed_stream(np.random.default_rng(dim).standard_normal((T, dim)))
    if tag == "drifting":
        return drifting_mean_stream(base, 0.7, seed=dim)
    return adversarial_stream(base, 0.5, seed=dim)


class TestStreamBlocks:
    """A stream's blocks are its materialized losses, cut into rows."""

    @pytest.mark.parametrize("dim", [1, 8, 50])
    @pytest.mark.parametrize("rows", [1, 7, "block"])
    @pytest.mark.parametrize("tag", ["fixed", "drifting", "adversarial"])
    def test_blocks_concatenate_to_materialize(self, tag, rows, dim):
        T = 10007
        rows = _block_rows(dim) if rows == "block" else rows
        stream = _stream(tag, dim, T)
        blocks = list(stream.blocks(T, rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == stream.materialize(T).tobytes()
        assert stream.materialize(T).shape == (T, dim)

    def test_adversarial_1d_needs_zero_base(self):
        with pytest.raises(ConfigError, match="perpendicular"):
            adversarial_stream(np.array([2.0]), 0.5, seed=0)
        C = adversarial_stream(np.array([0.0]), 0.5, seed=0).materialize(4)
        assert np.abs(C[:, 0]).tolist() == [0.5] * 4
