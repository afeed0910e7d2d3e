"""Follow-The-Leader for online linear optimization over uniformly convex
decision sets, with exact regret accounting and regret bound curves.

Each round plays the minimizer of the cumulative past losses.  That
minimizer, one LMO on the negated cumulative loss vector, is also the
best fixed action in hindsight for the rounds so far, so one LMO per round
gives both the next action and the exact regret.  Rounds are computed in
blocks of rows with batched oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidParams
from .geometry import FeasibleSet, _block_rows, _json_int, _row_dots, _write_csv, lp_norm

__all__ = [
    "LossStream",
    "fixed_stream",
    "drifting_mean_stream",
    "adversarial_stream",
    "OnlineTrace",
    "run_ftl",
    "theorem4_bound",
    "stream_from_json",
]

_X1_SEED = 71521  # first-action direction; FTL's x1 is unspecified, any O(1) choice works


@dataclass(frozen=True)
class LossStream:
    """Loss-vector generator for online linear optimization.

    ``materialize(T)`` returns the (T, dim) array of loss vectors c_t.
    ``drifting``: base mean plus seeded Gaussian noise.  ``adversarial``:
    base mean plus sign-flipped perpendicular kicks, the stream that makes
    FTL's regret actually track its upper-bound rate.
    """

    tag: str  # "fixed" | "drifting" | "adversarial"
    dim: int
    base: Optional[np.ndarray] = None
    noise_scale: float = 0.0
    seed: int = 0
    losses: Optional[np.ndarray] = None

    def materialize(self, T: int) -> np.ndarray:
        if self.tag == "fixed":
            if self.losses is None or len(self.losses) < T:
                raise InvalidParams(f"fixed stream holds {0 if self.losses is None else len(self.losses)} losses, need {T}")
            return np.asarray(self.losses, dtype=float)[:T]
        rng = np.random.default_rng(self.seed)
        base = np.asarray(self.base, dtype=float)
        if self.tag == "drifting":
            return base + self.noise_scale * rng.standard_normal((T, self.dim))
        if self.tag == "adversarial":
            # perpendicular kick direction with strictly alternating signs:
            # the cumulative average oscillates at amplitude ~ 1/t, which is
            # the regime where the regret bound is tight
            u = rng.standard_normal(self.dim)
            nb = lp_norm(base, 2.0)
            if nb > 0.0:
                e = base / nb  # through the unit vector, as ||base||^2 may overflow
                u = u - np.dot(u, e) * e
            u /= np.linalg.norm(u)
            start = 1.0 if rng.random() < 0.5 else -1.0
            signs = start * (-1.0) ** np.arange(T)
            return base + self.noise_scale * signs[:, None] * u
        raise InvalidParams(f"unknown stream tag {self.tag!r}")


def fixed_stream(losses: np.ndarray) -> LossStream:
    """A stream that replays the rows of a (T, dim) array of finite losses."""
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape[1] < 1:
        raise ConfigError(f"fixed losses must be a (T, dim) array of rows, got shape {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise ConfigError(f"fixed losses must be finite, got {np.count_nonzero(~np.isfinite(losses))} non-finite entries")
    return LossStream(tag="fixed", dim=losses.shape[1], losses=losses)


def _finite_base(base, scale: float) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    if base.ndim != 1 or base.size < 1 or not np.all(np.isfinite(base)) or not np.isfinite(scale):
        raise ConfigError(f"a stream needs a finite 1-D base and a finite scale, got base shape {base.shape}, scale {scale}")
    return base


def drifting_mean_stream(base, noise_scale: float, seed: int) -> LossStream:
    base = _finite_base(base, noise_scale)
    return LossStream(tag="drifting", dim=base.shape[0], base=base, noise_scale=noise_scale, seed=seed)


def adversarial_stream(base, flip_scale: float, seed: int) -> LossStream:
    base = _finite_base(base, flip_scale)
    return LossStream(tag="adversarial", dim=base.shape[0], base=base, noise_scale=flip_scale, seed=seed)


def stream_from_json(desc: dict) -> LossStream:
    try:
        tag = desc["tag"]
        if tag == "fixed":
            return fixed_stream(np.asarray(desc["losses"], dtype=float))
        if tag == "drifting":
            return drifting_mean_stream(
                desc["base"], float(desc["noise_scale"]), _json_int(desc["seed"], "stream seed", 0)
            )
        if tag == "adversarial":
            return adversarial_stream(
                desc["base"], float(desc["flip_scale"]), _json_int(desc["seed"], "stream seed", 0)
            )
    except KeyError as exc:
        raise ConfigError(f"stream descriptor missing field {exc}") from exc
    raise ConfigError(f"unknown stream tag {desc.get('tag')!r}")


@dataclass
class OnlineTrace:
    """Per-round FTL record with exact running regret.

    ``regret[i]`` compares to the best fixed action in hindsight at round
    i+1 (it may be non-monotone).  ``L_T`` is the min over rounds of the
    dual norm of the running gradient average; ``degenerate`` is set when it
    vanishes and the regret bounds do not apply.
    """

    t: np.ndarray
    loss: np.ndarray
    cum_grad_dual_norm: np.ndarray
    regret: np.ndarray
    actions: np.ndarray
    losses_vectors: np.ndarray
    M_loss: float
    L_T: float
    degenerate: bool
    fallback_rounds: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def bound_curve(self, alpha: float, q: float) -> np.ndarray:
        return theorem4_bound(alpha, q, self.M_loss, self.L_T, self.t)

    def to_csv(self, path, bound: Optional[np.ndarray] = None) -> None:
        header = ["t", "loss", "cum_grad_dual_norm", "regret"]
        columns = [self.t, self.loss, self.cum_grad_dual_norm, self.regret]
        if bound is not None:
            header.append("bound")
            columns.append(bound)
        _write_csv(path, header, columns)


def run_ftl(
    feasible: FeasibleSet,
    stream: LossStream,
    T: int,
    x1_policy: Optional[np.ndarray] = None,
) -> OnlineTrace:
    """Play FTL for T rounds, recording losses, L_T, and exact regret at
    every round.

    With S_t the cumulative loss vector after round t, V_t = lmo(-S_t) is
    both round t+1's action and the hindsight optimum of rounds 1..t, so
    regret_t = sum_{s<=t} <c_s, x_s> - <S_t, V_t>.  A zero S_t makes round
    t+1 play ``x1_policy`` and is listed in ``fallback_rounds``.  A stream
    whose cumulative loss, dual norms or regret overflow raises
    :class:`ConfigError`.
    """
    if T < 1:
        raise InvalidParams("T must be >= 1")
    if stream.dim != feasible.dim:
        raise ConfigError(f"stream dim {stream.dim} does not match set dim {feasible.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        C = stream.materialize(T)

    if x1_policy is None:
        rng = np.random.default_rng(_X1_SEED)
        x1_policy = feasible.lmo(rng.standard_normal(feasible.dim))
    x1_policy = np.asarray(x1_policy, dtype=float)

    actions = np.empty_like(C)
    actions[0] = x1_policy
    losses = np.empty(T)
    avg_dual = np.empty(T)
    hindsight = np.empty(T)
    loss_dual = np.empty(T)
    fallback_rounds: list[int] = []

    rows = _block_rows(stream.dim)
    carry = np.zeros(stream.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused
        for lo in range(0, T, rows):
            hi = min(lo + rows, T)
            # S[i] = S_{lo+i+1}, summed in the same order as a running sum
            S = C[lo:hi].copy()
            S[0] += carry
            np.cumsum(S, axis=0, out=S)
            carry = S[-1].copy()
            _check_finite("cumulative loss", np.isfinite(S).all(axis=1), lo)

            nonzero = S.any(axis=1)
            V = np.empty_like(S)
            V[nonzero] = feasible.batch_lmo(-S[nonzero])
            V[~nonzero] = x1_policy  # S = 0 there, so the hindsight term is 0
            hindsight[lo:hi] = _row_dots(S, V)
            n_next = min(hi, T - 1) - lo  # rows whose next round exists
            actions[lo + 1 : lo + 1 + n_next] = V[:n_next]
            fallback_rounds.extend((lo + 2 + np.flatnonzero(~nonzero[:n_next])).tolist())

            losses[lo:hi] = _row_dots(C[lo:hi], actions[lo:hi])
            avg_dual[lo:hi] = feasible.batch_dual_norm(S / np.arange(lo + 1, hi + 1)[:, None])
            loss_dual[lo:hi] = feasible.batch_dual_norm(C[lo:hi])
            finite = np.isfinite(avg_dual[lo:hi]) & np.isfinite(loss_dual[lo:hi])
            _check_finite("dual norm of a loss", finite, lo)
        regret = np.cumsum(losses) - hindsight
    _check_finite("regret", np.isfinite(regret), 0)

    L_T = float(avg_dual.min())
    return OnlineTrace(
        t=np.arange(1, T + 1),
        loss=losses,
        cum_grad_dual_norm=avg_dual,
        regret=regret,
        actions=actions,
        losses_vectors=C,
        M_loss=float(loss_dual.max()),
        L_T=L_T,
        degenerate=L_T <= 0.0,
        fallback_rounds=fallback_rounds,
        metadata={"set": feasible.descriptor(), "stream": stream.tag, "T": T},
    )


def _check_finite(what: str, finite: np.ndarray, lo: int) -> None:
    """Raise ConfigError naming the first round lo + 1 + i whose ``finite[i]``
    is False."""
    bad = np.flatnonzero(~finite)
    if len(bad):
        raise ConfigError(f"the {what} overflows at round {lo + 1 + int(bad[0])}; scale the stream down")


def theorem4_bound(alpha: float, q: float, M_loss: float, L_T: float, T):
    """FTL regret bound over an (alpha, q)-uniformly convex set.

    q = 2: (4 M^2 / (alpha L_T)) (1 + log T);
    q > 2: 2M (2M/(alpha L_T))^(1/(q-1)) ((q-1)/(q-2)) T^(1 - 1/(q-1)).
    The (q-1)/(q-2) blow-up as q -> 2+ is the theorem's own behavior and is
    surfaced, not masked.
    """
    if alpha <= 0.0 or M_loss <= 0.0:
        raise InvalidParams("alpha and M_loss must be positive")
    if L_T <= 0.0:
        raise InvalidParams("regret bounds require L_T > 0")
    if q < 2.0:
        raise InvalidParams(f"q must be >= 2, got {q}")
    T = np.asarray(T, dtype=float)
    if q == 2.0:
        try:
            lead = 4.0 * M_loss**2 / (alpha * L_T)
        except OverflowError:  # M^2 alone overflows, M^2 / L_T need not
            lead = 4.0 * M_loss * (M_loss / (alpha * L_T))
        out = lead * (1.0 + np.log(T))
    else:
        out = (
            2.0
            * M_loss
            * (2.0 * M_loss / (alpha * L_T)) ** (1.0 / (q - 1.0))
            * ((q - 1.0) / (q - 2.0))
            * T ** (1.0 - 1.0 / (q - 1.0))
        )
    if np.ndim(out) == 0:
        return float(out)
    return out
