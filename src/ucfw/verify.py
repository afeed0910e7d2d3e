"""Sampling-based verification of the geometric inequalities behind the
rate theorems: uniform-convexity membership, the global and local scaling
inequalities, and the iterate-to-vertex distance control.

Checks are report-only and deterministic given (seed, config); reducers use
max/min only, so evaluation order cannot change a report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .cpus import usable_cpus
from .errors import InvalidParams, StaleOptimum
from .geometry import FeasibleSet, UCParams, _row_dots
from .objectives import SmoothObjective

__all__ = [
    "SamplerConfig",
    "CheckReport",
    "sample_feasible",
    "check_definition1",
    "check_lemma1",
    "check_local_scaling",
    "check_lemma3",
    "estimate_local_alpha",
]


# threads evaluating check_definition1's interpolation weights
_POOL_SIZE = usable_cpus()


@dataclass(frozen=True)
class SamplerConfig:
    n_pairs: int = 1000
    n_directions: int = 50
    seed: int = 0
    tol: float = 1e-9
    boundary_bias: float = 0.5

    def __post_init__(self) -> None:
        if self.n_pairs < 1 or self.n_directions < 1:
            raise InvalidParams("sample counts must be positive")
        if self.tol < 0.0 or not 0.0 <= self.boundary_bias <= 1.0:
            raise InvalidParams("tol must be >= 0 and boundary_bias in [0, 1]")


@dataclass
class CheckReport:
    check: str
    passed: bool
    worst_violation: float
    witness: Optional[dict] = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)


def sample_feasible(
    feasible: FeasibleSet, n: int, rng: np.random.Generator, boundary_bias: float = 0.5
) -> np.ndarray:
    """n feasible points as flat (n, dim) rows.

    Directions come from a spherically symmetric source and are scaled to
    the exact boundary; a (1 - boundary_bias) fraction is pulled inward by a
    random radial factor.  Violations of the curvature inequalities
    concentrate near the boundary, so interior-heavy sampling would be
    uninformative.
    """
    dim = feasible.dim
    n_boundary = int(round(boundary_bias * n))
    dirs = rng.standard_normal((n, dim))
    shrink = rng.random(n) ** (1.0 / max(dim, 1))
    out = feasible.boundary_point(dirs)
    out[n_boundary:] *= shrink[n_boundary:, None]
    return out


def check_definition1(
    feasible: FeasibleSet, uc: UCParams, cfg: SamplerConfig
) -> CheckReport:
    """Membership test of the uniform-convexity definition.

    For sampled feasible pairs (x, y), a grid of interpolation weights, and
    sampled unit perturbations z, the point
    ``eta x + (1-eta) y + eta (1-eta) alpha ||x-y||^q z``
    must stay in the set.  ``worst_violation`` is the largest membership
    excess observed.
    """
    # imported here: only this check needs it, and it is ~3% of `import ucfw`
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Y = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Z = rng.standard_normal((cfg.n_directions, feasible.dim))
    Z /= feasible.batch_norm(Z)[:, None]
    etas = np.linspace(0.0, 1.0, 11)

    dist = feasible.batch_norm(X - Y)  # (n,)
    dist_q = dist**uc.q

    def excess_at(eta: np.float64) -> np.ndarray:
        """The (n, m) membership excess of the points at one weight."""
        radial = (eta * (1.0 - eta)) * uc.alpha * dist_q
        combo = eta * X + (1.0 - eta) * Y
        if not radial.any():
            # no perturbation (eta in {0, 1}): every direction gives the same point
            once = feasible.batch_membership_excess(combo[:, None, :])  # (n, 1)
            return np.broadcast_to(once, (len(combo), len(Z)))
        return feasible.batch_membership_excess(combo[:, None, :] + radial[:, None, None] * Z[None, :, :])

    # numpy's loops and the stacked SVD release the GIL, so the weights run
    # in parallel; each element is computed exactly as in one big stack, and
    # the reduction below runs in weight order, so the pool size cannot
    # change a report
    with ThreadPoolExecutor(max_workers=min(_POOL_SIZE, len(etas))) as pool:
        excess = list(pool.map(excess_at, etas))  # 11 x (n, m)
    maxima = np.array([e.max() for e in excess])  # NaN-propagating, like one max

    worst = float(maxima.max())
    witness = None
    if worst > cfg.tol:
        ie = int(np.argmax(maxima))  # the first maximiser in (eta, pair, direction) order
        ip, iz = np.unravel_index(int(np.argmax(excess[ie])), excess[ie].shape)
        witness = {
            "eta": float(etas[ie]),
            "pair_index": int(ip),
            "direction_index": int(iz),
            "chord_length": float(dist[ip]),
            "excess": worst,
        }
    return CheckReport(
        check="definition1",
        passed=worst <= cfg.tol,
        worst_violation=max(worst, 0.0),
        witness=witness,
        config={"alpha": uc.alpha, "q": uc.q, **asdict(cfg)},
    )


def check_lemma1(
    feasible: FeasibleSet, uc: UCParams, f: SmoothObjective, cfg: SamplerConfig
) -> CheckReport:
    """Global scaling inequality at sampled feasible points:
    <-grad f(x), v - x> >= (alpha/2) ||v - x||^q ||grad f(x)||_* with
    v = lmo(-grad f(x))."""
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    G = np.array([f.gradient(x) for x in X])
    live = np.flatnonzero(np.any(G, axis=1))  # a zero gradient has no LMO vertex
    G, X = G[live], X[live]
    D = feasible.batch_lmo(-G) - X
    lhs = _row_dots(-G, D)
    rhs = 0.5 * uc.alpha * feasible.batch_norm(D) ** uc.q * feasible.batch_dual_norm(G)
    worst, witness = _worst_gap(rhs - lhs, live, lhs, rhs)
    return CheckReport(
        check="lemma1_global_scaling",
        passed=worst <= cfg.tol,
        worst_violation=max(worst, 0.0),
        witness=witness if worst > cfg.tol else None,
        config={"alpha": uc.alpha, "q": uc.q, **asdict(cfg)},
    )


def check_local_scaling(
    feasible: FeasibleSet,
    f: SmoothObjective,
    x_star: np.ndarray,
    alpha: float,
    q: float,
    cfg: SamplerConfig,
) -> CheckReport:
    """Local scaling inequality at a reference optimum:
    <-grad f(x*), x* - x> >= (alpha/2) ||grad f(x*)||_* ||x* - x||^q."""
    g_star = f.gradient(x_star)
    gnorm = feasible.dual_norm(g_star)
    if gnorm <= 1e-10 and (f.grad_floor or 0.0) > 0.0:
        raise StaleOptimum(
            f"||grad f(x*)||_* = {gnorm:g} although a gradient floor "
            f"{f.grad_floor:g} was declared"
        )
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    lhs, dist = _local_terms(feasible, g_star, x_star, X)
    rhs = 0.5 * alpha * gnorm * dist**q
    worst, witness = _worst_gap(rhs - lhs, np.arange(len(X)), lhs, rhs)
    return CheckReport(
        check="local_scaling",
        passed=worst <= cfg.tol,
        worst_violation=max(worst, 0.0),
        witness=witness if worst > cfg.tol else None,
        config={"alpha": alpha, "q": q, **asdict(cfg)},
    )


def check_lemma3(trace, c: float, alpha: float, q: float, L: float, tol: float = 1e-9) -> CheckReport:
    """Iterate-to-vertex distance control past the burn-in:
    once h_t <= 1, ||x_t - v_t|| <= H h_t^(1/(q(q-1)))."""
    from .bounds import lemma3_distance_constant

    if not trace.has_primal_gaps:
        raise InvalidParams("trace has no primal gaps")
    H = lemma3_distance_constant(c, alpha, q, L)
    past = np.flatnonzero(trace.primal_gap <= 1.0)
    if len(past) == 0:
        return CheckReport(
            check="lemma3_distance",
            passed=True,
            worst_violation=0.0,
            config={"c": c, "alpha": alpha, "q": q, "L": L, "H": H, "note": "burn-in never completed"},
        )
    start = int(past[0])
    h = trace.primal_gap[start:]
    d = trace.dist_to_vertex[start:]
    rhs = H * h ** (1.0 / (q * (q - 1.0)))
    gap = d - rhs
    worst = float(gap.max())
    witness = None
    if worst > tol:
        i = int(np.argmax(gap))
        witness = {"t": int(trace.t[start + i]), "dist": float(d[i]), "allowed": float(rhs[i])}
    return CheckReport(
        check="lemma3_distance",
        passed=worst <= tol,
        worst_violation=max(worst, 0.0),
        witness=witness,
        config={"c": c, "alpha": alpha, "q": q, "L": L, "H": H, "burn_in": start},
    )


def estimate_local_alpha(
    feasible: FeasibleSet,
    f: SmoothObjective,
    x_star: np.ndarray,
    q: float,
    cfg: SamplerConfig,
    alpha_hi: float = 16.0,
    resolution: float = 1e-4,
) -> float:
    """Largest alpha for which the local scaling inequality survives the
    sampler, by bisection; an empirical curvature gauge, never asserted
    against a catalog value."""
    g_star = f.gradient(x_star)
    gnorm = feasible.dual_norm(g_star)
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    lhs, dist = _local_terms(feasible, g_star, x_star, X)
    dpow = dist**q

    def holds(alpha: float) -> bool:
        return bool(np.all(lhs + cfg.tol >= 0.5 * alpha * gnorm * dpow))

    lo, hi = 0.0, alpha_hi
    if holds(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _local_terms(feasible: FeasibleSet, g_star: np.ndarray, x_star: np.ndarray, X: np.ndarray):
    """<-grad f(x*), x* - x> and ||x* - x|| for each sampled row x."""
    D = np.asarray(x_star, dtype=float) - X
    return _row_dots(np.broadcast_to(-g_star, D.shape), D), feasible.batch_norm(D)


def _worst_gap(gap: np.ndarray, index: np.ndarray, lhs: np.ndarray, rhs: np.ndarray):
    """The largest gap and a witness at its first maximiser (none for no
    rows); ``index`` maps rows to sample indices."""
    if len(gap) == 0:
        return -np.inf, None
    i = int(np.argmax(gap))
    return float(gap[i]), {"sample_index": int(index[i]), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
