"""Sampling-based verification of the geometric inequalities behind the
rate theorems: uniform-convexity membership, the global and local scaling
inequalities, and the iterate-to-vertex distance control.

The checks sample feasible points; Definition 1 samples pairs of them, and
takes the worst perturbation of each pair in closed form, at the farthest
point of the perturbing ball.

Every check, :func:`check_trace`'s rate envelopes included, measures one
quantity per sample against its proven bound and reports the largest excess
in one :class:`CheckReport`.  Checks are report-only and deterministic given
(seed, config); reducers use max/argmax only, so evaluation order cannot
change a report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import bounds as bnd
from .errors import InvalidParams, StaleOptimum, UCFWError
from .geometry import FeasibleSet, UCParams, _row_dots
from .objectives import QuadraticObjective, grad_floor_quadratic

__all__ = [
    "SamplerConfig",
    "CheckReport",
    "sample_feasible",
    "check_definition1",
    "check_lemma1",
    "check_local_scaling",
    "check_lemma3",
    "check_trace",
    "estimate_local_alpha",
    "CHECK_TOL",
    "TRACE_TOL",
]

# a sampled check passes when its worst violation is at most CHECK_TOL
CHECK_TOL = 1e-9
# check_trace's tolerance: primal gaps fall to ~1e-12, where an absolute 1e-9
# would let any envelope pass
TRACE_TOL = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    n_pairs: int = 1000
    seed: int = 0
    boundary_bias: float = 0.5

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise InvalidParams("n_pairs must be positive")
        if not 0.0 <= self.boundary_bias <= 1.0:
            raise InvalidParams("boundary_bias must be in [0, 1]")


@dataclass
class CheckReport:
    """A check's verdict; built only by :func:`_report`.  ``config`` records
    the check's constants and its tolerance ``tol``."""

    check: str
    passed: bool
    worst_violation: float
    witness: Optional[dict]
    config: dict

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def _report(check: str, gap: np.ndarray, witness_at: Callable[[int], dict], tol: float, config: dict) -> CheckReport:
    """The one constructor of every report.  ``gap`` holds, per sample, the
    measured quantity less its proven bound; the worst violation is its
    largest entry, and the check passes when that is at most ``tol`` (with
    no sample, it passes at 0).  The witness, ``witness_at(i)`` at the first
    maximiser i, is kept only on failure.  A NaN or +inf worst gap is a
    numerical breakdown, not a verdict: it raises :class:`UCFWError`."""
    i = int(np.argmax(gap)) if len(gap) else None  # argmax: the first NaN, else the first maximum
    worst = -math.inf if i is None else float(gap[i])
    if not worst < math.inf:
        raise UCFWError(f"{check}: worst violation is {worst}; numerical breakdown")
    passed = worst <= tol
    return CheckReport(check, passed, max(worst, 0.0), None if passed else witness_at(i), {**config, "tol": tol})


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


# an overflow here, in check_lemma1 or in check_local_scaling that reaches the
# worst gap makes it NaN or infinite, which _report refuses; numpy's warnings
# would only repeat that error
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def check_definition1(
    feasible: FeasibleSet, uc: UCParams, cfg: SamplerConfig
) -> CheckReport:
    """Membership test of the uniform-convexity definition (Definition 1).

    For sampled feasible pairs (x, y) and a grid of interpolation weights
    eta, every point ``c + rho z`` with ``c = eta x + (1-eta) y``,
    ``rho = eta (1-eta) alpha ||x-y||^q`` and ``||z|| <= 1`` must stay in
    the set.  ``worst_violation`` is the largest membership excess over all
    such z, one per (eta, pair), and the witness is its first maximiser in
    (eta, pair) order.

    Every :class:`FeasibleSet` is a ball of its own norm, and its excess
    grows with that norm (the level set's squared one included).  Since
    ``||c + rho z|| <= ||c|| + rho``, with equality at ``z = c / ||c||``,
    the worst z is attained at the farthest point ``c (1 + rho / ||c||)``
    of the ball B(c, rho).  Where c = 0 every unit z is farthest; the check
    takes the boundary point along the ones vector, scaled to unit norm.
    At eta in {0, 1} rho is 0 and the point is c itself, to the bit.  The
    excesses are evaluated one weight at a time, so memory is O(pairs).
    """
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Y = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    unit = feasible.boundary_point(np.ones((1, feasible.dim))) / feasible.radius
    etas = np.linspace(0.0, 1.0, 11)
    n = len(X)

    dist = feasible.batch_norm(X - Y)  # (n,)
    dist_q = dist**uc.q
    excess = np.empty((len(etas), n))
    for k, eta in enumerate(etas):
        c = eta * X + (1.0 - eta) * Y
        # an overflowed dist_q makes rho NaN at eta in {0, 1} (0 * inf): no verdict
        rho = ((eta * (1.0 - eta)) * uc.alpha * dist_q)[:, None]
        norm_c = feasible.batch_norm(c)[:, None]
        excess[k] = feasible.batch_membership_excess(np.where(norm_c == 0.0, rho * unit, c * (1.0 + rho / norm_c)))

    def witness_at(i: int) -> dict:
        ie, ip = divmod(i, n)
        return {
            "eta": float(etas[ie]),
            "pair_index": ip,
            "chord_length": float(dist[ip]),
            "excess": float(excess[ie, ip]),
        }

    return _report("definition1", excess.ravel(), witness_at, CHECK_TOL, {"alpha": uc.alpha, "q": uc.q, **asdict(cfg)})


@np.errstate(over="ignore", invalid="ignore")
def check_lemma1(
    feasible: FeasibleSet, uc: UCParams, f: QuadraticObjective, cfg: SamplerConfig
) -> CheckReport:
    """Global scaling inequality at sampled feasible points:
    <-grad f(x), v - x> >= (alpha/2) ||v - x||^q ||grad f(x)||_* with
    v = lmo(-grad f(x))."""
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    G = f.batch_gradient(X)
    live = np.flatnonzero(np.any(G, axis=1))  # a zero gradient has no LMO vertex
    G, X = G[live], X[live]
    D = feasible.lmo(-G) - X
    lhs = _row_dots(-G, D)
    rhs = 0.5 * uc.alpha * feasible.batch_norm(D) ** uc.q * feasible.batch_dual_norm(G)
    return _report(
        "lemma1_global_scaling", rhs - lhs,
        lambda i: {"sample_index": int(live[i]), "lhs": float(lhs[i]), "rhs": float(rhs[i])},
        CHECK_TOL, {"alpha": uc.alpha, "q": uc.q, **asdict(cfg)},
    )


@np.errstate(over="ignore", invalid="ignore")
def check_local_scaling(
    feasible: FeasibleSet,
    f: QuadraticObjective,
    x_star: np.ndarray,
    alpha: float,
    q: float,
    cfg: SamplerConfig,
) -> CheckReport:
    """Local scaling inequality at a reference optimum:
    <-grad f(x*), x* - x> >= (alpha/2) ||grad f(x*)||_* ||x* - x||^q.
    A vanishing gradient at x* although f's gradient floor over the set
    (:func:`~ucfw.objectives.grad_floor_quadratic`) is positive means x* is
    not the optimum: :class:`StaleOptimum`."""
    g_star = f.gradient(x_star)
    gnorm = feasible.dual_norm(g_star)
    if gnorm <= 1e-10 and (floor := grad_floor_quadratic(f, feasible)) > 0.0:
        raise StaleOptimum(f"||grad f(x*)||_* = {gnorm:g} although the gradient floor over the set is {floor:g}")
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    lhs, dist = _local_terms(feasible, g_star, x_star, X)
    rhs = 0.5 * alpha * gnorm * dist**q
    return _report(
        "local_scaling", rhs - lhs,
        lambda i: {"sample_index": i, "lhs": float(lhs[i]), "rhs": float(rhs[i])},
        CHECK_TOL, {"alpha": alpha, "q": q, **asdict(cfg)},
    )


def check_lemma3(trace, c: float, alpha: float, q: float, L: float) -> CheckReport:
    """Iterate-to-vertex distance control past the burn-in:
    once h_t <= 1, ||x_t - v_t|| <= H h_t^(1/(q(q-1))).  A primal gap below
    0, roundoff against an exact f*, reads as 0."""
    if not trace.has_primal_gaps:
        raise InvalidParams("trace has no primal gaps")
    H = bnd.lemma3_distance_constant(c, alpha, q, L)
    config = {"c": c, "alpha": alpha, "q": q, "L": L, "H": H}
    past = np.flatnonzero(trace.primal_gap <= 1.0)
    if len(past) == 0:
        config["note"] = "burn-in never completed"
        start = len(trace.primal_gap)
    else:
        start = config["burn_in"] = int(past[0])
    h = np.maximum(trace.primal_gap[start:], 0.0)
    d = trace.dist_to_vertex[start:]
    rhs = H * h ** (1.0 / (q * (q - 1.0)))
    return _report(
        "lemma3_distance", d - rhs,
        lambda i: {"t": int(trace.t[start + i]), "dist": float(d[i]), "allowed": float(rhs[i])},
        CHECK_TOL, config,
    )


def check_trace(trace, bound: bnd.RateBound, burn_in: int = 0) -> CheckReport:
    """A rate envelope against a run: h_t <= bound.evaluate(t - burn_in) at
    every recorded t >= burn_in, up to ``TRACE_TOL``.  The report's check is
    the bound's theorem tag, its witness ``{t, h, bound}``, and its config
    records ``max_ratio``, the largest h_t / bound (null when infinite)."""
    if not trace.has_primal_gaps:
        raise InvalidParams("trace has no primal gaps; supply a reference optimum")
    mask = trace.t >= burn_in
    ts = trace.t[mask]
    hs = trace.primal_gap[mask]
    curve = np.asarray(bound.evaluate(ts - burn_in), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(curve > 0.0, hs / curve, np.where(hs > 0.0, np.inf, 0.0))
        gap = hs - curve
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    return _report(
        bound.theorem_tag, gap,
        lambda i: {"t": int(ts[i]), "h": float(hs[i]), "bound": float(curve[i])},
        TRACE_TOL, {"burn_in": burn_in, "max_ratio": max_ratio if math.isfinite(max_ratio) else None},
    )


def estimate_local_alpha(
    feasible: FeasibleSet,
    f: QuadraticObjective,
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
        return bool(np.all(lhs + CHECK_TOL >= 0.5 * alpha * gnorm * dpow))

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
