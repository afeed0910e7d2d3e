"""Sampling-based verification of the geometric inequalities behind the
rate theorems: uniform-convexity membership, the global and local scaling
inequalities, and the iterate-to-vertex distance control.

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
from .objectives import SmoothObjective

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


# check_definition1 skips a row only when its bound, raised by this much
# times the set's scale |excess(0)| plus the bound's own size, is still below
# the floor.  It covers roundoff: the bound and each sampled excess are off by
# ~1e-15 relative at worst (the 3x3 Schatten closed form's figure), while the
# catalog's bounds sit at least 2e-5 of the scale below 0
_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    n_pairs: int = 1000
    n_directions: int = 50
    seed: int = 0
    boundary_bias: float = 0.5

    def __post_init__(self) -> None:
        if self.n_pairs < 1 or self.n_directions < 1:
            raise InvalidParams("sample counts must be positive")
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
    """Membership test of the uniform-convexity definition.

    For sampled feasible pairs (x, y), a grid of interpolation weights eta,
    and sampled unit perturbations z, the point ``c + rho z`` with
    ``c = eta x + (1-eta) y`` and ``rho = eta (1-eta) alpha ||x-y||^q`` must
    stay in the set.  ``worst_violation`` is the largest membership excess
    observed.

    At eta in {0, 1} rho is 0, so each pair is evaluated once.  At an
    interior eta, ``||c + rho z|| <= ||c|| + rho``, so the excess of
    ``c (1 + rho / ||c||)``, the farthest point of the ball B(c, rho) along
    c, bounds every sampled excess of its (eta, pair) row; this holds for
    any excess that grows with the norm, the level set's squared one
    included.  The floor theta is the largest of 0, the excesses at
    eta in {0, 1} and the sampled excesses of the row with the largest
    bound.  A row's perturbed points are built only when its bound is not
    below theta (less a roundoff margin, ``_BOUND_SLACK``) or is NaN; every
    other row's excesses are below theta, so they count as -inf.  That
    cannot change a report: theta is an excess the check attained, or 0,
    and an excess <= 0 is neither a worst violation nor a witness.

    Each built row is reduced at once to its largest excess and its first
    maximising direction, and only built rows are kept, so memory is
    O(pairs + directions) plus the perturbed points of the rows built at
    one eta, never pairs x directions.
    """
    rng = np.random.default_rng(cfg.seed)
    X = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Y = sample_feasible(feasible, cfg.n_pairs, rng, cfg.boundary_bias)
    Z = rng.standard_normal((cfg.n_directions, feasible.dim))
    Z /= feasible.batch_norm(Z)[:, None]
    etas = np.linspace(0.0, 1.0, 11)
    n = len(X)

    dist = feasible.batch_norm(X - Y)  # (n,)
    dist_q = dist**uc.q

    def combo(eta: np.float64, rows=slice(None)) -> np.ndarray:
        return eta * X[rows] + (1.0 - eta) * Y[rows]

    def radial(eta: np.float64, rows=slice(None)) -> np.ndarray:
        return (eta * (1.0 - eta)) * uc.alpha * dist_q[rows]

    def reduced(eta: np.float64, rows: np.ndarray) -> tuple:
        """(rows, each row's largest excess, its first maximising direction)
        over the perturbed points of the given rows; NaN counts as largest,
        as in one argmax."""
        if not len(rows):
            return rows, np.empty(0), np.empty(0, dtype=np.intp)
        points = combo(eta, rows)[:, None, :] + radial(eta, rows)[:, None, None] * Z[None, :, :]
        excess = feasible.batch_membership_excess(points)  # (rows, directions)
        return rows, excess.max(axis=1), excess.argmax(axis=1)

    def reduced_end(eta: np.float64) -> tuple:
        """Every row at eta in {0, 1}."""
        if radial(eta).any():  # 0 * inf: ||x-y||^q overflowed
            return reduced(eta, np.arange(n))
        # no perturbation: every direction gives the same point, so each
        # row's first maximiser is direction 0
        base = feasible.batch_membership_excess(combo(eta)[:, None, :])[:, 0]
        return np.arange(n), base, np.zeros(n, dtype=np.intp)

    ends = [reduced_end(eta) for eta in etas[[0, -1]]]

    inner = etas[1:-1]
    bound = np.empty((len(inner), n))
    # c = 0 or an infinite rho gives a NaN or inf bound, and so a built row
    for k, eta in enumerate(inner):
        c = combo(eta)
        bound[k] = feasible.batch_membership_excess(c * (1.0 + radial(eta) / feasible.batch_norm(c))[:, None])
    scale = abs(feasible.membership_excess(np.zeros(feasible.dim)))
    reach = bound + _BOUND_SLACK * (scale + np.abs(bound))  # what a sampled excess may reach

    theta = np.max([0.0, ends[0][1].max(), ends[1][1].max()])  # NaN-propagating
    top = np.unravel_index(int(np.argmax(bound)), bound.shape)  # NaN first
    top_row = None
    if not reach[top] < theta:
        top_row = reduced(inner[top[0]], np.array([top[1]]))
        theta = np.max([theta, top_row[1][0]])
    wanted = ~(reach < theta)
    wanted[top] = False  # built above, if at all
    # per eta, its built rows in pair order; an unbuilt row's excesses are
    # below theta, so they count as -inf
    slabs = [ends[0]]
    for k, eta in enumerate(inner):
        slab = reduced(eta, np.flatnonzero(wanted[k]))
        if top_row is not None and k == top[0]:
            at = np.searchsorted(slab[0], top[1])
            slab = tuple(np.insert(a, at, b) for a, b in zip(slab, top_row))
        slabs.append(slab)
    slabs.append(ends[1])
    maxima = np.array([peaks.max() if len(peaks) else -np.inf for _, peaks, _ in slabs])  # NaN-propagating

    def witness_at(ie: int) -> dict:
        """The first maximiser in (eta, pair, direction) order."""
        rows, peaks, directions = slabs[ie]
        i = int(np.argmax(peaks))
        ip = rows[i]
        return {
            "eta": float(etas[ie]),
            "pair_index": int(ip),
            "direction_index": int(directions[i]),
            "chord_length": float(dist[ip]),
            "excess": float(maxima[ie]),
        }

    return _report("definition1", maxima, witness_at, CHECK_TOL, {"alpha": uc.alpha, "q": uc.q, **asdict(cfg)})


@np.errstate(over="ignore", invalid="ignore")
def check_lemma1(
    feasible: FeasibleSet, uc: UCParams, f: SmoothObjective, cfg: SamplerConfig
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
    return _report(
        "local_scaling", rhs - lhs,
        lambda i: {"sample_index": i, "lhs": float(lhs[i]), "rhs": float(rhs[i])},
        CHECK_TOL, {"alpha": alpha, "q": q, **asdict(cfg)},
    )


def check_lemma3(trace, c: float, alpha: float, q: float, L: float) -> CheckReport:
    """Iterate-to-vertex distance control past the burn-in:
    once h_t <= 1, ||x_t - v_t|| <= H h_t^(1/(q(q-1)))."""
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
    h = trace.primal_gap[start:]
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
