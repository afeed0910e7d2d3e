"""The Frank-Wolfe loop with pluggable step-size strategies and full
per-iteration tracing, recorded in blocks of rows.  The reference-optimum
fallback runs through the same loop.

One run is sequential; traces are value-semantic, so independent runs can
execute concurrently without shared state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasibleStart, InvalidParams, UCFWError, ZeroDirection
from .geometry import FeasibleSet, LpBall, _block_rows, _write_csv
from .objectives import QuadraticObjective, SmoothObjective

__all__ = [
    "StepRule",
    "RunTrace",
    "short_step",
    "exact_line_search",
    "run_fw",
    "reference_optimum",
    "fw_gap_at",
]

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class StepRule:
    """Step-size strategy.

    ``deterministic`` uses the schedule 1/(t+1), ``short`` the closed-form
    short step, ``exact`` exact line search.
    """

    tag: str  # "deterministic" | "short" | "exact"

    def __post_init__(self) -> None:
        if self.tag not in ("deterministic", "short", "exact"):
            raise ValueError(f"unknown step rule {self.tag!r}")

    @staticmethod
    def deterministic() -> "StepRule":
        return StepRule("deterministic")

    @staticmethod
    def short() -> "StepRule":
        return StepRule("short")

    @staticmethod
    def exact() -> "StepRule":
        return StepRule("exact")


def short_step(fw_gap: float, L: float, d_sq: float) -> float:
    """gamma = min{1, g / (L ||x - v||^2)}, the minimizer of the smoothness
    upper bound over [0, 1]."""
    if fw_gap <= 0.0:
        return 0.0
    denom = L * d_sq
    if denom <= 0.0:
        # degenerate: positive gap with a (numerically) zero direction
        return 1.0
    return min(1.0, fw_gap / denom)


def exact_line_search(f: SmoothObjective, x: np.ndarray, d: np.ndarray, g: np.ndarray) -> float:
    """argmin_{gamma in [0,1]} f(x + gamma d), where g is the gradient of f
    at x that the caller already holds.

    Analytic for quadratics.  Otherwise bisection on the derivative
    phi'(gamma) = <grad f(x + gamma d), d>, which does not decrease for a
    convex f: 0 when phi'(0) = <g, d> >= 0, 1 when phi'(1) <= 0, else the
    midpoint of a bracket of width at most 1e-10 around the root (at most
    35 gradient calls, no value calls).
    """
    if not d.any():
        return 0.0
    if isinstance(f, QuadraticObjective):
        curv = f.curvature_along(d)
        slope = -float(np.dot(g, d))
        if curv <= 0.0:
            return 1.0 if slope > 0.0 else 0.0
        return min(max(slope / curv, 0.0), 1.0)  # keeps NaN, like np.clip
    if float(np.dot(g, d)) >= 0.0:
        return 0.0

    def slope_at(gamma: float) -> float:
        return float(np.dot(f.gradient(x + gamma * d), d))

    if slope_at(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if slope_at(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class RunTrace:
    """Per-iteration record of a Frank-Wolfe run.

    ``primal_gap`` is NaN when no reference optimum was supplied.
    ``dist_to_vertex`` and ``grad_dual_norm`` are measured in the set's norm
    pair; the short step itself uses Euclidean quantities, matching the L2
    declaration of the smoothness constant.  ``iterates`` and ``vertices``
    hold the points x_t and v_t row by row when the run was asked to keep
    them (``run_fw(..., keep_points=True)``) and are None otherwise.
    """

    t: np.ndarray
    gamma: np.ndarray
    fw_gap: np.ndarray
    primal_gap: np.ndarray
    dist_to_vertex: np.ndarray
    grad_dual_norm: np.ndarray
    iterates: Optional[np.ndarray] = None
    vertices: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def min_fw_gap(self) -> np.ndarray:
        return np.minimum.accumulate(self.fw_gap)

    @property
    def has_primal_gaps(self) -> bool:
        return bool(np.all(np.isfinite(self.primal_gap)))

    def to_csv(self, path, extra_columns: Optional[dict] = None) -> None:
        """Write the canonical CSV; float cells use repr for byte stability."""
        extra = extra_columns or {}
        _write_csv(
            path,
            ["t", "gamma", "fw_gap", "min_fw_gap", "primal_gap", "dist_to_vertex",
             "grad_dual_norm", *extra.keys()],
            [self.t, self.gamma, self.fw_gap, self.min_fw_gap, self.primal_gap,
             self.dist_to_vertex, self.grad_dual_norm,
             *(np.asarray(col, dtype=float) for col in extra.values())],
        )

    def write_sidecar(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_fw(
    feasible: FeasibleSet,
    f: SmoothObjective,
    x_init: np.ndarray,
    rule: StepRule,
    T: int,
    stop_gap: float = 1e-12,
    x_star: Optional[np.ndarray] = None,
    f_star: Optional[float] = None,
    keep_points: bool = False,
) -> RunTrace:
    """Run the Frank-Wolfe loop: LMO, step size, convex update.

    Stops after T iterations or as soon as the Frank-Wolfe gap drops to
    ``stop_gap``.  When ``x_star``/``f_star`` are given the trace carries
    primal gaps.

    Each iteration makes one gradient call, one LMO call and the step rule.
    Everything else a trace row records (the feasibility guard, primal gap,
    distance to the vertex and dual gradient norm) is computed in one
    batched pass per block of rows, and at the stop, before the trace is
    returned.  A NaN gap raises at once.

    Points live only in block buffers of at most 64 KiB each
    (:func:`~ucfw.geometry._block_rows`), so memory does not grow with T
    beyond the trace's scalar columns.  ``keep_points=True`` copies every
    block into ``(T+1)``-row arrays that the trace returns as ``iterates``
    and ``vertices``.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    x = np.array(x_init, dtype=float)
    excess = feasible.membership_excess(x)
    if not excess <= FEASIBILITY_TOL:  # also catches NaN
        raise InfeasibleStart(f"x_init violates membership by {excess:g}")
    if f_star is None and x_star is not None:
        f_star = f.value(x_star)

    # row i of the block buffers is iteration lo + i; X's spare last row
    # takes the next block's first iterate
    rows = _block_rows(x.size)
    X = np.empty((rows + 1, *x.shape))
    V = np.empty((rows, *x.shape))
    G = np.empty_like(V)
    step = np.empty(x.shape)
    if keep_points:  # rows t = 0..T; an early stop leaves the tail untouched
        iterates = np.empty((T + 1, *x.shape))
        vertices = np.empty_like(iterates)
    # scalar columns are filled row by row (zeros is lazily zeroed), so a
    # run that stops early touches only the pages of the rows it wrote
    gammas = np.zeros(T + 1)
    gaps = np.empty(T + 1)
    primals = np.empty(T + 1)
    dists = np.empty(T + 1)
    gnorms = np.empty(T + 1)

    def settle(lo: int, hi: int) -> None:
        """The batched part of rows lo..hi-1, held in the first hi-lo rows
        of the block buffers."""
        n = hi - lo
        _check_iterates(feasible, X[:n], lo)
        dists[lo:hi] = feasible.batch_norm(V[:n] - X[:n])
        gnorms[lo:hi] = feasible.batch_dual_norm(G[:n])
        primals[lo:hi] = np.nan if f_star is None else f.batch_value(X[:n]) - f_star
        if keep_points:
            iterates[lo:hi] = X[:n]
            vertices[lo:hi] = V[:n]

    # bound once; lmo still goes through the set's method, so wrapping
    # feasible.lmo (a tracer, a test probe) sees every call
    lmo, gradient, tag = feasible.lmo, f.gradient, rule.tag
    X[0] = x
    lo = 0
    for t in range(T + 1):
        i = t - lo
        x = X[i]
        g = gradient(x)
        G[i] = g
        v, d, fw_gap = _fw_vertex(lmo, g, x)
        V[i] = v
        gaps[t] = fw_gap
        if not fw_gap >= 0.0:
            _check_iterates(feasible, X[: i + 1], lo)
            raise UCFWError(f"Frank-Wolfe gap is {fw_gap} at t = {t}; numerical breakdown")

        if fw_gap <= stop_gap or t == T:
            break

        if tag == "deterministic":
            gamma = 1.0 / (t + 1.0)
        elif tag == "short":
            gamma = short_step(fw_gap, f.L, float(np.dot(d, d)))
        else:
            gamma = exact_line_search(f, x, v - x, g)
        gammas[t] = gamma
        # (1 - gamma) x + gamma v, written in place
        x_next = np.multiply(x, 1.0 - gamma, out=X[i + 1])
        x_next += np.multiply(v, gamma, out=step)
        if i + 1 == rows:
            settle(lo, t + 1)
            X[0] = X[rows]
            lo = t + 1

    n = t + 1
    settle(lo, n)
    return RunTrace(
        t=np.arange(n),
        gamma=gammas[:n],
        fw_gap=gaps[:n],
        primal_gap=primals[:n],
        dist_to_vertex=dists[:n],
        grad_dual_norm=gnorms[:n],
        iterates=iterates[:n] if keep_points else None,
        vertices=vertices[:n] if keep_points else None,
        metadata={
            "set": feasible.descriptor(),
            "objective": f.descriptor(),
            "step_rule": rule.tag,
            "horizon": T,
            "stop_gap": stop_gap,
            "stopped_at": t,
            "f_star": f_star,
        },
    )


def _check_iterates(feasible: FeasibleSet, X: np.ndarray, lo: int) -> None:
    """Raise if a row of X (iterate lo + i) lies outside the set by more than
    the tolerance or is NaN."""
    excess = feasible.batch_membership_excess(X)
    bad = np.flatnonzero(~(excess <= FEASIBILITY_TOL))
    if len(bad):
        i = int(bad[0])
        raise UCFWError(
            f"iterate t = {lo + i} left the feasible set by {excess[i]:g}; numerical breakdown"
        )


def reference_optimum(
    feasible: FeasibleSet,
    f: SmoothObjective,
    x_init: np.ndarray,
    horizon: int,
    stop_gap: float = 0.0,
) -> tuple[np.ndarray, float]:
    """High-accuracy solution of min f over the set.

    A diagonal quadratic over an lp ball is solved exactly from its KKT
    system (:func:`_lp_ball_quadratic_optimum`).  Every other problem falls
    back to :func:`run_fw` with exact line search from ``x_init`` for
    ``horizon`` steps (or until the gap drops to ``stop_gap``), returning
    the first iterate of least value; a numerical breakdown raises
    :class:`UCFWError`.  The experiment suites give it 50x the plotted
    horizon.
    """
    if isinstance(f, QuadraticObjective) and f.diagonal and isinstance(feasible, LpBall):
        return _lp_ball_quadratic_optimum(feasible, f)
    trace = run_fw(feasible, f, x_init, StepRule.exact(), horizon, stop_gap=stop_gap, keep_points=True)
    values = f.batch_value(trace.iterates)
    best = int(np.argmin(values))
    return trace.iterates[best].copy(), float(values[best])


def _fw_vertex(lmo, g: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The vertex v = lmo(-g) for gradient g at x, x - v, and the
    Frank-Wolfe gap <g, x - v>; a zero gradient gives (x, 0, 0)."""
    try:
        v = lmo(-g)
    except ZeroDirection:
        return x.copy(), np.zeros_like(x), 0.0
    d = x - v
    # LMO optimality makes the gap non-negative; clip roundoff only
    return v, d, max(float(np.dot(g, d)), 0.0)


def fw_gap_at(feasible: FeasibleSet, f: SmoothObjective, x: np.ndarray) -> float:
    """Frank-Wolfe gap max_v <grad f(x), x - v> as the traced runs record
    it.  For a feasible x it bounds f(x) - min f from above, so at a
    reference optimum it certifies f_star (Jaggi, ICML 2013)."""
    return _fw_vertex(feasible.lmo, f.gradient(x), x)[2]


_EPS = np.finfo(float).eps


def _lp_ball_quadratic_optimum(ball: LpBall, f: QuadraticObjective) -> tuple[np.ndarray, float]:
    """Minimiser of f(x) = 1/2 sum a_i (x_i - x0_i)^2 over ||x||_p <= r.

    x* = x0 when x0 is inside the ball, and r sign(x0_i) e_i when x0 lies
    on one axis.  Otherwise, with b = |x0| and y = |x*|, the KKT conditions
    are a_i (b_i - y_i) = mu y_i^(p-1) and sum y_i^p = r^p; coordinates with
    b_i = 0 stay 0.  In u = y / r the target is sum u^p = 1, which keeps the
    powers in range; see :func:`_kkt_magnitudes`.
    """
    a, x0, p, r = f.A, f.x0, ball.p, ball.radius
    if not (np.isfinite(p) and np.isfinite(r) and np.all(np.isfinite(a)) and np.all(np.isfinite(x0))):
        raise InvalidParams("reference optimum needs finite p, radius, A and x0")
    if ball.norm(x0) <= r:
        return x0.copy(), 0.0
    support = np.flatnonzero(x0)
    x = np.zeros_like(x0)
    if len(support) == 1:
        i = support[0]
        x[i] = r * np.sign(x0[i])
        return x, f.value(x)
    u = _kkt_magnitudes(a[support], np.abs(x0[support]) / r, p)
    x[support] = r * np.sign(x0[support]) * u
    # rounding can leave x a few ulps outside the ball
    for _ in range(8):
        n = ball.norm(x)
        if n <= r:
            break
        x *= min(r / n, 1.0 - _EPS)
    return x, f.value(x)


def _kkt_magnitudes(a: np.ndarray, beta: np.ndarray, p: float) -> np.ndarray:
    """Solve a_i (beta_i - u_i) = nu u_i^(p-1), sum u_i^p = 1 for u in
    [0, beta] (all beta_i > 0, ||beta||_p > 1).

    Inner: for a fixed nu each coordinate is a root of a concave decreasing
    residual, solved in s = u for p >= 2 and in s = u^(p-1) for p < 2:
    psi(s) = a (beta - s^k) - nu s^m with (k, m) = (1, p-1) or (1/(p-1), 1).
    The residual's root lies below s0 = min(beta^(1/k), (a beta / nu)^(1/m)),
    and Newton from a point right of the root of a concave decreasing
    function descends monotonically onto it.

    Outer: log sum u(nu)^p falls monotonically in t = log nu; bracketed
    Newton on t, starting from nu0 = ||(a beta)||_{p/(p-1)}, where
    u <= (a beta / nu0)^(1/(p-1)) puts the sum at or below 1.
    """
    la = np.log(a * beta)
    if p >= 2.0:
        k, m = 1.0, p - 1.0
    else:
        k, m = 1.0 / (p - 1.0), 1.0
    s_top = beta ** (1.0 / k)

    def magnitudes(t: float) -> np.ndarray:
        s = np.minimum(s_top, np.exp((la - t) / m))
        nu = np.exp(t)
        for _ in range(100):
            resid = a * (beta - s**k) - nu * s**m
            slope = a * k * s ** (k - 1.0) + nu * m * s ** (m - 1.0)
            s_new = np.maximum(s + resid / slope, 0.0)
            settled = np.all(s - s_new <= 4.0 * _EPS * s)
            s = s_new
            if settled:
                break
        return s**k

    w = la * (p / (p - 1.0))
    wmax = float(w.max())
    t = (p - 1.0) / p * (wmax + float(np.log(np.sum(np.exp(w - wmax)))))
    t_lo, t_hi = -np.inf, t
    for _ in range(200):
        u = magnitudes(t)
        up = u**p
        total = float(np.sum(up))
        h = float(np.log(total))
        if h == 0.0:
            break
        if h > 0.0:
            t_lo = t
        else:
            t_hi = t
        # d log(sum u^p) / dt, from implicit differentiation of the residual
        dh = -p * float(np.sum((beta - u) * up / (u + (p - 1.0) * (beta - u)))) / total
        t_new = t - h / dh if dh < 0.0 else np.nan
        if not t_lo <= t_new <= t_hi:  # also catches NaN
            t_new = 0.5 * (t_lo + t_hi) if np.isfinite(t_lo) else t_hi - 1.0
        if abs(t_new - t) <= 4.0 * _EPS * max(1.0, abs(t)):
            break
        t = t_new
    return u
