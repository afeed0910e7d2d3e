"""The Frank-Wolfe loop with pluggable step-size strategies and full
per-iteration tracing, recorded in blocks of rows, for the diagonal
:class:`~ucfw.objectives.QuadraticObjective` every verb builds; its exact
line search is a closed form.  The reference-optimum fallback runs through
the same loop.

One run is sequential; traces are value-semantic, so independent runs can
execute concurrently without shared state.  :func:`run_fw_stack` runs many
problems of one dimension in lockstep, one row per problem, with one
stacked LMO call per run of consecutive problems over equal sets, and
gives each problem :func:`run_fw`'s trace bit for bit; fig2 runs one stack
per usable CPU.  A single run keeps :func:`run_fw`, because the stack's
bookkeeping made it 1.3-1.9x slower at k = 1.

:func:`reference_optimum` gives a problem's optimum from the set and the
objective alone, with the Frank-Wolfe gap that certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, InfeasibleStart, InvalidParams, UCFWError, ZeroDirection
from .geometry import FeasibleSet, LpBall, _block_rows, _row_dots, _write_csv, _write_json
from .objectives import QuadraticObjective

__all__ = [
    "StepRule",
    "RunTrace",
    "short_step",
    "exact_line_search",
    "run_fw",
    "run_fw_stack",
    "reference_optimum",
    "x_init_for",
]

FEASIBILITY_TOL = 1e-9
# the reference fallback: exact line search from x_init_for(feasible, 0) for
# at most this many steps, or until the Frank-Wolfe gap drops to the stop gap
REFERENCE_HORIZON = 50_000
REFERENCE_STOP_GAP = 1e-13


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


def exact_line_search(f: QuadraticObjective, d: np.ndarray, g: np.ndarray) -> float:
    """argmin_{gamma in [0,1]} f(x + gamma d) for the quadratic f, where g
    is its gradient at x that the caller already holds: the slope -<g, d>
    over the curvature d^T A d, clipped to [0, 1].  A zero direction takes
    0; so does a zero curvature, unless the slope is positive."""
    if not d.any():
        return 0.0
    curv = float(np.dot(d, f.A * d))
    slope = -float(np.dot(g, d))
    if curv <= 0.0:
        return 1.0 if slope > 0.0 else 0.0
    return min(max(slope / curv, 0.0), 1.0)  # keeps NaN, like np.clip


@dataclass
class RunTrace:
    """Per-iteration record of a Frank-Wolfe run.

    ``primal_gap`` is NaN when no reference optimum was supplied.
    ``dist_to_vertex`` and ``grad_dual_norm`` are measured in the set's norm
    pair; the short step itself uses Euclidean quantities, matching the L2
    declaration of the smoothness constant.  ``best_x`` is the first
    iterate of least objective value and ``best_value`` its value.
    """

    t: np.ndarray
    gamma: np.ndarray
    fw_gap: np.ndarray
    primal_gap: np.ndarray
    dist_to_vertex: np.ndarray
    grad_dual_norm: np.ndarray
    best_x: Optional[np.ndarray] = None
    best_value: float = np.nan
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
        _write_json(path, self.metadata)


def run_fw(
    feasible: FeasibleSet,
    f: QuadraticObjective,
    x_init: np.ndarray,
    rule: StepRule,
    T: int,
    stop_gap: float = 1e-12,
    f_star: Optional[float] = None,
) -> RunTrace:
    """Run the Frank-Wolfe loop: LMO, step size, convex update.

    Stops after T iterations or as soon as the Frank-Wolfe gap drops to
    ``stop_gap``.  When ``f_star`` is given the trace carries primal gaps.

    Each iteration makes one gradient call, one LMO call and the step rule.
    Everything else a trace row records (the feasibility guard, primal gap,
    distance to the vertex and dual gradient norm) is computed in one
    batched pass per block of rows, and at the stop, before the trace is
    returned.  So is the objective value, from which the trace keeps its
    first iterate of least value.  A NaN gap raises at once.

    Points live only in block buffers of at most 64 KiB each
    (:func:`~ucfw.geometry._block_rows`), so memory does not grow with T
    beyond the trace's scalar columns.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    x = np.array(x_init, dtype=float)
    _check_start(feasible, x)

    # row i of the block buffers is iteration lo + i; X's spare last row
    # takes the next block's first iterate
    rows = _block_rows(x.size)
    X = np.empty((rows + 1, *x.shape))
    V = np.empty((rows, *x.shape))
    G = np.empty_like(V)
    step = np.empty(x.shape)
    cols = _Columns(feasible, f, T, f_star)
    gammas, gaps = cols.gammas, cols.gaps

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
            raise _gap_breakdown(fw_gap, t)

        if fw_gap <= stop_gap or t == T:
            break

        if tag == "deterministic":
            gamma = 1.0 / (t + 1.0)
        elif tag == "short":
            gamma = short_step(fw_gap, f.L, float(np.dot(d, d)))
        else:
            gamma = exact_line_search(f, v - x, g)
        gammas[t] = gamma
        # (1 - gamma) x + gamma v, written in place
        x_next = np.multiply(x, 1.0 - gamma, out=X[i + 1])
        x_next += np.multiply(v, gamma, out=step)
        if i + 1 == rows:
            cols.settle(X, V, G, lo, t + 1)
            X[0] = X[rows]
            lo = t + 1

    cols.settle(X, V, G, lo, t + 1)
    return cols.trace(rule, T, stop_gap, t)


def run_fw_stack(problems, T: int, stop_gap: float = 1e-12) -> list[RunTrace]:
    """Run k Frank-Wolfe problems of one dimension in lockstep, one
    ``(feasible, f, x_init, rule, f_star)`` tuple each, with ``f`` a
    :class:`~ucfw.objectives.QuadraticObjective` that keeps its own
    ``gradient`` (the stack computes it inline).  Returns one trace per
    problem, in order, equal bit for bit to what :func:`run_fw` returns for
    it: every column, ``best_x``, ``best_value`` and the metadata.

    Stack row j is problem j.  Each iteration stacks the gradient, the gap,
    the step rules the stack's problems take and the convex update over all
    k rows.  Consecutive problems over equal sets share one call of their
    set's ``lmo`` on their slice of rows, through the instance, so a
    wrapper on the set's method sees every call; so do the batched oracles
    of each row's blocks.  Callers that put problems over one set together
    make the fewest calls.  A row stops on its own gap or at T and then
    stays where it stopped; what it computes afterwards reaches no trace,
    guard or error; a row that stopped on a zero gradient gives its span's
    lmo a ones row, since its zero phi would make the call raise.  The loop
    ends when every row has stopped.  A zero
    gradient, a NaN gap and an iterate that leaves the set take the same
    course for a row as in :func:`run_fw`, and of the rows that fail
    together, the first problem's raises its error.

    Each row's points live in block buffers of at most 64 KiB, as in
    :func:`run_fw`, so memory does not grow with T beyond the traces'
    scalar columns.  The stack pays its span and rule bookkeeping on every
    iteration: at k = 1 it ran 1.3-1.9x slower than :func:`run_fw` (solve's
    deterministic lp configs at d = 8, 100 and 1000), so a single run takes
    :func:`run_fw`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    k = len(problems)
    if k == 0:
        return []
    xs = [np.array(x_init, dtype=float) for _, _, x_init, _, _ in problems]
    dim = xs[0].size
    for (feasible, f, _, _, _), x in zip(problems, xs):
        if getattr(f.gradient, "__func__", None) is not QuadraticObjective.gradient:
            raise InvalidParams("run_fw_stack needs quadratics with their own gradient")
        if x.shape != (dim,) or f.x0.shape != (dim,):
            raise InvalidParams(f"run_fw_stack needs problems of one dimension {dim}")
        _check_start(feasible, x)
    cols = [_Columns(feasible, f, T, f_star) for feasible, f, _, _, f_star in problems]
    sets = [feasible for feasible, *_ in problems]
    A = np.array([f.A for _, f, *_ in problems])
    x0 = np.array([f.x0 for _, f, *_ in problems])
    L = np.array([f.L for _, f, *_ in problems])
    # runs of consecutive equal sets as (start, end, lmo) spans of rows
    cuts = [j for j in range(1, k) if sets[j] != sets[j - 1]]
    spans = [(s, e, sets[s].lmo) for s, e in zip([0, *cuts], [*cuts, k])]
    parked = []  # the rows that stopped on a zero gradient
    tags = np.array([rule.tag for _, _, _, rule, _ in problems])
    short, exact = tags == "short", tags == "exact"
    short, exact = short if short.any() else None, exact if exact.any() else None

    # block buffers as in run_fw, with the stack rows along the second axis;
    # GAP and GAM hold the block's gaps and steps until its rows settle
    rows = _block_rows(dim)
    X = np.empty((rows + 1, k, dim))
    V = np.empty((rows, k, dim))
    G = np.empty_like(V)
    GAP = np.empty((rows, k))
    GAM = np.empty((rows, k))
    X[0] = xs
    traces: list = [None] * k

    def settle(js, lo: int, hi: int) -> None:
        n = hi - lo
        for j in js:  # in problem order, so a guard raises for the first problem
            c = cols[j]
            c.gaps[lo:hi] = GAP[:n, j]
            c.gammas[lo:hi] = GAM[:n, j]
            c.settle(X[:, j], V[:, j], G[:, j], lo, hi)

    live = np.ones(k, dtype=bool)  # the rows that still run
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # the rule a row does not take may divide 0 by 0
        for t in range(T + 1):
            i = t - lo
            x = X[i]
            g = np.subtract(x, x0, out=G[i])
            g *= A
            phi = -g
            if parked:  # their zero phi would make the lmo raise; their vertices are never read
                phi[parked] = 1.0
            v = V[i]
            zero = []
            for s, e, lmo in spans:
                try:
                    v[s:e] = lmo(phi[s:e])
                except ZeroDirection:
                    # run_fw's zero-gradient branch: v = x and a zero gap
                    nonzero = g[s:e].any(axis=1)
                    z, nz = s + np.flatnonzero(~nonzero), s + np.flatnonzero(nonzero)
                    v[z] = x[z]
                    if len(nz):
                        v[nz] = lmo(phi[nz])
                    zero += z.tolist()
            d = x - v
            dots = _row_dots(g, d)
            gap = np.where(dots < 0.0, 0.0, dots)  # max(dot, 0.0), as run_fw clips roundoff
            if zero:
                gap[zero] = 0.0
            GAP[i] = gap

            stop = live & ~(gap > stop_gap)
            if t == T or stop.any():
                bad = np.flatnonzero(live & ~(gap >= 0.0))
                if len(bad):
                    j = bad[0]
                    _check_iterates(sets[j], X[: i + 1, j], lo)
                    raise _gap_breakdown(float(gap[j]), t)
                if t == T:
                    stop = live
                js = np.flatnonzero(stop)
                GAM[i, js] = 0.0  # the last row takes no step
                settle(js, lo, t + 1)
                for j in js:
                    traces[j] = cols[j].trace(problems[j][3], T, stop_gap, t)
                live = live & ~stop
                if not live.any():
                    break
                parked += [j for j in zero if stop[j]]

            gamma = np.full(k, 1.0 / (t + 1.0))
            if short is not None:
                gamma = np.where(short, _short_steps(gap, L, d), gamma)
            if exact is not None:
                gamma = np.where(exact, _exact_steps(A, x, v, g), gamma)
            GAM[i] = gamma
            x_next = x * (1.0 - gamma)[:, None]
            x_next += v * gamma[:, None]
            X[i + 1] = np.where(live[:, None], x_next, x)  # a stopped row stays where it stopped
            if i + 1 == rows:
                settle(np.flatnonzero(live), lo, t + 1)
                X[0] = X[rows]
                lo = t + 1
    return traces


def _short_steps(gap: np.ndarray, L: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`short_step` for each row: gap, L and x - v stacked.  A
    positive gap over a zero L ||d||^2 is inf, so it takes 1, as
    :func:`short_step` does."""
    q = gap / (L * _row_dots(d, d))
    gamma = np.where(q < 1.0, q, 1.0)  # min(1.0, q)
    return np.where(gap <= 0.0, 0.0, gamma)


def _exact_steps(A: np.ndarray, x: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`exact_line_search`'s step for each row: diagonals A, iterates
    x, vertices v and gradients g stacked.  A zero direction has zero curvature and takes 0."""
    d = v - x
    curv = _row_dots(d, A * d)
    slope = -_row_dots(g, d)
    q = slope / curv
    q = np.where(q < 0.0, 0.0, q)  # max(q, 0.0), which keeps NaN and -0.0
    q = np.where(q > 1.0, 1.0, q)  # min(q, 1.0)
    return np.where(curv <= 0.0, np.where(slope > 0.0, 1.0, 0.0), q)


class _Columns:
    """One run's scalar columns and its first iterate of least value, from
    which it assembles the run's :class:`RunTrace`.

    The caller writes ``gammas`` and ``gaps`` as it goes; :meth:`settle`
    fills the batched columns one block of rows at a time.  The columns are
    filled row by row (zeros is lazily zeroed), so a run that stops early
    touches only the pages of the rows it wrote.
    """

    def __init__(self, feasible: FeasibleSet, f: QuadraticObjective, T: int, f_star: Optional[float]):
        self.feasible, self.f, self.f_star = feasible, f, f_star
        try:
            self.gammas = np.zeros(T + 1)
            self.gaps = np.empty(T + 1)
            self.primals = np.empty(T + 1)
            self.dists = np.empty(T + 1)
            self.gnorms = np.empty(T + 1)
        except (ValueError, MemoryError) as exc:
            raise InvalidParams(f"T = {T} is too large to allocate: {exc}") from exc
        self.best_x, self.best_value = None, np.nan

    def settle(self, X: np.ndarray, V: np.ndarray, G: np.ndarray, lo: int, hi: int) -> None:
        """The batched part of rows lo..hi-1, held in the first hi-lo rows
        of the block buffers X, V and G."""
        n, feasible = hi - lo, self.feasible
        _check_iterates(feasible, X[:n], lo)
        self.dists[lo:hi] = feasible.batch_norm(V[:n] - X[:n])
        self.gnorms[lo:hi] = feasible.batch_dual_norm(G[:n])
        values = self.f.batch_value(X[:n])
        self.primals[lo:hi] = np.nan if self.f_star is None else values - self.f_star
        i = int(np.argmin(values))
        if self.best_x is None or values[i] < self.best_value:
            self.best_x, self.best_value = X[i].copy(), float(values[i])

    def trace(self, rule: StepRule, T: int, stop_gap: float, t: int) -> RunTrace:
        """The trace of a run that stopped at iteration t."""
        n = t + 1
        return RunTrace(
            t=np.arange(n),
            gamma=self.gammas[:n],
            fw_gap=self.gaps[:n],
            primal_gap=self.primals[:n],
            dist_to_vertex=self.dists[:n],
            grad_dual_norm=self.gnorms[:n],
            best_x=self.best_x,
            best_value=self.best_value,
            metadata={
                "set": self.feasible.descriptor(),
                "objective": self.f.descriptor(),
                "step_rule": rule.tag,
                "horizon": T,
                "stop_gap": stop_gap,
                "stopped_at": t,
                "f_star": self.f_star,
            },
        )


def _check_start(feasible: FeasibleSet, x: np.ndarray) -> None:
    excess = feasible.membership_excess(x)
    if not excess <= FEASIBILITY_TOL:  # also catches NaN
        raise InfeasibleStart(f"x_init violates membership by {excess:g}")


def _gap_breakdown(fw_gap: float, t: int) -> UCFWError:
    return UCFWError(f"Frank-Wolfe gap is {fw_gap} at t = {t}; numerical breakdown")


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


def x_init_for(feasible: FeasibleSet, seed: int) -> np.ndarray:
    """Default start: the LMO vertex of a seeded random direction."""
    rng = np.random.default_rng(seed)
    return feasible.lmo(rng.standard_normal(feasible.dim))


def reference_optimum(feasible: FeasibleSet, f: QuadraticObjective) -> tuple[np.ndarray, float, float]:
    """The optimum x* of min f over the set, f* = f(x*), and the certificate
    of f*: the Frank-Wolfe gap at x*, which for a feasible x* bounds
    f* - min f from above (Jaggi, ICML 2013).

    Over an lp ball of finite p the quadratic's minimiser is solved exactly
    from its KKT system (:func:`_lp_ball_quadratic_optimum`).  Every other
    set, the l-infinity ball included, falls back to :func:`run_fw` with
    exact line search from ``x_init_for(feasible, 0)`` for
    ``REFERENCE_HORIZON`` steps, or until the gap drops to
    ``REFERENCE_STOP_GAP``, and takes the run's first iterate of least
    value, so its memory does not grow with the horizon; a numerical
    breakdown raises :class:`UCFWError`.  An objective that is not finite at
    x* is a :class:`ConfigError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        if isinstance(feasible, LpBall) and np.isfinite(feasible.p):
            x_star, f_star = _lp_ball_quadratic_optimum(feasible, f)
        else:
            trace = run_fw(
                feasible, f, x_init_for(feasible, 0), StepRule.exact(), REFERENCE_HORIZON,
                stop_gap=REFERENCE_STOP_GAP,
            )
            x_star, f_star = trace.best_x, trace.best_value
    if not np.isfinite(f_star):
        raise ConfigError("objective is not finite on the set; reduce the objective's x0_scale")
    return x_star, f_star, _fw_vertex(feasible.lmo, f.gradient(x_star), x_star)[2]


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
