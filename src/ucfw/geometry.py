"""Feasible sets: closed-form linear minimization oracles, membership
oracles, and the catalog of (alpha, q) uniform-convexity parameters.

Conventions
-----------
* ``lmo(phi)`` maximizes ``<phi, v>`` over the set.  A zero ``phi`` raises
  :class:`~ucfw.errors.ZeroDirection`; callers that reached a zero gradient
  interpret it as optimality.
* ``sign(0) = +1`` in every component formula, so oracles are deterministic.
* Ties on flat faces (l1 ball) break to the lowest index.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidParams, NotUniformlyConvex, SVDFailure, ZeroDirection

__all__ = [
    "UCParams",
    "FeasibleSet",
    "LpBall",
    "L1Ball",
    "SchattenBall",
    "LevelSet",
    "lmo_lp",
    "lmo_l1",
    "lmo_schatten",
    "lp_norm",
    "dual_exponent",
    "lp_ball_uc_params",
    "levelset_uc_params",
    "set_from_json",
]


# rows per block wherever a per-row loop is batched (run_fw's bookkeeping,
# run_ftl, the CSV writer): large enough to amortise numpy's per-call cost.
# A block of points (run_fw, run_ftl) also stops at 8192 floats, 64 KiB, so
# each block array and each batched temporary stays under glibc's 128 KiB mmap
# threshold: it is reused from the heap instead of being unmapped and faulted
# in again on every block, and run_fw's memory does not grow with its horizon
_BLOCK = 256


def _block_rows(dim: int) -> int:
    """Rows per block of dim-float points: ``_BLOCK`` up to dim = 32, then
    as many as fit in 8192 floats (64 KiB), and at least one."""
    return max(1, min(_BLOCK, 8192 // dim))


def _write_csv(path, header: list, columns: list) -> None:
    """Write an integer first column and float columns under ``header``,
    one block of rows at a time; float cells use repr for byte stability."""
    # "%r" of a float is its repr, and no such field needs csv quoting
    row = "%d" + ",%r" * (len(columns) - 1) + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(columns[0]), _BLOCK):
            block = zip(*(c[lo : lo + _BLOCK].tolist() for c in columns))
            fh.write("".join(row % r for r in block))


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A_i, B_i> for each row i, each summed as ``np.dot`` sums one pair of
    vectors, so batched rows add up exactly like single ones."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _sign(x: np.ndarray) -> np.ndarray:
    # sign(0) = +1, unlike np.sign
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


_TINY = np.finfo(float).tiny  # smallest normal double


def dual_exponent(p: float) -> float:
    """Hoelder conjugate p* with 1/p + 1/p* = 1 (p=1 -> inf, p=inf -> 1)."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def lp_norm(x: np.ndarray, p: float) -> float:
    x = np.asarray(x, dtype=float).ravel()
    if np.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    if p == 1.0:
        return float(np.sum(np.abs(x)))
    if p == 2.0:
        with np.errstate(over="ignore"):  # such an x is rescaled below
            s = float(np.dot(x, x))
        if _TINY <= s < math.inf:  # no square over- or underflowed
            return math.sqrt(s)
        m = float(np.abs(x).max(initial=0.0))
        if m == 0.0 or not math.isfinite(m):
            return math.sqrt(s)
        y = x / m
        return m * math.sqrt(float(np.dot(y, y)))
    a = np.abs(x)
    m = a.max(initial=0.0)
    if m == 0.0:
        return 0.0
    # scale out the max to keep a**p in range for extreme p
    return float(m * np.sum((a / m) ** p) ** (1.0 / p))


def _batch_lp_norm(X: np.ndarray, p: float) -> np.ndarray:
    """lp norms along the last axis of a stacked array."""
    X = np.asarray(X, dtype=float)
    a = np.abs(X)
    if np.isinf(p):
        return a.max(axis=-1)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        with np.errstate(over="ignore"):  # such a row is rescaled below
            s = (a * a).sum(axis=-1)
        # a row whose squares over- or underflowed is rescaled by its finite,
        # non-zero max entry; every other row keeps the unscaled result
        bad = ~((s >= _TINY) & (s < np.inf))
        if not bad.any():
            return np.sqrt(s)
        m = a.max(axis=-1, keepdims=True, initial=0.0)
        ok = (m > 0.0) & (m < np.inf)
        y = a / np.where(ok, m, 1.0)
        rescaled = m[..., 0] * np.sqrt((y * y).sum(axis=-1))
        return np.where(bad & ok[..., 0], rescaled, np.sqrt(s))
    m = a.max(axis=-1, keepdims=True)
    m_safe = np.where(m == 0.0, 1.0, m)
    s = ((a / m_safe) ** p).sum(axis=-1)
    return (m[..., 0]) * s ** (1.0 / p)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def lmo_lp(p: float, r: float, phi: np.ndarray) -> np.ndarray:
    """Maximize ``<phi, v>`` over the lp ball of radius ``r`` (p > 1), for
    each vector along the last axis of ``phi``.

    Closed form from Hoelder equality:
    ``v_i = r sign(phi_i) |phi_i|^(p*-1) / ||phi||_{p*}^(p*-1)``, which
    attains ``<phi, v> = r ||phi||_{p*}``.
    """
    if p <= 1.0:
        raise InvalidParams(f"lmo_lp requires p > 1, got {p}")
    phi = np.asarray(phi, dtype=float)
    a = np.abs(phi)
    pstar = dual_exponent(p)
    if phi.ndim == 1:
        # one vector, as each Frank-Wolfe step asks: the batch formula below
        # with as few numpy calls and temporaries as give the same bits
        m = np.maximum.reduce(a) if a.size else 0.0
        if m == 0.0:
            raise ZeroDirection("lmo_lp called with phi = 0")
        a /= m
        a **= pstar - 1.0
        scale = r / float(np.add.reduce(a**p)) ** (1.0 / p)
        v = np.where(phi >= 0.0, scale, -scale)
        v *= a
        return v
    m = a.max(axis=-1, keepdims=True, initial=0.0)
    if np.count_nonzero(m) < m.size:
        raise ZeroDirection("lmo_lp called with phi = 0")
    # the formula is scale-invariant in phi; normalizing by the max entry
    # keeps the exponentials in range for extreme p
    w = (a / m) ** (pstar - 1.0)
    sums = (w**p).sum(axis=-1)
    # numpy's array power may be a SIMD routine that differs in the last bit
    # from the C library's pow, which a numpy scalar and a Python float use;
    # a batch takes its roots one at a time so each row equals the
    # single-vector result exactly
    if sums.ndim == 0:
        scale = r / float(sums ** (1.0 / p))
    else:
        roots = np.array([s ** (1.0 / p) for s in sums.ravel().tolist()])
        scale = r / roots.reshape(sums.shape + (1,))
    return scale * _sign(phi) * w


def lmo_l1(r: float, phi: np.ndarray) -> np.ndarray:
    """Maximize ``<phi, v>`` over the l1 ball, for each vector along the
    last axis of ``phi``: a signed scaled basis vector.

    Ties on ``|phi_i|`` break to the lowest index.
    """
    phi = np.asarray(phi, dtype=float)
    rows = phi.reshape(-1, phi.shape[-1])
    k = np.arange(len(rows))
    i = np.argmax(np.abs(rows), axis=1)  # argmax returns the first maximizer
    top = rows[k, i]
    if np.count_nonzero(top) < top.size:
        raise ZeroDirection("lmo_l1 called with phi = 0")
    v = np.zeros_like(rows)
    v[k, i] = r * _sign(top)
    return v.reshape(phi.shape)


def lmo_schatten(p: float, r: float, G: np.ndarray) -> np.ndarray:
    """Maximize ``<G, V>`` (trace inner product) over the Schatten-p ball,
    for each matrix along the last two axes of ``G``.

    Reduces to the vector oracle on the singular values: with
    ``G = U diag(sigma) V^T``, the maximizer is ``U diag(s) V^T`` where
    ``s = lmo_lp(p, r, sigma)``.  A zero matrix anywhere raises
    :class:`~ucfw.errors.ZeroDirection`.
    """
    G = np.asarray(G, dtype=float)
    if not np.all(np.any(G, axis=(-2, -1))):
        raise ZeroDirection("lmo_schatten called with G = 0")
    try:
        U, sigma, Vt = np.linalg.svd(G, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise SVDFailure(str(exc)) from exc
    s = lmo_lp(p, r, sigma)
    return (U * s[..., None, :]) @ Vt


# ---------------------------------------------------------------------------
# uniform-convexity catalog
# ---------------------------------------------------------------------------


_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True)
class UCParams:
    """(alpha, q) uniform-convexity parameters, stated against ``norm_tag``."""

    alpha: float
    q: float
    norm_tag: str

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:  # also rejects NaN
            raise InvalidParams(f"alpha must be positive and finite, got {self.alpha}")
        if not 2.0 <= self.q < math.inf:
            raise InvalidParams(f"q must be >= 2 and finite, got {self.q}")


def lp_ball_uc_params(p: float, r: float, norm_tag: str) -> UCParams:
    """Catalog entry for lp / Schatten-p balls of radius r.

    Unit balls: ((p-1)/2, 2) for p in (1, 2] and (1/(p 2^(p-2)), p) for
    p > 2; a ball of radius r scales alpha by 1/r^(q-1).

    The p > 2 constant is the exact one for the membership definition: near
    an axis point the boundary deficit of a chord of length eps is
    eps^p/(p 2^p) at the midpoint, which caps alpha at 4/(p 2^p).  (It is
    continuous with the q = 2 branch at p = 2 and survives adversarial
    search for violations; larger folklore constants such as 1/p do not.)
    """
    if p <= 1.0 or np.isinf(p):
        # p = 1 and p = inf balls are polytopes
        raise NotUniformlyConvex(f"p = {p} ball is not uniformly convex")
    if p <= 2.0:
        return UCParams(alpha=(p - 1.0) / (2.0 * r), q=2.0, norm_tag=norm_tag)
    log_two, log_r = (p - 2.0) * math.log(2.0), (p - 1.0) * math.log(r)
    log_alpha = -(math.log(p) + log_two + log_r)
    if not _LOG_TINY <= log_alpha <= -_LOG_TINY:
        raise InvalidParams(
            f"alpha = exp({log_alpha:.6g}) of the p = {p}, radius {r} ball is outside the double range"
        )
    if max(log_two, abs(log_r)) < 700.0:
        # every factor and partial product is a normal double (700 leaves
        # room for the factor p): the direct product, which rounds like the
        # constants published so far
        alpha = 1.0 / (p * 2.0 ** (p - 2.0) * r ** (p - 1.0))
    else:
        alpha = math.exp(log_alpha)
    return UCParams(alpha=alpha, q=p, norm_tag=norm_tag)


def levelset_uc_params(mu: float, r_exp: float, L: float, w: float) -> UCParams:
    """(alpha, q) parameters of the sublevel set {f <= w} of a non-negative,
    L-smooth, (mu, r_exp)-uniformly convex function.

    Uses the proof-backed constant ``alpha = mu / (2 sqrt(2 w L))``; the
    looser ``mu / sqrt(2 w L)`` does not survive the membership sampler.
    """
    if mu <= 0.0 or L <= 0.0 or w <= 0.0:
        raise InvalidParams("mu, L, w must all be positive")
    if r_exp < 2.0:
        raise InvalidParams(f"convexity power must be >= 2, got {r_exp}")
    return UCParams(alpha=mu / (2.0 * np.sqrt(2.0 * w * L)), q=r_exp, norm_tag="levelset")


# ---------------------------------------------------------------------------
# set objects
# ---------------------------------------------------------------------------


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < np.inf:  # also rejects NaN
        raise InvalidParams(f"radius must be positive and finite, got {radius}")


class FeasibleSet:
    """A norm ball {x : ||x|| <= radius} over flat length-``dim`` points,
    exposing an LMO, a membership oracle, and its declared
    uniform-convexity parameters.

    Subclasses supply the norm pair and the LMO; membership and boundary
    points follow from the norm and the radius.  Instances are immutable
    after construction; all oracle calls are pure.
    """

    dim: int
    radius: float

    @property
    def uc(self) -> Optional[UCParams]:
        try:
            return self.uc_params()
        except NotUniformlyConvex:
            return None

    def uc_params(self) -> UCParams:
        raise NotUniformlyConvex(type(self).__name__)

    def norm(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def batch_norm(self, X: np.ndarray) -> np.ndarray:
        """Norms of points stacked along the first axes; the base class
        takes the rows of a 2-D array one at a time."""
        return np.array([self.norm(x) for x in X], dtype=float)

    def dual_norm(self, phi: np.ndarray) -> float:
        raise NotImplementedError

    def lmo(self, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no closed-form LMO")

    def batch_dual_norm(self, Phi: np.ndarray) -> np.ndarray:
        """Dual norms of the rows of a 2-D array."""
        return np.array([self.dual_norm(phi) for phi in Phi], dtype=float)

    def batch_lmo(self, Phi: np.ndarray) -> np.ndarray:
        """The LMO applied to each row of a 2-D array, rows stacked."""
        out = np.empty(np.shape(Phi))
        for i, phi in enumerate(Phi):
            out[i] = self.lmo(phi)
        return out

    def membership_excess(self, x: np.ndarray) -> float:
        """How far the defining inequality is exceeded (<= 0 means inside):
        ``||x|| - radius``."""
        return self.norm(x) - self.radius

    def batch_membership_excess(self, X: np.ndarray) -> np.ndarray:
        """Membership excess of points stacked along the first axes."""
        return self.batch_norm(X) - self.radius

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        return self.membership_excess(x) <= tol

    def boundary_point(self, direction: np.ndarray) -> np.ndarray:
        """Scale a direction, or each row of a 2-D stack of them, onto the
        boundary ``||x|| = radius``; a zero direction raises
        :class:`~ucfw.errors.ZeroDirection`."""
        d = np.asarray(direction, dtype=float)
        rows = d.reshape(-1, self.dim)
        n = self.batch_norm(rows)
        if np.any(n == 0.0):
            raise ZeroDirection("cannot scale the zero direction to the boundary")
        return (rows * (self.radius / n)[:, None]).reshape(d.shape)

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LpBall(FeasibleSet):
    """{x : ||x||_p <= r} for p > 1 (use :class:`L1Ball` for p = 1)."""

    p: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise InvalidParams("LpBall requires p > 1; p = 1 is L1Ball")
        _check_radius(self.radius)
        if self.dim < 1:
            raise InvalidParams("dim must be >= 1")

    def uc_params(self) -> UCParams:
        return lp_ball_uc_params(self.p, self.radius, norm_tag=f"lp:{self.p}")

    def norm(self, x):
        return lp_norm(x, self.p)

    def batch_norm(self, X):
        return _batch_lp_norm(X, self.p)

    def dual_norm(self, phi):
        return lp_norm(phi, dual_exponent(self.p))

    def batch_dual_norm(self, Phi):
        return _batch_lp_norm(Phi, dual_exponent(self.p))

    def lmo(self, phi):
        return lmo_lp(self.p, self.radius, phi)

    def batch_lmo(self, Phi):
        return lmo_lp(self.p, self.radius, Phi)

    def descriptor(self) -> dict:
        return {"family": "lp", "p": self.p, "radius": self.radius, "dim": self.dim}


@dataclass(frozen=True)
class L1Ball(FeasibleSet):
    """The cross-polytope {x : ||x||_1 <= r}; not uniformly convex."""

    radius: float
    dim: int

    def __post_init__(self) -> None:
        _check_radius(self.radius)
        if self.dim < 1:
            raise InvalidParams("dim must be >= 1")

    def norm(self, x):
        return lp_norm(x, 1.0)

    def batch_norm(self, X):
        return _batch_lp_norm(X, 1.0)

    def dual_norm(self, phi):
        return lp_norm(phi, np.inf)

    def batch_dual_norm(self, Phi):
        return _batch_lp_norm(Phi, np.inf)

    def lmo(self, phi):
        return lmo_l1(self.radius, phi)

    def batch_lmo(self, Phi):
        return lmo_l1(self.radius, Phi)

    def descriptor(self) -> dict:
        return {"family": "l1", "radius": self.radius, "dim": self.dim}


@dataclass(frozen=True)
class SchattenBall(FeasibleSet):
    """Matrices with lp norm of the singular values at most r (p > 1).

    Points are flat length ``rows * cols`` vectors holding the matrix in
    row-major order; the trace inner product is then the plain dot product.
    """

    p: float
    rows: int
    cols: int
    radius: float

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise InvalidParams("SchattenBall requires p > 1")
        _check_radius(self.radius)
        if self.rows < 1 or self.cols < 1:
            raise InvalidParams("shape must be nonempty")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.rows * self.cols

    def _sv(self, X) -> np.ndarray:
        """Singular values of each flat point stacked along the first axes."""
        X = np.asarray(X, dtype=float)
        try:
            return np.linalg.svd(X.reshape(*X.shape[:-1], self.rows, self.cols), compute_uv=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SVDFailure(str(exc)) from exc

    def uc_params(self) -> UCParams:
        return lp_ball_uc_params(self.p, self.radius, norm_tag=f"schatten:{self.p}")

    def norm(self, x):
        return lp_norm(self._sv(x), self.p)

    def batch_norm(self, X):
        return _batch_lp_norm(self._sv(X), self.p)

    def dual_norm(self, phi):
        return lp_norm(self._sv(phi), dual_exponent(self.p))

    def batch_dual_norm(self, Phi):
        return _batch_lp_norm(self._sv(Phi), dual_exponent(self.p))

    def lmo(self, phi):
        G = np.asarray(phi, dtype=float).reshape(self.rows, self.cols)
        return lmo_schatten(self.p, self.radius, G).ravel()

    def batch_lmo(self, Phi):
        Phi = np.asarray(Phi, dtype=float)
        V = lmo_schatten(self.p, self.radius, Phi.reshape(len(Phi), self.rows, self.cols))
        return V.reshape(Phi.shape)

    def descriptor(self) -> dict:
        return {
            "family": "schatten",
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "radius": self.radius,
        }


@dataclass(frozen=True)
class LevelSet(FeasibleSet):
    """The sublevel set {x : ||x||_2^2 <= w} of f = ||.||_2^2, which is
    2-smooth and (2, 2)-uniformly convex: the l2 ball of radius sqrt(w).

    Membership is the defining inequality ``||x||^2 - w``.  Only membership
    and the level-set (alpha, q) parameters are offered; there is no LMO.
    """

    w: float
    dim: int

    def __post_init__(self) -> None:
        if not 0.0 < self.w < np.inf:
            raise InvalidParams(f"LevelSet requires a finite w > 0, got {self.w}")
        if self.dim < 1:
            raise InvalidParams("dim must be >= 1")

    @property
    def radius(self) -> float:  # type: ignore[override]
        return math.sqrt(self.w)

    def uc_params(self) -> UCParams:
        return levelset_uc_params(mu=2.0, r_exp=2.0, L=2.0, w=self.w)

    def norm(self, x):
        return lp_norm(x, 2.0)

    def batch_norm(self, X):
        return _batch_lp_norm(X, 2.0)

    def dual_norm(self, phi):
        return lp_norm(phi, 2.0)

    def membership_excess(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.dot(x, x)) - self.w

    def batch_membership_excess(self, X):
        return (np.asarray(X, dtype=float) ** 2).sum(axis=-1) - self.w

    def descriptor(self) -> dict:
        return {"family": "levelset", "kind": "sqnorm", "w": self.w, "dim": self.dim}


# the catalog's name for its one level set
sqnorm_level_set = LevelSet


def set_from_json(desc: dict) -> FeasibleSet:
    """Build a set from its JSON descriptor.

    Families: ``lp`` (p, radius, dim), ``l1`` (radius, dim), ``schatten``
    (p, rows, cols, radius), ``levelset`` (kind="sqnorm", w, dim).
    """
    try:
        family = desc["family"]
        if family == "lp":
            return LpBall(p=float(desc["p"]), radius=float(desc["radius"]), dim=int(desc["dim"]))
        if family == "l1":
            return L1Ball(radius=float(desc["radius"]), dim=int(desc["dim"]))
        if family == "schatten":
            return SchattenBall(
                p=float(desc["p"]),
                rows=int(desc["rows"]),
                cols=int(desc["cols"]),
                radius=float(desc["radius"]),
            )
        if family == "levelset":
            if desc.get("kind", "sqnorm") != "sqnorm":
                raise ConfigError(f"unknown levelset kind {desc.get('kind')!r}")
            return LevelSet(w=float(desc["w"]), dim=int(desc["dim"]))
    except KeyError as exc:
        raise ConfigError(f"set descriptor missing field {exc}") from exc
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ConfigError(f"bad set descriptor: {exc}") from exc
    raise ConfigError(f"unknown set family {desc.get('family')!r}")


def _json_int(value, name: str, minimum: int) -> int:
    """A config field that must be an integer >= ``minimum``; a float, bool
    or string is a :class:`ConfigError` naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
