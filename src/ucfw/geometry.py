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
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidParams, NotUniformlyConvex, ZeroDirection

__all__ = [
    "UCParams",
    "NormEquivalence",
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


def _write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON (NaN and infinity refused) with indent
    2, sorted keys and a trailing newline: every manifest, sidecar and
    report takes this form."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A_i, B_i> for each row i, each summed as ``np.dot`` sums one pair of
    vectors, so batched rows add up exactly like single ones."""
    if A.shape[-1] == 1:
        # np.dot of length-1 vectors is their product, which keeps -0.0;
        # matmul's sum starts at +0.0
        return A[:, 0] * B[:, 0]
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
    if m == 0.0 or m == math.inf:
        return float(m)
    # scale out the max to keep a**p in range for extreme p
    return float(m * np.sum((a / m) ** p) ** (1.0 / p))


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, bit for bit on the non-negative arrays the norms
    pass (a row holding NaN gives NaN).

    numpy reduces a short last axis one row at a time.  With 2-16 entries
    in each of at least 256 rows, it is faster to fold each row's upper half
    onto its lower half across all rows at once; a max is exact, so the
    order does not change it.  (Signed zeros and NaN payloads may come out
    differently, as they do between numpy's own reduction orders.)
    """
    n = a.shape[-1]
    if not (2 <= n <= 16 and a.size >= 256 * n):
        return a.max(axis=-1)
    while n > 1:
        h = n // 2
        # an odd row's middle entry sits in both halves
        a = np.maximum(a[..., : n - h], a[..., h:n])
        n -= h
    return a[..., 0]


# |r| above this is near a double eigenvalue, where arccos loses half the digits
_NEAR_DOUBLE = 1.0 - 1e-3
# matrices per block of SchattenBall's Gram route
_GRAM_BLOCK = 4096


def _sym3_eigvalsh(G: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of finite symmetric positive semidefinite 3x3
    matrices stacked along the last axis, (3, 3, N) -> (3, N) ascending, to
    ~1e-15 of each largest eigenvalue.

    LAPACK runs once per matrix; the cubic's trigonometric closed form (O. K.
    Smith, Comm. ACM 4(4), 1961) runs across the stack.  Each matrix A is
    divided by its trace first, which keeps p^3 in range; then with q =
    tr(A) / 3, 6 p^2 = ||A - qI||_F^2 and r = det(A - qI) / (2 p^3), the
    eigenvalues are q + 2p cos(arccos(r) / 3 + 2 pi k / 3).  Near a double
    eigenvalue (|r| near 1) arccos loses half the digits, so such a matrix,
    and one whose r is NaN (a zero or overflowed trace, or A = qI), takes
    ``eigvalsh``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = G[0, 0] + G[1, 1] + G[2, 2]
        a00, a01, a02, a11, a12, a22 = G[(0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)] / t
        q = (a00 + a11 + a22) / 3.0
        d00, d11, d22 = a00 - q, a11 - q, a22 - q
        pp = (d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
        det = d00 * (d11 * d22 - a12 * a12) - a01 * (a01 * d22 - a12 * a02) + a02 * (a01 * a12 - d11 * a02)
        p = np.sqrt(pp)
        r = det / (2.0 * pp * p)
        near = ~(np.abs(r) <= _NEAR_DOUBLE)  # NaN included
        # the largest and the smallest root; the middle one closes the trace
        top, low = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + np.array([[0.0], [2.0 * math.pi / 3.0]]))
        lam = np.stack([low, 3.0 * q - top - low, top]) * t
    if near.any():
        lam[:, near] = np.linalg.eigvalsh(G[:, :, near].transpose(2, 0, 1)).T
    return lam


def _batch_lp_norm(X: np.ndarray, p: float) -> np.ndarray:
    """lp norms along the last axis of a stacked array."""
    X = np.asarray(X, dtype=float)
    a = np.abs(X)
    if np.isinf(p):
        return _row_max(a)
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
    m = _row_max(a)[..., None]
    # a zero row sums zeros and a row holding inf sums an inf, so their norms
    # are 0 and inf; a row holding NaN stays NaN
    ok = (m > 0.0) & (m < np.inf)
    s = ((a / np.where(ok, m, 1.0)) ** p).sum(axis=-1)
    return m[..., 0] * s ** (1.0 / p)


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
    a /= m
    a **= pstar - 1.0
    sums = (a**p).sum(axis=-1)
    # numpy's array power may be a SIMD routine that differs in the last bit
    # from the C library's pow, which a numpy scalar and a Python float use;
    # a batch takes its roots one at a time so each row equals the
    # single-vector result exactly
    e = 1.0 / p
    scale = r / np.array([s**e for s in sums.ravel().tolist()]).reshape(sums.shape + (1,))
    a *= np.where(phi >= 0.0, scale, -scale)
    return a


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
    :class:`~ucfw.errors.ZeroDirection`.  A matrix holding inf or NaN gets
    a NaN vertex, as ``lmo_lp`` gives an inf entry, without the SVD: LAPACK's
    SVD of a 3x3 matrix holding inf may never return.
    """
    G = np.asarray(G, dtype=float)
    if not np.all(np.any(G, axis=(-2, -1))):
        raise ZeroDirection("lmo_schatten called with G = 0")
    finite = np.isfinite(G).all(axis=(-2, -1))
    if not finite.all():
        V = np.full(G.shape, np.nan)
        if finite.any():
            V[finite] = lmo_schatten(p, r, G[finite])
        return V
    U, sigma, Vt = np.linalg.svd(G, full_matrices=False)
    s = lmo_lp(p, r, sigma)
    return (U * s[..., None, :]) @ Vt


# ---------------------------------------------------------------------------
# uniform-convexity catalog
# ---------------------------------------------------------------------------


_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True)
class UCParams:
    """(alpha, q) uniform-convexity parameters, stated in the set's own norm."""

    alpha: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:  # also rejects NaN
            raise InvalidParams(f"alpha must be positive and finite, got {self.alpha}")
        if not 2.0 <= self.q < math.inf:
            raise InvalidParams(f"q must be >= 2 and finite, got {self.q}")


def lp_ball_uc_params(p: float, r: float) -> UCParams:
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
        return UCParams(alpha=(p - 1.0) / (2.0 * r), q=2.0)
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
    return UCParams(alpha=alpha, q=p)


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
    return UCParams(alpha=mu / (2.0 * np.sqrt(2.0 * w * L)), q=r_exp)


# ---------------------------------------------------------------------------
# norm equivalence (Euclidean constants -> a set's norm pair)
# ---------------------------------------------------------------------------


def _exponent_gap(a: float, b: float) -> float:
    """max(0, 1/a - 1/b) with the convention 1/inf = 0."""
    ia = 0.0 if np.isinf(a) else 1.0 / a
    ib = 0.0 if np.isinf(b) else 1.0 / b
    return max(0.0, ia - ib)


@dataclass(frozen=True)
class NormEquivalence:
    """Factors that carry constants stated in the Euclidean norm into a
    set's norm ``||.||`` and dual norm ``||.||_*``."""

    smoothness: float  # L2-smooth f is (smoothness * L2)-smooth in (||.||, ||.||_*)
    dual_floor: float  # ||g||_* >= dual_floor * ||g||_2
    heb: float  # ||x|| <= heb * ||x||_2


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

    Subclasses supply ``batch_norm`` and ``batch_dual_norm``, each over
    points stacked along the first axes, an ``lmo`` that takes one point or
    a stack of them, and ``lp_equivalent``.  The single-point ``norm``,
    ``dual_norm`` and ``membership_excess`` are the batched oracles on one
    point; membership and boundary points follow from the norm and the
    radius, and the norm-equivalence factors from ``lp_equivalent``.
    Instances are immutable after construction; all oracle calls are pure.

    A dataclass subclass declares ``_tag``, its JSON family and any constant
    it pins; its JSON form is that tag and its fields (``descriptor``).
    """

    dim: int
    radius: float
    _tag: dict

    @property
    def uc(self) -> Optional[UCParams]:
        try:
            return self.uc_params()
        except NotUniformlyConvex:
            return None

    def uc_params(self) -> UCParams:
        raise NotUniformlyConvex(type(self).__name__)

    def batch_norm(self, X: np.ndarray) -> np.ndarray:
        """Norms of points stacked along the first axes."""
        raise NotImplementedError

    def batch_dual_norm(self, Phi: np.ndarray) -> np.ndarray:
        """Dual norms of points stacked along the first axes."""
        raise NotImplementedError

    def lmo(self, phi: np.ndarray) -> np.ndarray:
        """Maximize ``<phi, v>`` over the set, for one point or for each
        point of a stack."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form LMO")

    @property
    def lp_equivalent(self) -> tuple[int, float]:
        """(n, p) such that the set's norm of a point is the lp norm of an
        n-vector with the point's Euclidean length."""
        raise NotImplementedError

    def norm_equivalence(self) -> NormEquivalence:
        """The factors the rate theorems' Euclidean constants take in this
        set's norm pair, from ``n^{-max(0, 1/2 - 1/p)} ||.||_2 <= ||.||_p
        <= n^{max(0, 1/p - 1/2)} ||.||_2`` and the same for the dual p*."""
        n, p = self.lp_equivalent
        pstar = dual_exponent(p)
        return NormEquivalence(
            smoothness=n ** (_exponent_gap(pstar, 2.0) + _exponent_gap(2.0, p)),
            dual_floor=n ** (-_exponent_gap(2.0, pstar)),
            heb=n ** _exponent_gap(p, 2.0),
        )

    def norm(self, x: np.ndarray) -> float:
        return float(self.batch_norm(x))

    def dual_norm(self, phi: np.ndarray) -> float:
        return float(self.batch_dual_norm(phi))

    def batch_membership_excess(self, X: np.ndarray) -> np.ndarray:
        """How far the defining inequality is exceeded (<= 0 means inside)
        by points stacked along the first axes: ``||x|| - radius``."""
        return self.batch_norm(X) - self.radius

    def membership_excess(self, x: np.ndarray) -> float:
        return float(self.batch_membership_excess(x))

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
        """The JSON form :func:`set_from_json` reads back: the class's tag
        and every field, a non-finite float as the string ``float`` reads."""
        desc = dict(self._tag)
        for f in fields(self):
            value = getattr(self, f.name)
            desc[f.name] = repr(value) if isinstance(value, float) and not math.isfinite(value) else value
        return desc


class _LpFamilyBall(FeasibleSet):
    """The lp ball {x : ||x||_p <= radius} over length-``dim`` vectors, from
    the ``p`` and ``radius`` a subclass declares: its norm, dual norm, LMO,
    ``lp_equivalent`` = (dim, p) and catalog entry.  The p = 1 and p = inf
    balls are polytopes, with no catalog entry."""

    def __post_init__(self) -> None:
        _check_radius(self.radius)
        if self.dim < 1:
            raise InvalidParams("dim must be >= 1")

    def uc_params(self) -> UCParams:
        return lp_ball_uc_params(self.p, self.radius)

    @property
    def lp_equivalent(self) -> tuple[int, float]:
        return self.dim, self.p

    def batch_norm(self, X):
        return _batch_lp_norm(X, self.p)

    def batch_dual_norm(self, Phi):
        return _batch_lp_norm(Phi, dual_exponent(self.p))

    def lmo(self, phi):
        return lmo_lp(self.p, self.radius, phi)


@dataclass(frozen=True)
class LpBall(_LpFamilyBall):
    """{x : ||x||_p <= r} for p > 1 (use :class:`L1Ball` for p = 1)."""

    _tag = {"family": "lp"}

    p: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise InvalidParams("LpBall requires p > 1; p = 1 is L1Ball")
        super().__post_init__()


@dataclass(frozen=True)
class L1Ball(_LpFamilyBall):
    """The cross-polytope {x : ||x||_1 <= r}; not uniformly convex."""

    _tag = {"family": "l1"}
    p = 1.0

    radius: float
    dim: int

    def lmo(self, phi):
        return lmo_l1(self.radius, phi)


@dataclass(frozen=True)
class SchattenBall(FeasibleSet):
    """Matrices with lp norm of the singular values at most r (p > 1).

    Points are flat length ``rows * cols`` vectors holding the matrix in
    row-major order; the trace inner product is then the plain dot product.

    For p >= 2 the norm comes from the eigenvalues of the smaller Gram
    matrix, whose roundoff is of order eps ||X||^2 and so moves the norm by
    ~1e-15 relative.  A 3x3 Gram matrix (3 x k or k x 3 points, k >= 3)
    takes the cubic's closed form, ``_sym3_eigvalsh``, in blocks of
    ``_GRAM_BLOCK`` matrices; a 3x3 norm then costs ~12 % of an SVD's (13
    against 104 ms per 50 000 matrices, one BLAS thread).  Other sizes take
    ``np.linalg.eigvalsh``.  The SVD stays for p < 2, the dual norm and the
    LMO, because for an exponent below 2 lambda -> lambda^(p/2) amplifies
    that roundoff near rank deficiency.  A matrix holding inf has norm and
    dual norm inf; one holding NaN makes the SVD raise ``LinAlgError``.
    """

    _tag = {"family": "schatten"}

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

    def _sv_norm(self, X, p: float) -> np.ndarray:
        """lp norm of the singular values of each flat point stacked along
        the first axes.  A matrix holding inf and no NaN has norm inf, as an
        lp norm does; the SVD would give NaN.  A matrix holding NaN still
        makes the SVD raise ``LinAlgError``."""
        X = np.asarray(X, dtype=float)
        inf = _row_max(np.abs(X)) == np.inf
        if inf.any():
            X = np.where(inf[..., None], 0.0, X)
        sv = np.linalg.svd(X.reshape(*X.shape[:-1], self.rows, self.cols), compute_uv=False)
        return np.where(inf, np.inf, _batch_lp_norm(sv, p))

    def uc_params(self) -> UCParams:
        return lp_ball_uc_params(self.p, self.radius)

    @property
    def lp_equivalent(self) -> tuple[int, float]:
        # the Frobenius norm is the l2 norm of the singular values
        return min(self.rows, self.cols), self.p

    def batch_norm(self, X):
        X = np.asarray(X, dtype=float)
        if self.p < 2.0:
            return self._sv_norm(X, self.p)
        flat = X.reshape(-1, self.dim)
        norms = np.empty(len(flat))
        # in blocks, which bound the temporaries of the 3x3 closed form
        # (Definition 1 stacks one matrix per sampled pair at each weight)
        for lo in range(0, len(flat), _GRAM_BLOCK):
            norms[lo : lo + _GRAM_BLOCK] = self._gram_norm(flat[lo : lo + _GRAM_BLOCK])
        return norms.reshape(X.shape[:-1])

    def _gram_norm(self, flat: np.ndarray) -> np.ndarray:
        """The norms of a stack of flat points (p >= 2), from the
        eigenvalues of each matrix's smaller Gram matrix."""
        A = flat.reshape(-1, self.rows, self.cols)
        # M is the tall one of A and A^T, so that M^T M is the smaller Gram
        # matrix.  C[i, k] holds M[:, k, i] as one contiguous row, and so G
        # holds each entry of M^T M.  M^T M is summed one row of M at a time:
        # in two threads numpy's matmul, one BLAS call per small matrix, ran
        # slower than in one
        C = np.ascontiguousarray(A.transpose(2, 1, 0) if self.rows >= self.cols else A.transpose(1, 2, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            G = C[:, None, 0] * C[None, :, 0]
            for k in range(1, C.shape[1]):
                G += C[:, None, k] * C[None, :, k]
        # a matrix whose squares overflowed, or whose largest eigenvalue is
        # zero or subnormal, takes the SVD; eigvalsh refuses a non-finite one
        slow = ~np.isfinite(G).all(axis=(0, 1))
        G[:, :, slow] = 0.0
        if len(G) == 3:
            lam = _sym3_eigvalsh(G)
        else:
            lam = np.linalg.eigvalsh(G.transpose(2, 0, 1)).T
        lam = np.maximum(lam, 0.0)
        top = lam[-1]  # ascending
        slow |= top < _TINY
        with np.errstate(divide="ignore", invalid="ignore"):
            norms = np.sqrt(top) * ((lam / top) ** (0.5 * self.p)).sum(axis=0) ** (1.0 / self.p)
        if slow.any():
            norms[slow] = self._sv_norm(flat[slow], self.p)
        return norms

    def batch_dual_norm(self, Phi):
        return self._sv_norm(Phi, dual_exponent(self.p))

    def lmo(self, phi):
        phi = np.asarray(phi, dtype=float)
        V = lmo_schatten(self.p, self.radius, phi.reshape(*phi.shape[:-1], self.rows, self.cols))
        return V.reshape(phi.shape)


@dataclass(frozen=True)
class LevelSet(_LpFamilyBall):
    """The sublevel set {x : ||x||_2^2 <= w} of f = ||.||_2^2, which is
    2-smooth and (2, 2)-uniformly convex: the l2 ball of radius sqrt(w).

    Membership is the defining inequality ``||x||^2 - w``.
    """

    _tag = {"family": "levelset", "kind": "sqnorm"}
    p = 2.0

    w: float
    dim: int

    def __post_init__(self) -> None:
        if not 0.0 < self.w < np.inf:
            raise InvalidParams(f"LevelSet requires a finite w > 0, got {self.w}")
        super().__post_init__()

    @property
    def radius(self) -> float:  # type: ignore[override]
        return math.sqrt(self.w)

    def uc_params(self) -> UCParams:
        return levelset_uc_params(mu=2.0, r_exp=2.0, L=2.0, w=self.w)

    def batch_membership_excess(self, X):
        return (np.asarray(X, dtype=float) ** 2).sum(axis=-1) - self.w


_SET_FAMILIES = {cls._tag["family"]: cls for cls in (LpBall, L1Ball, SchattenBall, LevelSet)}


def set_from_json(desc: dict) -> FeasibleSet:
    """Build a set from its JSON descriptor, the inverse of
    :meth:`FeasibleSet.descriptor`: ``family`` picks the class, any other
    tag it pins must match where given, and its fields are read in order,
    an integer one through ``_json_int`` and the rest through ``float``.

    Families: ``lp`` (p, radius, dim), ``l1`` (radius, dim), ``schatten``
    (p, rows, cols, radius), ``levelset`` (kind="sqnorm", w, dim).
    """
    try:
        family = desc["family"]
        cls = _SET_FAMILIES.get(family) if isinstance(family, str) else None
        if cls is None:
            raise ConfigError(f"unknown set family {family!r}")
        for key, value in cls._tag.items():
            if desc.get(key, value) != value:
                raise ConfigError(f"unknown {family} {key} {desc.get(key)!r}")
        kwargs = {}
        for f in fields(cls):  # in order, so the first missing field is named
            kwargs[f.name] = _json_int(desc[f.name], f.name, 1) if f.type == "int" else float(desc[f.name])
        return cls(**kwargs)
    except KeyError as exc:
        raise ConfigError(f"set descriptor missing field {exc}") from exc
    except (TypeError, ValueError, InvalidParams) as exc:
        raise ConfigError(f"bad set descriptor: {exc}") from exc


def _json_int(value, name: str, minimum: int) -> int:
    """A config field that must be an integer >= ``minimum``; a float, bool
    or string is a :class:`ConfigError` naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
