"""The objective every run minimises, a diagonal quadratic, and the
structural descriptors the rate theorems consume: smoothness L, a
gradient-norm floor c, strong convexity, and Hoelderian error-bound
parameters.

All smoothness constants are declared with respect to the Euclidean norm
and converted to a set's norm pair with the set's norm-equivalence factors
(:meth:`~ucfw.geometry.FeasibleSet.norm_equivalence`) when the bound engine
asks for them.  The gradient floor of a quadratic follows from the
Euclidean distance of its minimizer to the set, which every set bounds
below through its support function: a ball of its own norm has
sigma_C(u) = radius ||u||_* (:func:`grad_floor_quadratic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidParams
from .geometry import FeasibleSet, _json_int, _row_dots, lp_norm

__all__ = [
    "HEBDescriptor",
    "QuadraticObjective",
    "heb_from_uniform_convexity",
    "grad_floor_quadratic",
    "objective_from_json",
]


@dataclass(frozen=True)
class HEBDescriptor:
    """||x - x*|| <= mu_heb * (f(x) - f(x*))^theta with theta in (0, 1/2]."""

    mu_heb: float
    theta: float

    def __post_init__(self) -> None:
        if not self.mu_heb > 0.0:
            raise InvalidParams(f"mu_heb must be positive, got {self.mu_heb}")
        if not 0.0 < self.theta <= 0.5:
            raise InvalidParams(f"theta must be in (0, 1/2], got {self.theta}")


def heb_from_uniform_convexity(mu_f: float, r: float) -> HEBDescriptor:
    """A (mu_f, r)-uniformly convex function satisfies a
    ((2/mu_f)^(1/r), 1/r) Hoelderian error bound."""
    if mu_f <= 0.0 or r < 2.0:
        raise InvalidParams("requires mu_f > 0 and r >= 2")
    return HEBDescriptor(mu_heb=(2.0 / mu_f) ** (1.0 / r), theta=1.0 / r)


class QuadraticObjective:
    """f(x) = 1/2 (x - x0)^T diag(A) (x - x0) with a positive diagonal A.

    ``A`` is the 1-D diagonal and ``x0`` the unconstrained minimizer.  ``L``
    and ``mu_sc`` are A's largest and least entries, the Euclidean
    smoothness and strong-convexity constants, and ``heb`` the error bound
    that strong convexity gives.  ``grad_floor`` is a declared lower bound
    on the dual gradient norm over the feasible set (see
    :func:`grad_floor_quadratic`), or None.

    Immutable and pure; safe for concurrent evaluation.
    """

    def __init__(self, A: np.ndarray, x0: np.ndarray, grad_floor: Optional[float] = None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 1:
            raise InvalidParams(f"A must be the 1-D diagonal, got {A.ndim} dimensions")
        if not np.all(A > 0.0):  # also refuses NaN
            raise InvalidParams("diagonal of A must be positive")
        self.A = A
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != A.shape:
            raise InvalidParams(f"x0 must have A's shape {A.shape}, got {self.x0.shape}")
        self.L = float(A.max())
        self.mu_sc = float(A.min())
        self.heb = heb_from_uniform_convexity(self.mu_sc, 2.0)
        self.grad_floor = grad_floor

    @property
    def condition_number(self) -> float:
        return self.L / self.mu_sc

    def value(self, x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - self.x0
        return 0.5 * float(np.dot(d, self.A * d))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.subtract(x, self.x0, dtype=float)
        return np.multiply(self.A, g, out=g)

    def batch_value(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of a 2-D array, equal to :meth:`value`'s."""
        D = np.asarray(X, dtype=float) - self.x0
        # summed row by row as value's np.dot sums, so the results are equal
        return 0.5 * _row_dots(D, self.A * D)

    def batch_gradient(self, X: np.ndarray) -> np.ndarray:
        """Gradients at the rows of a 2-D array, equal to :meth:`gradient`'s."""
        # a gradient overridden by a subclass or an instance is taken row by row
        if getattr(self.gradient, "__func__", None) is not QuadraticObjective.gradient:
            return np.array([self.gradient(x) for x in X], dtype=float)
        # elementwise, as gradient computes each row, so the results are equal
        G = np.subtract(X, self.x0, dtype=float)
        return np.multiply(self.A, G, out=G)

    def descriptor(self) -> dict:
        return {
            "family": "quadratic",
            "dim": int(self.x0.shape[0]),
            "cond": self.condition_number,
            "diagonal": True,
        }


def grad_floor_quadratic(f: QuadraticObjective, feasible: FeasibleSet) -> float:
    """Analytic lower bound on inf_{x in C} ||grad f(x)||_* over a norm ball
    C = {||x|| <= radius}.

    ||grad f(x)||_2 >= mu_sc ||x - x0||_2 >= mu_sc * dist_2(x0, C),
    then converted to the dual norm.  The distance is bounded through C's
    support function sigma_C(u) = radius ||u||_*: every unit u separates,
    dist_2(x0, C) >= <u, x0> - sigma_C(u), and u = x0 / ||x0||_2 gives
    ||x0||_2 - radius ||u||_*.  That is exact when the point of C farthest
    along u is the nearest point to x0, as along a coordinate axis or the
    ones vector of an lp ball.  Returns 0 when the bound is not positive,
    and for x0 = 0.
    """
    norm = float(np.linalg.norm(f.x0))
    if norm == 0.0:
        return 0.0
    dist = max(0.0, norm - feasible.radius * feasible.dual_norm(f.x0 / norm))
    return f.mu_sc * dist * feasible.norm_equivalence().dual_floor


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------

_A_SHUFFLE_SEED = 20230517  # fixed: descriptors must rebuild identical objectives


def quadratic_from_descriptor(
    dim: int, cond: float, x0_direction, x0_scale: float
) -> QuadraticObjective:
    """Diagonal quadratic with eigenvalues logspace(1, cond) under a fixed
    seeded shuffle; x0 sits at distance x0_scale along the given direction.

    ``x0_direction`` is either "ones", "e1", or an explicit vector.
    """
    # the negated comparisons also reject NaN
    if dim < 1 or not 1.0 <= cond < np.inf or not 0.0 < x0_scale < np.inf:
        raise ConfigError(
            f"need dim >= 1, finite cond >= 1 and finite x0_scale > 0; "
            f"got dim={dim}, cond={cond}, x0_scale={x0_scale}"
        )
    diag = np.logspace(0.0, np.log10(cond), dim)
    rng = np.random.default_rng(_A_SHUFFLE_SEED)
    rng.shuffle(diag)
    if isinstance(x0_direction, str):
        if x0_direction == "ones":
            direction = np.ones(dim)
        elif x0_direction == "e1":
            direction = np.zeros(dim)
            direction[0] = 1.0
        else:
            raise ConfigError(f"unknown x0_direction {x0_direction!r}")
    else:
        direction = np.asarray(x0_direction, dtype=float)
        if direction.shape != (dim,) or not np.any(direction) or not np.all(np.isfinite(direction)):
            raise ConfigError("explicit x0_direction must be a finite nonzero dim-vector")
    norm = lp_norm(direction, 2.0)  # rescaled when the squares underflow
    scale = x0_scale / norm
    # a subnormal norm overflows the scale; the unit direction takes it then
    x0 = direction * scale if scale < np.inf else (direction / norm) * x0_scale
    return QuadraticObjective(A=diag, x0=x0)


def objective_from_json(desc: dict) -> QuadraticObjective:
    try:
        if desc["family"] != "quadratic":
            raise ConfigError(f"unknown objective family {desc.get('family')!r}")
        return quadratic_from_descriptor(
            dim=_json_int(desc["dim"], "dim", 1),
            cond=float(desc["cond"]),
            x0_direction=desc["x0_direction"],
            x0_scale=float(desc["x0_scale"]),
        )
    except KeyError as exc:
        raise ConfigError(f"objective descriptor missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad objective descriptor: {exc}") from exc
