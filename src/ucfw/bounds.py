"""Rate constants for every convergence regime and evaluable bound curves
(:func:`ucfw.verify.check_trace` checks a run against one).

All sublinear regimes reduce to the recursion
``h_{t+1} <= h_t * max(1/2, 1 - C h_t^eta)`` whose closed-form envelope is
``M / (t + k)^(1/eta)``.  The constants here are the proof-backed ones:

* the h0 anchor of M uses ``h0 (1+k)^(1/eta)``.  The stated ``h0 k^(1/eta)``
  anchor fails for large ``C h0^eta`` (with eta = 1 it vanishes entirely and
  the halving burn-in overshoots the envelope), while ``(1+k)`` makes the
  induction close at t = 0 and t = 1.
* the q = 2 linear contraction factor is ``max(1/2, 1 - c alpha / (4L))``,
  the factor the per-step recursion actually yields.  It may round to 1
  (Theorem 2's ``1/(2 L H^2)`` is below one ulp once H is large, as near
  p = 1); the envelope is then h_t <= h0, which every short or exact step
  keeps, because neither raises f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidParams

__all__ = [
    "RecursionConstants",
    "RateBound",
    "theorem1_bound",
    "theorem2_bound",
    "theorem3_bound",
    "lemma3_distance_constant",
    "iterate_recursion",
]


@dataclass(frozen=True)
class RecursionConstants:
    """Envelope constants for h_{t+1} <= h_t * max(1/2, 1 - C h_t^eta)."""

    eta: float
    C: float
    h0: float
    k: float = field(init=False)
    M_rate: float = field(init=False)
    log_M: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise InvalidParams(f"eta must be in (0, 1], got {self.eta}")
        if self.C <= 0.0 or self.h0 < 0.0:
            raise InvalidParams("C must be positive and h0 non-negative")
        denom = self.eta - (1.0 - self.eta) * (2.0**self.eta - 1.0)
        if denom <= 0.0:
            raise InvalidParams("recursion denominator non-positive")
        k = (2.0 - 2.0**self.eta) / (2.0**self.eta - 1.0)
        # work in logs: k^{1/eta} overflows double precision as eta -> 0+
        inv_eta = 1.0 / self.eta
        log_anchor = -math.inf if self.h0 == 0.0 else math.log(self.h0) + inv_eta * math.log1p(k)
        log_asymptotic = math.log(2.0) - inv_eta * math.log(denom * self.C)
        log_M = max(log_anchor, log_asymptotic)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "log_M", log_M)
        try:
            M = math.exp(log_M)
        except OverflowError:
            M = math.inf
        object.__setattr__(self, "M_rate", M)

    def evaluate(self, t) -> np.ndarray | float:
        """M / (t + k)^(1/eta), computed in log space."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            log_val = self.log_M - (1.0 / self.eta) * np.log(t + self.k)
            out = np.exp(log_val)
        if out.ndim == 0:
            return float(out)
        return out


def iterate_recursion(eta, C, h0, steps: int) -> np.ndarray:
    """Brute-force worst-case trajectory h_{t+1} = h_t max(1/2, 1 - C h_t^eta).

    The independent oracle for the envelope; broadcasts over parameter grids.
    Returns shape (steps + 1, *grid_shape).
    """
    eta, C, h0 = np.broadcast_arrays(
        np.asarray(eta, dtype=float), np.asarray(C, dtype=float), np.asarray(h0, dtype=float)
    )
    out = np.empty((steps + 1,) + h0.shape, dtype=float)
    h = h0.copy()
    out[0] = h
    for t in range(steps):
        h = h * np.maximum(0.5, 1.0 - C * h**eta)
        out[t + 1] = h
    return out


@dataclass(frozen=True)
class RateBound:
    """Either a per-step linear contraction or a sublinear envelope.

    ``evaluate(t)`` is non-increasing in t.
    """

    theorem_tag: str  # "T1" | "T2" | "T3"
    linear_factor: Optional[float] = None
    recursion: Optional[RecursionConstants] = None
    h0: float = 0.0

    def __post_init__(self) -> None:
        if (self.linear_factor is None) == (self.recursion is None):
            raise InvalidParams("exactly one of linear_factor / recursion must be set")
        if self.linear_factor is not None and not 0.0 < self.linear_factor <= 1.0:
            raise InvalidParams(f"linear factor must be in (0, 1], got {self.linear_factor}")

    @property
    def exponent(self) -> float:
        """1/eta for sublinear regimes, inf for linear ones."""
        if self.recursion is None:
            return math.inf
        return 1.0 / self.recursion.eta

    def evaluate(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        if self.linear_factor is not None:
            with np.errstate(over="ignore"):
                out = self.h0 * self.linear_factor**t
        else:
            out = self.recursion.evaluate(t)
        if np.ndim(out) == 0:
            return float(out)
        return out


def _require_positive(**kwargs: float) -> None:
    for name, val in kwargs.items():
        if not val > 0.0:
            raise InvalidParams(f"{name} must be positive, got {val}")


def _linear(tag: str, factor_arg: float, h0: float) -> RateBound:
    return RateBound(theorem_tag=tag, linear_factor=max(0.5, 1.0 - factor_arg), h0=h0)


def theorem1_bound(c: float, alpha: float, q: float, L: float, h0: float) -> RateBound:
    """Global (alpha, q)-uniform convexity with gradient floor c.

    q > 2: envelope with eta = 1 - 2/q and C = (c alpha / 2)^(2/q) / (2L);
    q = 2: linear with per-step factor max(1/2, 1 - c alpha / (4L)).
    """
    _require_positive(c=c, alpha=alpha, L=L)
    if q < 2.0:
        raise InvalidParams(f"q must be >= 2, got {q}")
    if h0 < 0.0:
        raise InvalidParams("h0 must be non-negative")
    if q == 2.0:
        return _linear("T1", c * alpha / (4.0 * L), h0)
    eta = 1.0 - 2.0 / q
    C = (c * alpha / 2.0) ** (2.0 / q) / (2.0 * L)
    return RateBound(theorem_tag="T1", recursion=RecursionConstants(eta, C, h0), h0=h0)


def lemma3_distance_constant(c: float, alpha: float, q: float, L: float) -> float:
    """H with ||x_t - v_t|| <= H h_t^(1/(q(q-1))) once h_t <= 1."""
    _require_positive(c=c, alpha=alpha, L=L)
    if q < 2.0:
        raise InvalidParams(f"q must be >= 2, got {q}")
    ca = c * alpha
    return 2.0 * max(
        (2.0 * L / ca) ** (1.0 / (q - 1.0)) * (2.0 / ca) ** (1.0 / (q * (q - 1.0))),
        (2.0 / ca) ** (1.0 / q),
    )


def theorem2_bound(c: float, alpha: float, q: float, L: float, h0: float) -> RateBound:
    """Local scaling inequality at x* only; valid past the burn-in h_t <= 1.

    q > 2: eta = 1 - 2/(q(q-1)) and C = 1/(2 L H^2); q = 2: linear regime.
    The curve anchors at h0 clipped to the burn-in level.
    """
    _require_positive(c=c, alpha=alpha, L=L)
    if q < 2.0:
        raise InvalidParams(f"q must be >= 2, got {q}")
    H = lemma3_distance_constant(c, alpha, q, L)
    h_anchor = min(h0, 1.0)
    if q == 2.0:
        return _linear("T2", 1.0 / (2.0 * L * H**2), h_anchor)
    eta = 1.0 - 2.0 / (q * (q - 1.0))
    C = 1.0 / (2.0 * L * H**2)
    return RateBound(theorem_tag="T2", recursion=RecursionConstants(eta, C, h_anchor), h0=h_anchor)


def theorem3_bound(
    alpha: float, q: float, mu_heb: float, theta: float, L: float, h0: float
) -> RateBound:
    """Uniformly convex set plus a (mu, theta) Hoelderian error bound on f.

    eta = 1 - 2 theta / q and C = (alpha / mu)^(2/q) / L; q = 2, theta = 1/2
    gives the O(1/T^2) regime.
    """
    _require_positive(alpha=alpha, mu_heb=mu_heb, L=L)
    if q < 2.0:
        raise InvalidParams(f"q must be >= 2, got {q}")
    if not 0.0 < theta <= 0.5:
        raise InvalidParams(f"theta must be in (0, 1/2], got {theta}")
    eta = 1.0 - 2.0 * theta / q
    C = (alpha / mu_heb) ** (2.0 / q) / L
    return RateBound(theorem_tag="T3", recursion=RecursionConstants(eta, C, h0), h0=h0)
