"""Exception types shared across the package."""


class UCFWError(Exception):
    """Base class for all package errors."""


class ZeroDirection(UCFWError):
    """An LMO was called with a zero direction.

    The solver treats this as a zero Frank-Wolfe gap, i.e. optimality;
    other callers decide for themselves.
    """


class InvalidParams(UCFWError):
    """Constants outside their admissible range (alpha <= 0, q < 2, ...)."""


class NotUniformlyConvex(UCFWError):
    """The set has no (alpha, q) uniform-convexity parameters (e.g. l1 ball)."""


class InfeasibleStart(UCFWError):
    """The initial iterate is not in the feasible set."""


class StaleOptimum(UCFWError):
    """A reference optimum's gradient norm lies below the problem's
    gradient floor over its set, so it is not the optimum."""


class ConfigError(UCFWError):
    """Malformed experiment or set descriptor."""
