"""Projection-free convex optimization over uniformly convex sets.

Frank-Wolfe with step rules that adapt to set curvature, closed-form rate
constants for every convergence regime, Follow-The-Leader online
optimization, and a sampling-based verifier for the underlying geometric
inequalities.
"""

from .bounds import (
    RateBound,
    RecursionConstants,
    iterate_recursion,
    lemma3_distance_constant,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
from .errors import (
    ConfigError,
    InfeasibleStart,
    InvalidParams,
    NotUniformlyConvex,
    StaleOptimum,
    UCFWError,
    ZeroDirection,
)
from .geometry import (
    FeasibleSet,
    L1Ball,
    LevelSet,
    LpBall,
    SchattenBall,
    UCParams,
    dual_exponent,
    lmo_l1,
    lmo_lp,
    lmo_schatten,
    lp_ball_uc_params,
    lp_norm,
    levelset_uc_params,
    set_from_json,
)
from .objectives import (
    HEBDescriptor,
    QuadraticObjective,
    grad_floor_quadratic,
    heb_from_uniform_convexity,
    objective_from_json,
)
from .online import (
    LossStream,
    OnlineTrace,
    adversarial_stream,
    drifting_mean_stream,
    fixed_stream,
    run_ftl,
    theorem4_bound,
)
from .solver import (
    RunTrace,
    StepRule,
    exact_line_search,
    reference_optimum,
    run_fw,
    run_fw_stack,
    short_step,
)
from .verify import (
    CheckReport,
    SamplerConfig,
    check_definition1,
    check_lemma1,
    check_lemma3,
    check_local_scaling,
    check_trace,
    estimate_local_alpha,
    sample_feasible,
)

__version__ = "0.1.0"
