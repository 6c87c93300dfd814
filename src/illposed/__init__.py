"""Diagnostics for ill-posed textbook problems.

Four classroom problems that look routine but are not, and the
numerics that expose them: an ODE whose solution blows up inside the
requested interval, a Newton's-cooling fit whose exact answer is
physically impossible, a two-variable limit that depends on the
approach path, and an averaging recurrence whose limit is not the
midpoint.  See the README for a tour; the `illposed` command exposes
everything from the shell.
"""

from .blowup import (
    BlowupReport,
    BlowupVerdict,
    EvidenceRow,
    estimate_blowup,
    threshold_crossing,
)
from .cooling import (
    ABSOLUTE_ZERO_C,
    CoolingFit,
    CoolingObservations,
    DiagnosticError,
    FeasibilityVerdict,
    bisect_root,
    feasible_midpoint_range,
    fit_three_point,
    predict,
    tm_of_midpoint,
)
from .expr import (
    DomainError,
    EvalError,
    Expression,
    ExpressionError,
    OverflowDomainError,
    ParseError,
    UnboundVariableError,
    compile_array,
    compile_scalar,
    evaluate,
    free_variables,
    parse,
    to_text,
)
from .limits import (
    AngularScan,
    LimitReport,
    LimitVerdict,
    PathStatus,
    Trajectory2D,
    TrajectoryLimit,
    angular_bound_scan,
    compare_trajectories,
    default_trajectories,
    implicit_zero_scan,
    level_curve_trajectory,
    limit_along,
    line_trajectory,
    trajectory_from_text,
)
from .ode import (
    IVP,
    OVERFLOW_GUARD,
    Trajectory,
    TrajectoryPoint,
    VariabilityRow,
    euler_step,
    integrate_euler,
    integrate_rk4,
    rk4_step,
    variability_table,
)
from .recurrence import (
    RecurrenceInstance,
    closed_form,
    detect_limit,
    iterate_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "Expression",
    "ExpressionError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "OverflowDomainError",
    "parse",
    "evaluate",
    "to_text",
    "free_variables",
    "compile_scalar",
    "compile_array",
    # ODE integration
    "IVP",
    "OVERFLOW_GUARD",
    "Trajectory",
    "TrajectoryPoint",
    "VariabilityRow",
    "euler_step",
    "rk4_step",
    "integrate_euler",
    "integrate_rk4",
    "variability_table",
    # blow-up detection
    "BlowupVerdict",
    "BlowupReport",
    "EvidenceRow",
    "threshold_crossing",
    "estimate_blowup",
    # cooling fits
    "ABSOLUTE_ZERO_C",
    "FeasibilityVerdict",
    "DiagnosticError",
    "CoolingObservations",
    "CoolingFit",
    "fit_three_point",
    "predict",
    "tm_of_midpoint",
    "bisect_root",
    "feasible_midpoint_range",
    # recurrence
    "RecurrenceInstance",
    "iterate_recurrence",
    "closed_form",
    "detect_limit",
    # limits
    "PathStatus",
    "LimitVerdict",
    "Trajectory2D",
    "TrajectoryLimit",
    "LimitReport",
    "AngularScan",
    "trajectory_from_text",
    "line_trajectory",
    "level_curve_trajectory",
    "default_trajectories",
    "limit_along",
    "compare_trajectories",
    "angular_bound_scan",
    "implicit_zero_scan",
]
