"""The package API: each module's `__all__` is re-exported by `illposed`, once."""

import pytest

import illposed
from illposed import blowup, cooling, expr, limits, ode, recurrence

MODULES = (expr, ode, blowup, cooling, recurrence, limits)

# The names the package exported while it kept its own hand-written list.
EARLIER_EXPORTS = {
    "__version__",
    "Expression", "ExpressionError", "ParseError", "EvalError", "UnboundVariableError",
    "DomainError", "OverflowDomainError", "parse", "evaluate", "to_text", "free_variables",
    "compile_scalar", "compile_array",
    "IVP", "OVERFLOW_GUARD", "Trajectory", "TrajectoryPoint", "VariabilityRow", "euler_step",
    "rk4_step", "integrate_euler", "integrate_rk4", "variability_table",
    "BlowupVerdict", "BlowupReport", "EvidenceRow", "threshold_crossing", "estimate_blowup",
    "ABSOLUTE_ZERO_C", "FeasibilityVerdict", "DiagnosticError", "CoolingObservations",
    "CoolingFit", "fit_three_point", "predict", "tm_of_midpoint", "bisect_root",
    "feasible_midpoint_range",
    "RecurrenceInstance", "iterate_recurrence", "closed_form", "detect_limit",
    "PathStatus", "LimitVerdict", "Trajectory2D", "TrajectoryLimit", "LimitReport",
    "AngularScan", "trajectory_from_text", "line_trajectory", "level_curve_trajectory",
    "default_trajectories", "limit_along", "compare_trajectories", "angular_bound_scan",
    "implicit_zero_scan",
}


def test_no_name_is_exported_twice():
    # a name in two modules' lists would be shadowed silently by the star imports
    assert len(illposed.__all__) == len(set(illposed.__all__))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_name_is_the_same_object_in_the_package(module):
    for name in module.__all__:
        assert getattr(illposed, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_declared_names():
    namespace: dict = {}
    exec("from illposed import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(illposed.__all__)


def test_earlier_exports_are_kept():
    assert len(EARLIER_EXPORTS) == 57  # 56 names and __version__
    assert EARLIER_EXPORTS <= set(illposed.__all__)
