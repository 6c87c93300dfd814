"""The one CSV cell format and the one CSV writer behind every table."""

import math
import struct
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed._fmt import cells, csv_text
from illposed.cooling import sweep_csv
from illposed.expr import parse
from illposed.limits import (
    LimitReport,
    LimitSample,
    LimitVerdict,
    PathStatus,
    TrajectoryLimit,
    angular_bound_scan,
    compare_trajectories,
    implicit_csv,
    implicit_zero_scan,
    line_trajectory,
    polar_csv,
    samples_csv,
)
from illposed.ode import IVP, VariabilityRow, integrate_euler, trajectory_csv, variability_csv
from illposed.recurrence import RecurrenceInstance, sequence_csv

ROUND_TO = st.integers(0, 17)


# --- cells: exact oracles ------------------------------------------------------


@given(st.floats())
def test_default_cell_reads_back_bit_for_bit(v):
    back = float(cells([v])[0])
    if math.isnan(v):
        assert math.isnan(back)
    else:
        assert struct.pack("<d", back) == struct.pack("<d", v)  # keeps the sign of zero and inf


@given(st.floats(allow_nan=False, allow_infinity=False), ROUND_TO)
def test_fixed_cell_is_correctly_rounded_from_the_exact_binary_value(v, n):
    assert cells([v], n)[0] == format(Decimal(v), f".{n}f")


@pytest.mark.parametrize("round_to", [None, *range(18)])
def test_missing_value_is_an_empty_cell(round_to):
    assert cells([None], round_to) == [""]


@pytest.mark.parametrize("round_to", [None, 0, 3])
def test_non_finite_cells_keep_their_names_under_any_format(round_to):
    assert cells([math.inf, -math.inf, math.nan], round_to) == ["inf", "-inf", "nan"]


def test_format_is_picked_for_the_whole_column():
    assert cells([0.1, None, -0.0, 2.5], 0) == ["0", "", "-0", "2"]
    assert cells([0.1, None, -0.0, 2.5]) == ["0.10000000000000001", "", "-0", "2.5"]


# --- csv_text and the seven renderers -------------------------------------------


def test_csv_text_writes_comments_header_and_rows():
    assert csv_text(["a=1", "b"], "p,q", ["1", "2"], ["x", ""]) == "# a=1\n# b\np,q\n1,x\n2,\n"
    assert csv_text((), "p") == "p\n"


def test_csv_text_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError):
        csv_text((), "p,q", ["1", "2"], ["x"])


def _no_fit_report() -> LimitReport:
    """A path whose point and f are undefined at some samples."""
    samples = (LimitSample(0.1, None, None, None), LimitSample(0.01, 0.01, 0.5, None), LimitSample(0.001, 0.001, 0.0, 0.0))
    path = TrajectoryLimit("x=t, y=?", PathStatus.INCONCLUSIVE, None, samples, ())
    return LimitReport(LimitVerdict.INCONCLUSIVE, None, None, "", (path,))


RENDERED = {
    "trajectory_csv": lambda: trajectory_csv(integrate_euler(IVP(parse("y^2+1"), 0.0, 0.0), 0.2, 10), 3),
    "variability_csv": lambda: variability_csv([VariabilityRow(0.4, 2.5, False), VariabilityRow(0.2, None, True)]),
    "samples_csv": lambda: samples_csv(_no_fit_report()),
    "samples_csv_saddle": lambda: samples_csv(
        compare_trajectories(parse("x*y/(x+y)"), [line_trajectory(1.0), line_trajectory(-1.0)])
    ),
    "polar_csv": lambda: polar_csv(angular_bound_scan(parse("(x^3+y^3)/(x^2+y^2)"))),
    "implicit_csv": lambda: implicit_csv(implicit_zero_scan(parse("x^2+y^2-0.25"), 1.0, 100)),
    "sequence_csv": lambda: sequence_csv(RecurrenceInstance(0.0, 1.0), 40, 1e-10, 4),
    "sweep_csv": lambda: sweep_csv(30.000000000000007, 30.0, 3) + sweep_csv(40.0, 30.0, 20),
}


@pytest.mark.parametrize("name", RENDERED)
def test_every_row_has_as_many_fields_as_its_header(name):
    text = RENDERED[name]()
    assert text.endswith("\n")
    header = None
    rows = 0
    for line in text.splitlines():
        if line.startswith("#"):
            header = None  # a comment opens a new block (samples_csv) or ends the table (sequence_csv)
        elif header is None:
            header = line.count(",")
        else:
            assert line.count(",") == header, line
            rows += 1
    assert rows > 0


def test_no_fit_and_undefined_cells_are_empty():
    assert ",,,NonMonotoneData\n" in sweep_csv(30.000000000000007, 30.0, 3)
    assert "0.20000000000000001,,true\n" in variability_csv([VariabilityRow(0.2, None, True)])
    assert "t,x,y,f\n0.10000000000000001,,,\n0.01,0.01,0.5,\n0.001,0.001,0,0\n" in samples_csv(_no_fit_report())


def test_empty_tables_are_the_header_alone():
    assert implicit_csv([]) == "cell_x,cell_y\n"
    assert variability_csv([]) == "h,y_at_target,escaped\n"
