"""The paper's incorrect problems, each checked against the verdict its closed form gives.

Each case is one in-process `run()` call.  A case that the toolkit gets
wrong today is a strict xfail whose reason names the roadmap item that
mends it, so a fix turns into a failure here until its marker is removed.
"""

import json
import math

import pytest

from illposed.cli import run


def _never_blowup(code, out, err):
    assert code == 0, err
    assert json.loads(out)["verdict"] != "BlowupDetected"


def _brackets(pole):
    def check(code, out, err):
        assert code == 0, err
        report = json.loads(out)
        if report["verdict"] == "BlowupDetected":
            lo, hi = report["bracket"]
            assert lo <= pole <= hi

    return check


def _bounded(flag):
    def check(code, out, err):
        assert code == 0, err
        assert f"# bounded={flag}" in out.splitlines()

    return check


def _cells(out):
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "cell_x,cell_y"
    return [tuple(map(float, line.split(","))) for line in lines[1:]]


def _flags_no_cell(code, out, err):
    assert code == 0, err
    assert _cells(out) == []


def _flags_the_cell_of(x, y, half_width):
    def check(code, out, err):
        assert code == 0, err
        assert any(abs(cx - x) <= half_width and abs(cy - y) <= half_width for cx, cy in _cells(out))

    return check


def _limit_reads(verdict):
    def check(code, out, err):
        assert code == 0, err
        assert json.loads(out)["verdict"] == verdict

    return check


def _no_converged_level_curve(code, out, err):
    assert code == 0, err
    paths = json.loads(out)["paths"]
    assert not [p for p in paths if p["label"].startswith("level curve") and p["status"] == "Converged"]


def _refused_by_the_budget(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "budget" in err


def _wrong_today(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"wrong today; mended by ROADMAP {item}")


CASES = [
    # y' = y^2 + 1, y(0) = 0 is tan x, whose pole is pi/2
    pytest.param(
        "blowup --rhs y^2+1 --x0 0 --y0 0 --xmax 2 --threshold 1e8 --h0 0.01 --levels 8",
        _brackets(math.pi / 2),
        id="readme-blowup-brackets-pi/2",
    ),
    # e^x and e^(x^2) are entire: no pole anywhere
    pytest.param(
        "blowup --rhs y --x0 0 --y0 1 --xmax 25 --h0 0.1",
        _never_blowup,
        id="blowup-exp-x",
        marks=_wrong_today("items 19 and 2"),
    ),
    pytest.param(
        "blowup --rhs 2*x*y --x0 0 --y0 1 --xmax 6 --h0 0.01",
        _never_blowup,
        id="blowup-exp-x^2",
        marks=_wrong_today("items 19 and 2"),
    ),
    # y' = y^1.01, y(0) = 1 is (1 - x/100)^-100, whose pole is 100
    pytest.param(
        "blowup --rhs y^1.01 --x0 0 --y0 1 --xmax 200 --h0 0.5",
        _brackets(1.0 / 0.01),
        id="blowup-y^1.01-pole-100",
        marks=_wrong_today("items 19 and 10"),
    ),
    # |x^3 + y^3| / (x^2 + y^2) <= |x| + |y|
    pytest.param("polar-scan --f (x^3+y^3)/(x^2+y^2)", _bounded("true"), id="readme-cubic-bounded"),
    # on y = -x + x^3, xy/(x+y) = (x^4 - x^2)/x^3, about -1/x: unbounded on every circle
    pytest.param("polar-scan --f x*y/(x+y)", _bounded("false"), id="saddle-unbounded", marks=_wrong_today("item 13")),
    # in polar form r(cos^3 + sin^3) = 1 needs r >= 1, so no zero but the origin within 0.5
    pytest.param(
        "implicit-scan --f x^3+y^3-x^2-y^2 --radius 0.5 --grid 400", _flags_no_cell, id="readme-implicit-no-cell"
    ),
    # the only zero is (0.3, 0.2), a lattice corner of the 0.0025-wide cells
    pytest.param(
        "implicit-scan --f (x-0.3)^2+(y-0.2)^2 --radius 0.5 --grid 400",
        _flags_the_cell_of(0.3, 0.2, 0.0025 / 2),
        id="implicit-double-root",
        marks=_wrong_today("item 14"),
    ),
    # the level curve xy/(x+y) = a reaches the origin for every a, so the limit does not exist
    pytest.param(
        "limit --f x*y/(x+y) --trajectory t,t --level-curve 1 --level-curve 3",
        _limit_reads("DoesNotExist"),
        id="readme-limit-does-not-exist",
    ),
    pytest.param(
        "limit --f x*y/(x+y)",
        _limit_reads("DoesNotExist"),
        id="limit-default-paths",
        marks=_wrong_today("item 17"),
    ),
    # x^2 + y^2 = 1 is the unit circle, which misses the origin: no such level path exists
    pytest.param(
        "limit --f x^2+y^2 --trajectory t,t --level-curve 1",
        _no_converged_level_curve,
        id="limit-level-curve-that-misses-the-origin",
        marks=_wrong_today("item 17"),
    ),
    # 10^8 + 1 rows: refused by a work budget before the loop runs
    pytest.param(
        "recurrence --a 0 --b 1 --n 100000000",
        _refused_by_the_budget,
        id="recurrence-past-the-budget",
        marks=_wrong_today("item 4"),
    ),
]


def _never_iterate(*args, **kwargs):
    raise AssertionError("the recurrence loop ran")


@pytest.mark.parametrize(("command", "check"), CASES)
def test_paper_verdict(command, check, monkeypatch, capsys):
    # no case may run the recurrence loop: the budget case must refuse before it
    monkeypatch.setattr("illposed.recurrence.iterate_recurrence", _never_iterate)
    code = run(command.split())
    captured = capsys.readouterr()
    check(code, captured.out, captured.err)
