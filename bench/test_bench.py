"""Smoke test of the benchmark: every workload at a tiny size, and every oracle
against hand-worked values.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import illposed as ip  # noqa: E402
import oracles as o  # noqa: E402
import workloads as w  # noqa: E402
from record import Ops, Tracer  # noqa: E402

# operations per round, and those that fail in every round on the
# program's known faults (two cooling triples and one range pair)
ROUND_OPS = {"cli_session": 15, "ode_blowup": 7, "dense_scans": 7, "fits_and_paths": 21}
ROUND_FAILURES = {"cli_session": 0, "ode_blowup": 0, "dense_scans": 0, "fits_and_paths": 3}


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_round_passes_its_checks(name, trace, tmp_path):
    ops = Ops(Tracer(trace))
    for variant in w.make_inputs(name, 7, w.TINY)[:2]:
        w.WORKLOADS[name][1](variant, ops, tmp_path)
        ops.end_round()
    assert not ops.wrong
    assert ops.attempted == 2 * ROUND_OPS[name]
    assert ops.failed == 2 * ROUND_FAILURES[name], dict(ops.failures)
    assert len(ops.latencies) == ops.attempted and len(ops.round_sums) == 2


def test_inputs_depend_on_the_seed_and_only_on_it():
    assert repr(w.make_inputs("fits_and_paths", 1)) == repr(w.make_inputs("fits_and_paths", 1))
    assert repr(w.make_inputs("fits_and_paths", 1)) != repr(w.make_inputs("fits_and_paths", 2))
    assert w.make_inputs("cli_session", 3) != w.make_inputs("cli_session", 4)


def test_tracer_derives_self_time():
    tracer = Tracer(True)
    with tracer.span("outer"):
        tracer.call("inner", sum, [1, 2], work=lambda total: total)
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] == -1 and inner[5] == 3
    own = tracer.self_ns()
    assert own[0] == (outer[2] - outer[1]) - (inner[2] - inner[1])
    assert own[1] == inner[2] - inner[1]


# --- oracles against hand-worked values ------------------------------------------


def test_exact_fit_hand_values():
    # (36^2 - 40*30)/(72 - 70) = 48; ratio (36-48)/(40-48) = 3/2
    tm, k, verdict = o.exact_fit(0.5, 40.0, 36.0, 30.0)
    assert tm == 48 and k == pytest.approx(2 * math.log(1.5)) and verdict == "SignContradiction"
    # (900 - 1000)/(60 - 65) = 20; ratio (30-20)/(40-20) = 1/2
    tm, k, verdict = o.exact_fit(1.0, 40.0, 30.0, 25.0)
    assert tm == 20 and k == pytest.approx(math.log(0.5)) and verdict == "Feasible"
    assert o.exact_fit(1.0, 40.0, 30.0, 25.0, floor=25.0)[2] == "BelowAbsoluteZero"
    assert o.exact_fit(1.0, 40.0, 35.0, 30.0)[2] == "ColinearDegenerate"
    assert o.exact_fit(1.0, 30.0, 35.0, 40.0)[2] == "NonMonotoneData"


def test_fit_check_rejects_a_wrong_ambient():
    o.check_fit(48.0, 2 * math.log(1.5), "SignContradiction", 0.5, 40.0, 36.0, 30.0)
    with pytest.raises(o.Wrong):
        o.check_fit(48.0 + 1e-6, 2 * math.log(1.5), "SignContradiction", 0.5, 40.0, 36.0, 30.0)
    with pytest.raises(o.Wrong):
        o.check_fit(48.0, 2 * math.log(1.5), "Feasible", 0.5, 40.0, 36.0, 30.0)
    with pytest.raises(o.NoAnswer):
        o.check_fit_json('{"T_M": NaN, "k": 1.0, "verdict": "Feasible", "residuals": null}', 0.5, 40.0, 36.0, 30.0)


def test_range_root_hand_value():
    # T_M(c) = 0 solves c^2 - 2*0*c + 0 - 40*10 = 0, so c = 20
    assert o.midpoint_gap(Fraction(20), Fraction(40), Fraction(10), Fraction(0)) == 0
    o.check_range(10.0, 20.0, 40.0, 10.0, 0.0)
    with pytest.raises(o.Wrong):
        o.check_range(10.0, 20.01, 40.0, 10.0, 0.0)


def test_recurrence_hand_values():
    assert [o.exact_term(0.0, 1.0, n) for n in range(5)] == [0, 1, Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)]
    o.check_terms([0.0, 1.0, 0.5, 0.75, 0.625], 0.0, 1.0)
    with pytest.raises(o.Wrong):
        o.check_terms([0.0, 1.0, 0.5, 0.75, 0.626], 0.0, 1.0)
    values = [float(o.exact_term(0.0, 1.0, n)) for n in range(60)]
    settle = next(i for i in range(1, 60) if all(abs(values[j] - values[j - 1]) < 1e-10 for j in range(i, 60))) - 1
    o.check_limit(2.0 / 3.0, settle, values, 0.0, 1.0, 1e-10)
    with pytest.raises(o.Wrong):
        o.check_limit(0.5, settle, values, 0.0, 1.0, 1e-10)


def test_euler_table_hand_values():
    points, escaped = o.euler_table(w._tan_rhs, 0.0, 0.0, 0.2, 2)
    assert not escaped and points[1] == (0.2, 0.2) and points[2][1] == pytest.approx(0.408, abs=1e-15)
    assert o.euler_table(lambda x, y: y**2.0, 0.0, 1e200, 1.0, 3) == ([(0.0, 1e200)], True)


def test_bounded_solution_solves_its_ode():
    assert o.bounded_solution(0.0, 1.0) == 1.0
    x, h = 0.7, 1e-6
    slope = (o.bounded_solution(x + h, 1.0) - o.bounded_solution(x - h, 1.0)) / (2 * h)
    assert slope == pytest.approx(-o.bounded_solution(x, 1.0) + math.sin(x), abs=1e-8)


def test_path_limit_hand_values():
    limits = o.quadratic_ratio_limits(0.0, 1.0, 0.0)  # x*y/(x^2+y^2)
    assert limits["y=x"] == 0.5 and limits["y=-x"] == -0.5 and limits["y=0"] == 0.0
    o.check_level_limit("Converged", 3.0 + 1e-9, 3.0, 5e-9)
    with pytest.raises(o.Wrong):
        o.check_level_limit("Converged", 3.001, 3.0, 5e-9)
    with pytest.raises(o.Wrong):
        o.check_line_limit("Converged", 1e-3, 1.0, 5e-9)


def test_output_formats():
    assert o.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', "{"):
        with pytest.raises(o.NoAnswer):
            o.strict_json(text)
    header, rows, comments = o.csv_table("# bounded=true\nr,max_abs_f\n0.1,0.05\n")
    assert header == ["r", "max_abs_f"] and rows == [["0.1", "0.05"]] and comments == {"bounded": "true"}
    with pytest.raises(o.NoAnswer):
        o.csv_table("a,b\n1\n")
    with pytest.raises(o.NoAnswer):
        o.number("nan")


def test_polar_oracles():
    f = lambda x, y: x  # noqa: E731  |f| = r |cos|, so M(r)/r = 1
    o.check_polar_rows([(0.1, 0.1)], True, f, 360, math.sqrt(2.0), range(360))
    with pytest.raises(o.Wrong):
        o.check_polar_rows([(0.1, 0.2)], True, f, 360, math.sqrt(2.0), range(360))
    with pytest.raises(o.Wrong):
        o.check_polar_rows([(0.1, 0.05)], True, f, 360, math.sqrt(2.0), range(360))
    saddle = lambda x, y: x * y / (x + y)  # noqa: E731  M(r)/r is about n/8.9 next to y = -x
    scan = ip.angular_bound_scan(ip.parse("x*y/(x+y)"), (1e-3,), 40_000, 1e3)
    o.check_polar_unbounded(scan.rows, scan.bounded, saddle, 40_000, 0.75 * math.pi, 1e3)
    with pytest.raises(o.Wrong):
        o.check_polar_unbounded(scan.rows, scan.bounded, saddle, 40_000, 0.75 * math.pi, 1e5)
    with pytest.raises(o.Wrong):
        o.check_polar_unbounded([(1e-3, 2 * scan.rows[0][1])], False, saddle, 40_000, 0.75 * math.pi, 1e3)


def test_implicit_grid_hand_cells():
    grid = o.ImplicitGrid(lambda x, y: x * x + y * y - 0.25, 1.0, 101)  # step 0.02
    assert grid.decide(74, 55) is True  # [0.48, 0.50] x [0.10, 0.12]: F(0.48, 0.1) = -0.0096, F(0.5, 0.12) = 0.0144
    assert grid.decide(74, 50) is None  # F(0.5, 0) is 0 up to rounding: either lane may flag it
    assert grid.decide(50, 50) is False  # contains the origin
    assert grid.decide(0, 0) is False  # centre outside the disk
    assert grid.decide(60, 60) is False  # inside the circle
    assert grid.index(0.49) == 74


def test_implicit_oracle_catches_a_missing_and_a_bogus_cell():
    F = ip.parse("x^2+y^2-0.25")
    cells = ip.implicit_zero_scan(F, 1.0, 120)
    f = lambda x, y: x**2.0 + y**2.0 - 0.25  # noqa: E731
    o.check_implicit_cells(cells, f, 1.0, 120, [])
    o.check_circle_cells(cells, (0.0, 0.0), 0.5, 1.0, 120)
    with pytest.raises(o.Wrong):
        o.check_implicit_cells(cells[:5] + cells[6:], f, 1.0, 120, [])
    with pytest.raises(o.Wrong):
        o.check_circle_cells(cells + [(0.9, 0.1)], (0.0, 0.0), 0.5, 1.0, 120)


# --- the command ---------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_end_to_end_metrics():
    proc = _run(["--workload", "fits_and_paths", "--seed", "2", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert result["failed"] * ROUND_OPS["fits_and_paths"] == result["attempted"] * ROUND_FAILURES["fits_and_paths"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_prints_every_layer_metric():
    proc = _run(["--workload", "fits_and_paths", "--seed", "2", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    spans = json.loads((HERE / "out" / "fits_and_paths-seed2.trace.json").read_text())
    assert spans["spans"] and spans["summary"]["limits.limit_along"]["count"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "fits_and_paths", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
