"""Command-line interface: golden outputs, exit codes, config, determinism."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.cli import build_parser, run

EULER_ARGS = ["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--h", "0.5", "--steps", "2"]
EULER_GOLD = "n,x_n,y_n\n0,0,0\n1,0.5,0.5\n2,1,1.125\n"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_euler_csv_to_stdout(capsys):
    assert run(EULER_ARGS) == 0
    out, err = out_of(capsys)
    assert out == EULER_GOLD
    assert err == ""


def test_euler_rk4_method(capsys):
    code = run(["euler", "--rhs", "y", "--x0", "0", "--y0", "1", "--h", "0.5", "--steps", "2", "--method", "rk4"])
    assert code == 0
    out, _ = out_of(capsys)
    rows = out.strip().split("\n")[1:]
    y_final = float(rows[-1].split(",")[2])
    assert abs(y_final - 2.718) < 1e-2


def test_euler_round_flag(capsys):
    assert run(EULER_ARGS + ["--round", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == "n,x_n,y_n\n0,0.00,0.00\n1,0.50,0.50\n2,1.00,1.12\n"


def test_out_file_and_stdout_agree(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert run(EULER_ARGS + ["--out", str(target)]) == 0
    out, _ = out_of(capsys)
    assert out == ""
    assert target.read_text(encoding="utf-8") == EULER_GOLD
    assert not (tmp_path / "table.csv.tmp").exists()


def test_failed_run_leaves_existing_output_alone(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("precious\n", encoding="utf-8")
    code = run(["euler", "--rhs", "y++1", "--x0", "0", "--y0", "0",
                "--h", "0.5", "--steps", "2", "--out", str(target)])
    assert code == 2
    assert target.read_text(encoding="utf-8") == "precious\n"


def test_failed_second_output_leaves_no_file_behind(tmp_path, capsys):
    primary = tmp_path / "primary.json"
    code = run(["cooling", "range", "--temps", "40,30", "--out", str(primary),
                "--sweep", "3", "--sweep-out", str(tmp_path / "missing" / "s.csv")])
    assert code == 1
    assert "missing" in out_of(capsys)[1]
    assert list(tmp_path.iterdir()) == []


def test_out_and_sweep_out_naming_one_file_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run(["cooling", "range", "--temps", "40,30", "--out", "a.json",
                "--sweep", "3", "--sweep-out", "./a.json"])
    assert code == 1
    out, err = out_of(capsys)
    assert out == ""
    assert "must name different files" in err
    assert list(tmp_path.iterdir()) == []


def test_out_to_a_directory_leaves_no_temp(tmp_path, capsys):
    target = tmp_path / "D"
    target.mkdir()
    assert run(EULER_ARGS + ["--out", str(target)]) == 1
    assert "filesystem error" in out_of(capsys)[1]
    assert [p.name for p in tmp_path.iterdir()] == ["D"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("interrupted", ["illposed.cli.integrate_euler", "os.replace"])
def test_interrupt_exits_130_and_writes_nothing(interrupted, tmp_path, monkeypatch, capsys):
    def stop(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(interrupted, stop)
    assert run(EULER_ARGS + ["--out", str(tmp_path / "table.csv")]) == 130
    assert out_of(capsys) == ("", "interrupted\n")
    assert list(tmp_path.iterdir()) == []


def test_out_file_gets_the_usual_mode(tmp_path, capsys):
    import os

    mask = os.umask(0o022)
    try:
        assert run(EULER_ARGS + ["--out", str(tmp_path / "table.csv")]) == 0
    finally:
        os.umask(mask)
    assert (tmp_path / "table.csv").stat().st_mode & 0o777 == 0o644


def test_runs_are_byte_identical(capsys):
    run(["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--xmax", "2",
         "--threshold", "1e8", "--h0", "0.01", "--levels", "5"])
    first, _ = out_of(capsys)
    run(["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--xmax", "2",
         "--threshold", "1e8", "--h0", "0.01", "--levels", "5"])
    second, _ = out_of(capsys)
    assert first == second != ""


# --- subcommands ---------------------------------------------------------


def test_blowup_json(capsys):
    code = run(["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0",
                "--xmax", "2", "--threshold", "1e8", "--h0", "0.01", "--levels", "8"])
    assert code == 0
    data = json.loads(out_of(capsys)[0])
    assert data["verdict"] == "BlowupDetected"
    assert data["bracket"][0] < 1.5707963267948966 < data["bracket"][1]


_WINDOW = ["--x0", "0", "--y0", "0", "--xmax", "2"]


@pytest.mark.parametrize(
    ("argv", "verdict"),
    [
        (["--rhs", "ln(1-x)", *_WINDOW, "--h0", "0.1", "--levels", "4"], "Inconclusive"),
        (["--rhs", "1/0", *_WINDOW, "--h0", "0.1", "--levels", "4"], "Inconclusive"),
        # its h = 0.005 level stops on overflow in exp, which is an escape
        (["--rhs", "exp(y)", *_WINDOW, "--h0", "0.01"], "BlowupDetected"),
    ],
)
def test_blowup_tells_an_undefined_rhs_from_an_escape(capsys, argv, verdict):
    assert run(["blowup", *argv]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["verdict"] == verdict
    if verdict == "Inconclusive":
        assert data["reason"].startswith("rhs undefined at x=")


def test_blowup_strict_inconclusive_exits_3(capsys):
    code = run(["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0",
                "--xmax", "1.6", "--threshold", "1e8", "--h0", "0.01",
                "--levels", "4", "--strict"])
    assert code == 3
    _, err = out_of(capsys)
    assert "diagnostic failure" in err


def test_variability_csv(capsys):
    code = run(["variability", "--rhs", "y^2+1", "--x0", "0", "--y0", "0",
                "--target", "2", "--h", "0.4,0.2,0.1"])
    assert code == 0
    out, _ = out_of(capsys)
    assert out.startswith("h,y_at_target,escaped\n")
    assert "22.477785021224882" in out
    assert "925.94875142319745" in out


def test_cooling_fit_json(capsys):
    code = run(["cooling", "fit", "--t1", "0.5", "--temps", "40,36,30"])
    assert code == 0
    data = json.loads(out_of(capsys)[0])
    assert data["T_M"] == 48.0
    assert data["verdict"] == "SignContradiction"
    assert abs(data["k"] - 0.8109) < 5e-4


def test_cooling_range_json_and_sweep(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    code = run(["cooling", "range", "--temps", "40,30", "--floor", "-273.15",
                "--sweep", "4", "--sweep-out", str(sweep)])
    assert code == 0
    data = json.loads(out_of(capsys)[0])
    assert data["c_low"] == 30.0
    assert abs(data["c_high"] - 34.9594) < 1e-4
    lines = sweep.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "c,T_M,k,verdict"
    assert len(lines) == 5


def test_cooling_range_infeasible_floor_exits_3(capsys):
    code = run(["cooling", "range", "--temps", "40,30", "--floor", "50"])
    assert code == 3
    _, err = out_of(capsys)
    assert "diagnostic failure" in err


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize(
    "argv, verdict",
    [
        # the float fit used to give up on these three as numerically degenerate
        ("--t1 1 --temps 26.025353896539,26.025353031012,26.025353", "Feasible"),
        ("--t1 0.5 --temps 1e200,1e199,1e198", "BelowAbsoluteZero"),
        ("--t1 1 --temps 1,0.999999999,0", "SignContradiction"),
        # the residual at 2*t1 used to overflow exp(k*t) into a traceback
        ("--t1 1 --temps 0,-1e-150,-1e10", "SignContradiction"),
        # 2*t1 used to overflow, printing an Infinity residual
        ("--t1 1.7e308 --temps 0.1,5e-324,-273.15 --floor 3", "BelowAbsoluteZero"),
    ],
)
def test_cooling_fit_prints_strict_json_at_the_extremes(capsys, argv, verdict):
    assert run(["cooling", "fit", *argv.split()]) == 0
    out, err = out_of(capsys)
    assert err == ""
    data = json.loads(out, parse_constant=_reject)
    assert data["verdict"] == verdict
    assert len(data["residuals"]) == 3


@pytest.mark.parametrize(
    "t1, temps, what",
    [
        ("1e-320", "40,35,31", "k=-inf"),
        ("1", "1e308,0,-9.999999999999998e307", "T_M=-inf"),
        ("1", "1.7e308,1.6999999999999997e308,-1e308", "fit residual"),
    ],
)
def test_cooling_fit_beyond_the_double_range_exits_3(tmp_path, capsys, t1, temps, what):
    argv = ["cooling", "fit", "--t1", t1, "--temps", temps]
    assert run(argv) == 3
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("diagnostic failure:") and "beyond the double range" in err and what in err
    assert run(argv + ["--out", str(tmp_path / "fit.json")]) == 3
    assert out_of(capsys)[0] == ""
    assert list(tmp_path.iterdir()) == []


def test_non_finite_json_output_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("illposed.cli.feasible_midpoint_range", lambda T0, T2, floor: (T2, float("nan")))
    assert run(["cooling", "range", "--temps", "40,30"]) == 3
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("diagnostic failure:") and "non-finite" in err
    assert "Traceback" not in err


def test_cooling_sweep_writes_rows_without_a_fit(tmp_path, capsys):
    sweep = tmp_path / "s.csv"
    argv = ["cooling", "range", "--temps", "30.000000000000007,30", "--sweep", "3", "--sweep-out", str(sweep)]
    assert run(argv) == 0
    assert out_of(capsys)[1] == ""
    assert sweep.read_text(encoding="utf-8") == (
        "c,T_M,k,verdict\n30,,,NonMonotoneData\n30,,,NonMonotoneData\n30.000000000000004,,,ColinearDegenerate\n"
    )


def test_cooling_range_checks_t1_without_sweep(capsys):
    assert run(["cooling", "range", "--temps", "40,30", "--t1", "-1"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert "t1" in err


def test_cooling_sweep_needs_both_flags(capsys):
    assert run(["cooling", "range", "--temps", "40,30", "--sweep", "4"]) == 1
    assert run(["cooling", "range", "--temps", "40,30", "--sweep-out", "x.csv"]) == 1


def test_recurrence_csv(capsys):
    code = run(["recurrence", "--a", "0", "--b", "1", "--n", "6"])
    assert code == 0
    out, _ = out_of(capsys)
    assert out.startswith("n,x_n\n0,0\n1,1\n2,0.5\n")
    assert "# limit=" in out


def test_limit_json_default_set(capsys):
    code = run(["limit", "--f", "x*y/(x^2+y^2)"])
    assert code == 0
    data = json.loads(out_of(capsys)[0])
    assert data["verdict"] == "DoesNotExist"
    assert [p["label"] for p in data["paths"]][:2] == ["y=x", "y=-x"]


def test_limit_semicolon_trajectories_and_level_curves(capsys):
    code = run(["limit", "--f", "x*y/(x+y)", "--trajectory", "t,t;t,t^2",
                "--level-curve", "3"])
    assert code == 0
    data = json.loads(out_of(capsys)[0])
    assert [p["label"] for p in data["paths"]] == ["x=t, y=t", "x=t, y=t^2", "level curve a=3"]
    assert data["verdict"] == "DoesNotExist"


def test_level_curves_whose_g_text_agrees_are_distinct_paths(capsys):
    code = run(["limit", "--f", "x*y/(x+y)", "--level-curve", "1", "--level-curve", "1.000001"])
    out, err = out_of(capsys)
    assert (code, err) == (0, "")
    assert [p["label"] for p in json.loads(out)["paths"]] == ["level curve a=1", "level curve a=1.000001"]


def test_limit_strict_inconclusive_exits_3(capsys):
    code = run(["limit", "--f", "x*y/(x+y)", "--strict"])
    assert code == 3


def test_limit_csv_format(capsys):
    code = run(["limit", "--f", "x*y/(x+y)", "--trajectory", "t,t", "--trajectory", "t,2*t", "--format", "csv"])
    assert code == 0
    out, _ = out_of(capsys)
    assert "# trajectory: x=t, y=t" in out
    assert "t,x,y,f" in out


def test_polar_scan_csv(capsys):
    code = run(["polar-scan", "--f", "(x^3+y^3)/(x^2+y^2)"])
    assert code == 0
    out, _ = out_of(capsys)
    assert out.startswith("# bounded=true\n# n_angles=720\nr,max_abs_f\n")


def test_implicit_scan_empty(capsys):
    code = run(["implicit-scan", "--f", "x^3+y^3-x^2-y^2", "--radius", "0.5", "--grid", "400"])
    assert code == 0
    out, _ = out_of(capsys)
    assert out == "cell_x,cell_y\n"


def test_variability_row_escaped_on_the_last_step(capsys):
    argv = ["variability", "--rhs", "y", "--x0", "0", "--y0", "1e299", "--target", "10", "--h", "10"]
    assert run(argv) == 0
    assert out_of(capsys) == ("h,y_at_target,escaped\n10,,true\n", "")


@pytest.mark.parametrize("radius", ["1e200", "1e-170", "9e307", "5e-324"])
def test_implicit_scan_refuses_radii_whose_square_leaves_the_doubles(radius, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["implicit-scan", "--f", "x+y", "--radius", radius, "--grid", "100"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("usage error: R must lie between") and repr(float(radius)) in err


@pytest.mark.parametrize("radius", ["1e153", "1e-153"])
def test_implicit_scan_keeps_every_cell_inside_the_disk_at_the_edge_radii(radius, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["implicit-scan", "--f", "x+y", "--radius", radius, "--grid", "100"]) == 0
    out, err = out_of(capsys)
    R = Fraction(radius)
    cells = [tuple(map(Fraction, line.split(","))) for line in out.splitlines()[1:]]
    assert cells and err == ""
    assert all(cx * cx + cy * cy <= R * R for cx, cy in cells)


def test_scans_with_a_literal_division_by_zero(capsys):
    assert run(["polar-scan", "--f", "x+1/0"]) == 0
    out, err = out_of(capsys)
    assert out.startswith("# bounded=false\n# n_angles=720\nr,max_abs_f\n")
    assert all(line.endswith(",inf") for line in out.splitlines()[3:])
    assert err == ""
    assert run(["implicit-scan", "--f", "x^2+y^2-0.25+0/0", "--radius", "1", "--grid", "100"]) == 0
    assert out_of(capsys) == ("cell_x,cell_y\n", "")


def test_cooling_sweep_past_half_the_double_range(tmp_path, capsys):
    sweep = tmp_path / "s.csv"
    assert run(["cooling", "range", "--temps", "1.7e308,1e308", "--sweep", "3", "--sweep-out", str(sweep)]) == 0
    assert out_of(capsys)[1] == ""
    rows = sweep.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["Feasible"] * 3


# --- exit codes and argument errors ------------------------------------------


def test_expression_error_exits_2(capsys):
    code = run(["euler", "--rhs", "y++1", "--x0", "0", "--y0", "0", "--h", "0.5", "--steps", "2"])
    assert code == 2
    _, err = out_of(capsys)
    assert "expression error" in err


def test_bad_value_exits_1(capsys):
    for argv in (
        ["euler", "--rhs", "y", "--x0", "0", "--y0", "0", "--h", "0", "--steps", "2"],
        ["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--xmax", "2", "--h0", "1e-320"],
        ["variability", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--target", "1", "--h", "0.5,1e-320"],
    ):
        assert run(argv) == 1
        _, err = out_of(capsys)
        assert "step size" in err


def test_grid_past_the_double_range_exits_1(capsys):
    for argv in (
        "euler --rhs x^-1 --x0 1.7e308 --y0 0 --h 1.7e308 --steps 3",
        "euler --rhs 1 --x0 1e308 --y0 0 --h 1e308 --steps 3 --method rk4",
    ):
        assert run(argv.split()) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert "last grid abscissa x0 + 3*h must be finite, got inf" in err


def test_unknown_flag_exits_1(capsys):
    assert run(EULER_ARGS + ["--frobnicate"]) == 1


def test_missing_required_flag_exits_1(capsys):
    assert run(["euler", "--x0", "0", "--y0", "0", "--h", "0.5", "--steps", "2"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (EULER_ARGS + ["--format", "json"], "euler supports --format csv only"),
        (["blowup", "--rhs", "y", "--x0", "0", "--y0", "1", "--xmax", "1", "--format", "csv"],
         "blowup supports --format json only"),
        (["cooling", "fit", "--t1", "0.5", "--temps", "40,36,30", "--format", "csv"],
         "cooling fit supports --format json only"),
        (["cooling", "range", "--temps", "40,30", "--format", "csv"], "cooling range supports --format json only"),
    ],
    ids=["euler", "blowup", "cooling-fit", "cooling-range"],
)
def test_unsupported_format_exits_1(argv, message, capsys):
    assert run(argv) == 1
    assert out_of(capsys) == ("", f"usage error: {message}\n")


def _leaf_parsers(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_subcommand_declares_its_handler_and_formats():
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 9
    for path, leaf in leaves.items():
        assert callable(leaf.get_default("run"))
        assert leaf.get_default("key") == " ".join(path)
        choices = next(a.choices for a in leaf._actions if a.dest == "format")
        formats = leaf.get_default("formats")
        assert formats and set(formats) <= set(choices), path


def test_round_out_of_range_exits_1(capsys):
    assert run(EULER_ARGS + ["--round", "18"]) == 1


def test_temps_arity_is_checked(capsys):
    assert run(["cooling", "fit", "--t1", "0.5", "--temps", "40,36"]) == 1
    assert run(["cooling", "range", "--temps", "40,30,20"]) == 1


# --- config file ---------------------------------------------------------------


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=0.5\nsteps=2\n# comment line\n\n", encoding="utf-8")
    code = run(["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--config", str(cfg)])
    assert code == 0
    out, _ = out_of(capsys)
    assert out == EULER_GOLD


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=0.1\nsteps=2\n", encoding="utf-8")
    code = run(["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0",
                "--h", "0.5", "--config", str(cfg)])
    assert code == 0
    out, _ = out_of(capsys)
    assert out == EULER_GOLD


def test_config_value_with_a_leading_minus(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rhs=-y\n", encoding="utf-8")
    base = ["euler", "--x0", "0", "--y0", "1", "--h", "0.5", "--steps", "2"]
    assert run(base + ["--rhs=-y"]) == 0
    expected = out_of(capsys)
    assert run(base + ["--config", str(cfg)]) == 0
    assert out_of(capsys) == expected


def test_config_boolean_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strict=true\n", encoding="utf-8")
    code = run(["limit", "--f", "x*y/(x+y)", "--config", str(cfg)])
    assert code == 3


def test_config_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just-a-word\n", encoding="utf-8")
    assert run(EULER_ARGS + ["--config", str(cfg)]) == 1
    _, err = out_of(capsys)
    assert "expected key=value" in err


def test_config_missing_file(capsys):
    assert run(EULER_ARGS + ["--config", "/nonexistent/run.cfg"]) == 1


def test_config_rejected_twice(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=0.5\n", encoding="utf-8")
    assert run(EULER_ARGS + ["--config", str(cfg), "--config", str(cfg)]) == 1


# --- process-level checks ----------------------------------------------------------


def test_module_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "illposed", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_installed_entry_point_matches_in_process():
    proc = subprocess.run(
        [sys.executable, "-m", "illposed", *EULER_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == EULER_GOLD


# the README command-line examples; only the two scans use numpy
README_SCALAR_COMMANDS = [
    ["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--h", "0.2", "--steps", "10"],
    ["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--h", "0.05", "--steps", "20", "--method", "rk4"],
    ["variability", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--target", "2", "--h", "0.4,0.2,0.1"],
    ["blowup", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--xmax", "2", "--threshold", "1e8",
     "--h0", "0.01", "--levels", "8"],
    ["cooling", "fit", "--t1", "0.5", "--temps", "40,36,30"],
    ["cooling", "range", "--temps", "40,30", "--floor", "-273.15", "--sweep", "20", "--sweep-out", "sweep.csv"],
    ["recurrence", "--a", "0", "--b", "1", "--n", "40", "--tol", "1e-10"],
    ["limit", "--f", "x*y/(x+y)", "--trajectory", "t,t", "--level-curve", "1", "--level-curve", "3"],
    ["limit", "--f", "x*y/(x^2+y^2)"],
]
README_SCAN_COMMANDS = [
    ["polar-scan", "--f", "(x^3+y^3)/(x^2+y^2)"],
    ["implicit-scan", "--f", "x^3+y^3-x^2-y^2", "--radius", "0.5", "--grid", "400"],
]

_FRESH_RUN = """
import contextlib, io, json, sys
import illposed, illposed.cli
loaded = {"import": "numpy" in sys.modules}

def run_all(commands):
    results = []
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            results.append([illposed.cli.run(argv), buffer.getvalue()])
    return results

scalar, scans = json.loads(sys.argv[1])
scalar_results = run_all(scalar)
loaded["scalar"] = "numpy" in sys.modules
scan_results = run_all(scans)
loaded["scan"] = "numpy" in sys.modules
print(json.dumps([loaded, scalar_results, scan_results]))
"""


def test_numpy_is_imported_only_by_the_scans(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    scalar = [[str(sweep) if arg == "sweep.csv" else arg for arg in argv] for argv in README_SCALAR_COMMANDS]
    commands = json.dumps([scalar, README_SCAN_COMMANDS])
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, commands], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, scalar_results, scan_results = json.loads(proc.stdout)
    assert loaded == {"import": False, "scalar": False, "scan": True}
    assert all(code == 0 and out != "" for code, out in scalar_results)
    assert sweep.exists()
    # a scan that imports numpy itself gives the bytes of one in a process that already has it
    import numpy  # noqa: F401

    for argv, (code, out) in zip(README_SCAN_COMMANDS, scan_results):
        assert run(argv) == 0
        assert (code, out) == (0, out_of(capsys)[0])


_FUTURES_RUN = """
import contextlib, io, json, sys
import illposed.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(illposed.cli.run(argv))
print(json.dumps([codes, "concurrent.futures" in sys.modules]))
"""


def test_no_readme_command_imports_concurrent_futures(tmp_path):
    # importing concurrent.futures costs milliseconds that every cold scan would pay
    sweep = tmp_path / "sweep.csv"
    commands = [
        [str(sweep) if arg == "sweep.csv" else arg for arg in argv]
        for argv in README_SCALAR_COMMANDS + README_SCAN_COMMANDS + [["polar-scan", "--f", "x*y", "--angles", "100000"]]
    ]
    proc = subprocess.run([sys.executable, "-c", _FUTURES_RUN, json.dumps(commands)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, imported = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    assert not imported


# 0, the edges of the double range, and 30 with the doubles just above it
_THIRTY_UP = math.nextafter(30.0, 31.0)
HOSTILE = tuple(map(repr, (0.0, 1e308, -1e308, 1.7e308, 5e-324, 30.0, _THIRTY_UP, math.nextafter(_THIRTY_UP, 31.0))))
_NUMBER = st.sampled_from(HOSTILE)
_EULER_ARGV = st.builds(
    lambda rhs, x0, y0, h, steps, method: [
        "euler", f"--rhs={rhs}", f"--x0={x0}", f"--y0={y0}", f"--h={h}", f"--steps={steps}", f"--method={method}"
    ],
    st.sampled_from(("0", "1", "x^-1", "y^2+1", "-y+sin(x)")),
    _NUMBER,
    _NUMBER,
    _NUMBER,
    st.integers(0, 50),
    st.sampled_from(("euler", "rk4")),
)
_SWEEP_ARGV = st.builds(
    lambda T0, T2, n, floor, t1: [
        "cooling", "range", f"--temps={T0},{T2}", f"--sweep={n}", f"--floor={floor}", f"--t1={t1}"
    ],
    _NUMBER,
    _NUMBER,
    st.integers(0, 50),
    st.sampled_from(("-273.15",) + HOSTILE),
    st.sampled_from(("0.5",) + HOSTILE),
)

_RECURRENCE_ARGV = st.builds(
    lambda a, b, n, tol: ["recurrence", f"--a={a}", f"--b={b}", f"--n={n}", f"--tol={tol}"],
    _NUMBER,
    _NUMBER,
    st.integers(-1, 50),
    _NUMBER,
)
_FIT_ARGV = st.builds(
    lambda t1, T0, T1, T2, floor: ["cooling", "fit", f"--t1={t1}", f"--temps={T0},{T1},{T2}", f"--floor={floor}"],
    _NUMBER,
    _NUMBER,
    _NUMBER,
    _NUMBER,
    st.sampled_from(("-273.15",) + HOSTILE),
)
_LEVEL_CURVE_ARGV = st.builds(
    lambda a, b: ["limit", "--f=x*y/(x+y)", f"--level-curve={a}", f"--level-curve={b}"],
    _NUMBER,
    _NUMBER,
)

# a grid fixed at 100 keeps the scan's cost bounded
_IMPLICIT_ARGV = st.builds(
    lambda f, c, R: ["implicit-scan", f"--f={f}-({c})", f"--radius={R}", "--grid=100"],
    st.sampled_from(("x+y", "x^2+y^2", "x*y")),
    _NUMBER,
    _NUMBER,
)


def _assert_finite_csv(text):
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # an empty cell or a verdict
                continue
            assert math.isfinite(value), line


@given(_EULER_ARGV | _SWEEP_ARGV | _RECURRENCE_ARGV | _FIT_ARGV | _LEVEL_CURVE_ARGV | _IMPLICIT_ARGV)
@settings(max_examples=300, deadline=None)
def test_hostile_numbers_never_give_a_traceback_or_a_non_finite_cell(tmp_path_factory, argv):
    sweep = tmp_path_factory.getbasetemp() / "sweep.csv"
    if argv[:2] == ["cooling", "range"]:
        argv = argv + [f"--sweep-out={sweep}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning is a fault too
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    elif argv[0] in ("euler", "recurrence", "implicit-scan"):
        _assert_finite_csv(out.getvalue())
    else:
        json.loads(out.getvalue(), parse_constant=_reject)
        if argv[:2] == ["cooling", "range"]:
            _assert_finite_csv(sweep.read_text(encoding="utf-8"))
