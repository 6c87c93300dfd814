"""Command-line front end.

One subcommand per diagnostic.  Exit codes: 0 success, 1 usage errors
(bad flags, bad numbers, filesystem trouble), 2 expression parse errors,
3 a diagnostic that failed to produce an answer (a floor that leaves no
feasible midpoint, a cooling fit beyond the double range, a non-finite
number in JSON output, or an Inconclusive verdict under --strict),
130 interrupted.

Output is assembled fully in memory; every file a run writes is staged
to a unique temp and renamed into place only once all of them are
written, so a failed run never leaves partial artifacts.  Runs are
deterministic: the same argv and inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
import tempfile
from typing import Callable, Sequence

from . import _check
from ._fmt import json_text
from .blowup import (
    DEFAULT_H0,
    DEFAULT_LEVELS,
    DEFAULT_THRESHOLD,
    BlowupVerdict,
    estimate_blowup,
    report_json,
)
from .cooling import (
    ABSOLUTE_ZERO_C,
    CoolingObservations,
    DiagnosticError,
    feasible_midpoint_range,
    fit_json,
    fit_three_point,
    sweep_csv,
)
from .expr import ParseError, parse
from .limits import (
    DEFAULT_RADII,
    LimitVerdict,
    angular_bound_scan,
    compare_trajectories,
    default_trajectories,
    implicit_csv,
    implicit_zero_scan,
    level_curve_trajectory,
    limit_report_json,
    polar_csv,
    samples_csv,
    trajectory_from_text,
)
from .ode import (
    IVP,
    integrate_euler,
    integrate_rk4,
    trajectory_csv,
    variability_csv,
    variability_table,
)
from .recurrence import RecurrenceInstance, sequence_csv

__all__ = ["main", "run", "UsageError"]

_BOOLEAN_KEYS = frozenset({"strict", "default-set"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # flags and config keys match exactly, never by prefix
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # route argparse's own complaints to exit code 1
        raise UsageError(message)


def _float_list(text: str, expect: int | None = None, flag: str = "") -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if expect is not None and len(values) != expect:
        raise UsageError(f"{flag} expects exactly {expect} numbers, got {len(values)}")
    return values


def _as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} expects a boolean, got {value!r}")


def _read_config(path: str) -> list[tuple[str, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise UsageError(f"cannot read config file {path!r}: {err}") from None
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another config file")
        pairs.append((key, value))
    return pairs


def _apply_config(argv: list[str]) -> list[str]:
    """Translate --config key=value pairs into flags ahead of the real argv.

    Config entries use long option names as keys; explicit flags win
    because argparse keeps the last occurrence of a scalar option.
    """
    path: str | None = None
    cleaned: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            if path is not None:
                raise UsageError("--config given more than once")
            path = argv[i + 1]
            i += 2
            continue
        if token.startswith("--config="):
            if path is not None:
                raise UsageError("--config given more than once")
            path = token.split("=", 1)[1]
            i += 1
            continue
        cleaned.append(token)
        i += 1
    if path is None:
        return cleaned
    flags: list[str] = []
    for key, value in _read_config(path):
        if key in _BOOLEAN_KEYS:
            if _as_bool(value, key):
                flags.append(f"--{key}")
        else:
            # one token, so a value such as -y is not read as an option
            flags.append(f"--{key}={value}")
    if not cleaned:
        raise UsageError("--config requires a subcommand")
    # the flags follow the subcommand words (the tokens before the first option),
    # and the first token at least, so a leading -h is read before a config --h=R
    head = max(1, next((i for i, token in enumerate(cleaned) if token.startswith("-")), len(cleaned)))
    return cleaned[:head] + flags + cleaned[head:]


def _declare(p: argparse.ArgumentParser, run: Callable, formats: tuple[str, ...], rounds: bool = False) -> None:
    """Give subcommand parser p the shared flags, its handler and its formats, the first the default."""
    p.set_defaults(run=run, formats=formats, key=p.prog.removeprefix("illposed "))
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), help="output format (commands support a fixed set)")
    p.add_argument("--config", metavar="PATH", help="file of key=value defaults (long option names as keys)")
    if rounds:
        p.add_argument("--round", type=int, metavar="N", help="round table floats to N decimals")


def _add_ivp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rhs", required=True, metavar="EXPR", help="right-hand side f(x, y)")
    p.add_argument("--x0", required=True, type=float)
    p.add_argument("--y0", required=True, type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="illposed", description="Diagnostics for ill-posed textbook problems.")
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    p = sub.add_parser("euler", help="fixed-step integration of y' = f(x, y) to CSV")
    _add_ivp_flags(p)
    p.add_argument("--h", required=True, type=float, metavar="R")
    p.add_argument("--steps", required=True, type=int, metavar="N")
    p.add_argument("--method", choices=("euler", "rk4"), default="euler")
    _declare(p, _cmd_euler, ("csv",), rounds=True)

    p = sub.add_parser("blowup", help="refinement study of finite-time blow-up")
    _add_ivp_flags(p)
    p.add_argument("--xmax", required=True, type=float, metavar="R")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, metavar="M")
    p.add_argument("--h0", type=float, default=DEFAULT_H0, metavar="R")
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS, metavar="N")
    p.add_argument("--strict", action="store_true", help="exit 3 on an Inconclusive verdict")
    _declare(p, _cmd_blowup, ("json",))

    p = sub.add_parser("variability", help="Euler value at a target abscissa across step sizes")
    _add_ivp_flags(p)
    p.add_argument("--target", required=True, type=float, metavar="R")
    p.add_argument("--h", required=True, metavar="LIST", help="comma-separated step sizes")
    _declare(p, _cmd_variability, ("csv",), rounds=True)

    cooling = sub.add_parser("cooling", help="three-point cooling fits")
    cooling_sub = cooling.add_subparsers(metavar="ACTION", required=True)

    p = cooling_sub.add_parser("fit", help="fit T_M and k to three equally spaced readings")
    p.add_argument("--t1", required=True, type=float, metavar="R", help="time of the middle reading")
    p.add_argument("--temps", required=True, metavar="T0,T1,T2")
    p.add_argument("--floor", type=float, default=ABSOLUTE_ZERO_C, metavar="R")
    _declare(p, _cmd_cooling_fit, ("json",))

    p = cooling_sub.add_parser("range", help="feasible midpoint readings for fixed endpoints")
    p.add_argument("--temps", required=True, metavar="T0,T2")
    p.add_argument("--floor", type=float, default=ABSOLUTE_ZERO_C, metavar="R")
    p.add_argument("--t1", type=float, default=0.5, metavar="R", help="reading spacing used for the sweep's k column")
    p.add_argument("--sweep", type=int, metavar="N", help="also fit N midpoint readings across the interval")
    p.add_argument("--sweep-out", metavar="PATH", help="where to write the sweep CSV")
    _declare(p, _cmd_cooling_range, ("json",))

    p = sub.add_parser("recurrence", help="iterate x_{n+2} = (x_{n+1} + x_n)/2")
    p.add_argument("--a", required=True, type=float, metavar="R")
    p.add_argument("--b", required=True, type=float, metavar="R")
    p.add_argument("--n", required=True, type=int, metavar="N")
    p.add_argument("--tol", type=float, default=1e-10, metavar="R", help="settling tolerance for the limit comment")
    _declare(p, _cmd_recurrence, ("csv",), rounds=True)

    p = sub.add_parser("limit", help="two-variable limit at the origin along paths")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument(
        "--trajectory",
        action="append",
        metavar="XT,YT[;XT,YT...]",
        help="path x(t),y(t); repeatable, semicolon separates several",
    )
    p.add_argument(
        "--level-curve",
        action="append",
        type=float,
        metavar="A",
        help="level curve of x*y/(x+y) with value A; repeatable",
    )
    p.add_argument("--default-set", action="store_true", help="include the stock path set")
    p.add_argument("--strict", action="store_true", help="exit 3 on an Inconclusive verdict")
    _declare(p, _cmd_limit, ("json", "csv"), rounds=True)

    p = sub.add_parser("polar-scan", help="max |f| over dense circles of shrinking radius")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--radii", metavar="LIST", help="comma-separated decreasing radii")
    p.add_argument("--angles", type=int, default=720, metavar="N")
    _declare(p, _cmd_polar_scan, ("csv",), rounds=True)

    p = sub.add_parser("implicit-scan", help="sign-change cells of F(x, y) = 0 away from the origin")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--radius", required=True, type=float, metavar="R")
    p.add_argument("--grid", type=int, default=400, metavar="N")
    _declare(p, _cmd_implicit_scan, ("csv",), rounds=True)

    return parser


def _check_round(args) -> None:
    value = getattr(args, "round", None)
    if value is not None and not (0 <= value <= 17):
        raise UsageError(f"--round must be between 0 and 17, got {value}")


def _cmd_euler(args) -> str:
    ivp = IVP(parse(args.rhs), args.x0, args.y0)
    integrate = integrate_rk4 if args.method == "rk4" else integrate_euler
    return trajectory_csv(integrate(ivp, args.h, args.steps), args.round)


def _cmd_blowup(args) -> str:
    ivp = IVP(parse(args.rhs), args.x0, args.y0)
    report = estimate_blowup(ivp, args.xmax, args.threshold, args.h0, args.levels)
    if args.strict and report.verdict is BlowupVerdict.INCONCLUSIVE:
        raise DiagnosticError(f"blow-up diagnosis is inconclusive: {report.reason}")
    return report_json(report)


def _cmd_variability(args) -> str:
    ivp = IVP(parse(args.rhs), args.x0, args.y0)
    rows = variability_table(ivp, args.target, _float_list(args.h, flag="--h"))
    return variability_csv(rows, args.round)


def _cmd_cooling_fit(args) -> str:
    T0, T1, T2 = _float_list(args.temps, expect=3, flag="--temps")
    obs = CoolingObservations(args.t1, T0, T1, T2)
    return fit_json(fit_three_point(obs, args.floor), obs)


def _cmd_cooling_range(args) -> tuple[str, dict[str, str]]:
    T0, T2 = _float_list(args.temps, expect=2, flag="--temps")
    _check.positive("t1", args.t1)
    c_low, c_high = feasible_midpoint_range(T0, T2, args.floor)
    primary = json_text({"c_low": c_low, "c_high": c_high, "floor": args.floor, "T0": T0, "T2": T2})
    extra: dict[str, str] = {}
    if args.sweep is not None:
        if args.sweep_out is None:
            raise UsageError("--sweep requires --sweep-out PATH")
        extra[args.sweep_out] = sweep_csv(T0, T2, args.sweep, args.floor, args.t1)
    elif args.sweep_out is not None:
        raise UsageError("--sweep-out requires --sweep N")
    return primary, extra


def _cmd_recurrence(args) -> str:
    return sequence_csv(RecurrenceInstance(args.a, args.b), args.n, args.tol, args.round)


def _cmd_limit(args) -> str:
    if args.round is not None and args.format != "csv":
        raise UsageError("limit supports --round only with --format csv")
    f = parse(args.f)
    trajectories = []
    explicit = bool(args.trajectory) or bool(args.level_curve)
    if args.default_set or not explicit:
        trajectories.extend(default_trajectories())
    for text in args.trajectory or []:
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise UsageError(f"--trajectory expects XT,YT pairs, got {chunk!r}")
            trajectories.append(trajectory_from_text(parts[0].strip(), parts[1].strip()))
    for a in args.level_curve or []:
        trajectories.append(level_curve_trajectory(a))
    report = compare_trajectories(f, trajectories)
    if args.strict and report.verdict is LimitVerdict.INCONCLUSIVE:
        raise DiagnosticError(f"limit diagnosis is inconclusive: {report.note}")
    if args.format == "csv":
        return samples_csv(report, args.round)
    return limit_report_json(report)


def _cmd_polar_scan(args) -> str:
    radii = DEFAULT_RADII if args.radii is None else _float_list(args.radii, flag="--radii")
    return polar_csv(angular_bound_scan(parse(args.f), radii, args.angles), args.round)


def _cmd_implicit_scan(args) -> str:
    cells = implicit_zero_scan(parse(args.f), args.radius, args.grid)
    return implicit_csv(cells, args.round)


def _write_outputs(outputs: Sequence[tuple[str | None, str]]) -> None:
    """Write every (path, text) output, or none of the files.

    Each file is staged to its own unique temp in the target directory;
    the temps are renamed only after every write has succeeded and are
    unlinked on any failure.  Text for stdout (path None) goes out last.
    """
    if any(path == "" for path, _ in outputs):
        raise UsageError("an output path must not be empty")
    targets = [os.path.realpath(path) for path, _ in outputs if path is not None]
    if len(set(targets)) < len(targets):
        raise UsageError("--out and --sweep-out must name different files")
    mask = os.umask(0)
    os.umask(mask)
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            if path is None:
                continue
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            directory, name = os.path.split(path)
            try:
                fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
            except OSError as err:  # name the target, not the random temp
                raise OSError(err.errno, err.strerror, path) from None
            staged.append((tmp, path))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                os.fchmod(fd, 0o666 & ~mask)  # mkstemp makes 0600; keep the mode open() would give
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run one diagnostic, return the exit code."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv_with_config = _apply_config(raw_argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv_with_config)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.format is None:
            args.format = args.formats[0]
        elif args.format not in args.formats:
            raise UsageError(f"{args.key} supports --format {' and '.join(args.formats)} only")
        _check_round(args)
        result = args.run(args)
        primary, extra = result if isinstance(result, tuple) else (result, {})
        _write_outputs([(args.out, primary), *extra.items()])
    except (UsageError, ValueError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"expression error: {err}", file=sys.stderr)
        return 2
    except DiagnosticError as err:
        print(f"diagnostic failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"filesystem error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # every staged temp is already gone
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def main() -> int:
    return run(None)
