"""illposed benchmark: one seeded workload, end to end or layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_session, ode_blowup, dense_scans, fits_and_paths (see
bench/README.md).  One client runs whole rounds of operations in a
closed loop for at least S seconds and at least MIN_OPS operations.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from
spans around every call into illposed, and the spans go to
bench/out/<workload>-seed<N>.trace.json.  Each run also writes its
result, with failure and check messages, to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # so the 90th percentile has ten samples beyond it
HARD_STOP_S = 120.0  # no new round starts past this, to end within 180 s
COLD_STARTS = 5


def cold_starts(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Spawn-to-ready seconds and `import illposed` milliseconds of fresh workload processes."""
    setups, imports = [], []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"cold start of {workload} failed with exit code {proc.returncode}")
        imports.append(float(line))
    return setups, imports


def measure(workloads, name: str, variants, ops, seconds: float, workdir: Path) -> None:
    round_fn = workloads.WORKLOADS[name][1]
    tracer = ops.tracer
    start = time.perf_counter()
    r = 0
    while True:
        tracer.round += 1
        with tracer.span("round." + name):
            round_fn(variants[r % len(variants)], ops, workdir)
        ops.end_round()
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and ops.attempted >= MIN_OPS):
            return


def probe_layers(workloads, name: str, seed: int, ops, workdir: Path) -> dict[str, float]:
    """One round of every other workload plus the layer probes, all traced."""
    tracer = ops.tracer
    first = {other: workloads.make_inputs(other, seed)[0] for other in workloads.WORKLOADS}
    for other, (_, round_fn) in workloads.WORKLOADS.items():
        if other != name:
            tracer.round += 1
            with tracer.span("round." + other):
                round_fn(first[other], ops, workdir)
    tracer.round += 1
    for _ in range(3):
        tracer.call("cli.run", workloads.cli_in_process, first["cli_session"], ops, workdir)
    workloads.expr_probe(tracer, workloads.FULL)
    workloads.blowup_probe(tracer, first["ode_blowup"])
    workloads.bisect_probe(tracer, first["fits_and_paths"])
    return workloads.memory_probe(workloads.FULL)


def layer_metrics(workloads, tracer, probes: dict[str, float], import_ms: list[float], traced_wall: float):
    from record import END, NAME, ROUND, START, WORK

    def durations(*names):
        values = [(s[END] - s[START]) / 1e9 for s in tracer.spans if s[NAME] in names]
        if not values:
            raise RuntimeError(f"no spans named {names}")
        return values

    def median(*names, scale):
        return statistics.median(durations(*names)) * scale

    def per_unit(*names, minus=0):
        spans = [s for s in tracer.spans if s[NAME] in names]
        return sum(s[WORK] - minus for s in spans), sum((s[END] - s[START]) / 1e9 for s in spans)

    def rate(*names, minus=0):
        work, seconds = per_unit(*names, minus=minus)
        return work / seconds

    def ns_per(name):
        work, seconds = per_unit(name)
        return seconds / work * 1e9

    integrations = ("ode.integrate_euler", "ode.integrate_rk4")
    by_round: dict[int, int] = {}
    for s in tracer.spans:
        if s[NAME] in integrations:
            by_round[s[ROUND]] = by_round.get(s[ROUND], 0) + s[WORK]
    levels = ("blowup.level", "blowup.finest_level")
    m = {"cli.import_ms": (statistics.median(import_ms), "ms")}
    for sub in workloads.SUBCOMMANDS:
        m[f"cli.cold_ms.{sub}"] = (median(f"cli.{sub}", scale=1e3), "ms")
    m.update({
        "cli.run_ms": (median("cli.run", scale=1e3), "ms"),
        "expr.parse_us": (median("expr.parse", scale=1e6), "us"),
        "expr.compile_scalar_us": (median("expr.compile_scalar", scale=1e6), "us"),
        "expr.evaluate_us": (median("expr.evaluate", scale=1e6), "us"),
        "expr.scalar_call_ns": (ns_per("expr.scalar_call"), "ns"),
        "expr.compile_array_us": (median("expr.compile_array", scale=1e6), "us"),
        "expr.array_ns_per_point": (ns_per("expr.array_call"), "ns"),
        "ode.euler_steps_per_s": (rate("ode.integrate_euler", minus=1), "1/s"),
        "ode.rk4_steps_per_s": (rate("ode.integrate_rk4", minus=1), "1/s"),
        "ode.bytes_per_point": (probes["ode.bytes_per_point"], "B"),
        "ode.points_stored": (statistics.median(by_round.values()), "count"),
        "blowup.level_ms": (median("blowup.finest_level", scale=1e3), "ms"),
        "blowup.steps_total": (per_unit(*levels, minus=1)[0], "count"),
        "blowup.points_stored": (per_unit(*levels)[0], "count"),
        "limits.path_us": (median("limits.limit_along", scale=1e6), "us"),
        "limits.polar_points_per_s": (rate("limits.angular_bound_scan"), "1/s"),
        "limits.implicit_cells_per_s": (rate("limits.implicit_zero_scan"), "1/s"),
        "limits.scan_peak_mb": (probes["limits.scan_peak_mb"], "MB"),
        "cooling.fit_us": (median("cooling.fit_three_point", scale=1e6), "us"),
        "cooling.range_us": (median("cooling.feasible_midpoint_range", scale=1e6), "us"),
        "cooling.sweep_rows_per_s": (rate("cooling.sweep_csv"), "1/s"),
        "cooling.bisect_iterations": (statistics.median(s[WORK] for s in tracer.named("cooling.bisect_root")), "count"),
        "recurrence.terms_per_s": (rate("recurrence.iterate_recurrence"), "1/s"),
        "recurrence.detect_us": (median("recurrence.detect_limit", scale=1e6), "us"),
        "render.csv_rows_per_s": (rate("render.trajectory_csv", "render.implicit_csv"), "1/s"),
        "render.json_us": (median("render.report_json", "render.limit_report_json", "render.fit_json", scale=1e6), "us"),
        "trace.wall_s": (traced_wall, "s"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "illposed" / "__init__.py").is_file():
        print(f"bench: no illposed sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from record import Ops, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    setups, import_ms = cold_starts(args.workload, args.seed)
    variants = workloads.make_inputs(args.workload, args.seed)
    tracer = Tracer(bool(args.trace))
    ops = Ops(tracer)
    probe_ops = Ops(tracer)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    try:
        measure(workloads, args.workload, variants, ops, args.seconds, workdir)
        if args.trace:
            probes = probe_layers(workloads, args.workload, args.seed, probe_ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(workloads, tracer, probes, import_ms, statistics.median(ops.round_sums))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.json")
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        latencies = ops.latencies
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(ops.round_sums), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
    wrong = ops.wrong + probe_ops.wrong
    result = {
        "correct": not wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()},
    }
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(ops.round_sums),
        "failures": dict(ops.failures),
        "probe_failures": dict(probe_ops.failures),
        "wrong": dict(wrong),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=2))
    for message, count in (*ops.failures.items(), *wrong.items()):
        print(f"{count} x {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
