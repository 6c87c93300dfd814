"""End-to-end acceptance gate.

Each test exercises one headline capability at pinned tolerances and
reports a single `[ACCEPTANCE n] PASS/FAIL - ...` line through the
`acceptance` fixture; the lines are replayed in the terminal summary.
"""

import gc
import math
import random
import time

from illposed.blowup import BlowupVerdict, estimate_blowup
from illposed.cli import run
from illposed.cooling import (
    ABSOLUTE_ZERO_C,
    CoolingObservations,
    FeasibilityVerdict,
    bisect_root,
    feasible_midpoint_range,
    fit_three_point,
    predict,
    tm_of_midpoint,
)
from illposed.expr import ExpressionError, evaluate, parse
from illposed.limits import (
    LimitVerdict,
    angular_bound_scan,
    compare_trajectories,
    implicit_zero_scan,
    level_curve_trajectory,
    line_trajectory,
)
from illposed.ode import IVP
from illposed.recurrence import RecurrenceInstance, closed_form, detect_limit, iterate_recurrence

PI_HALF = math.pi / 2

TABLE_H02 = [0.0, 0.2, 0.408, 0.6413, 0.9235, 1.2941, 1.8291, 2.6982, 4.3542, 8.3461, 22.4778]
TABLE_H04 = [0.0, 0.4, 0.864, 1.5626, 2.9393, 6.795]


def run_euler_rows(h: str, steps: str, capsys) -> list[float]:
    code = run(["euler", "--rhs", "y^2+1", "--x0", "0", "--y0", "0", "--h", h, "--steps", steps])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().split("\n")[1:]
    return [float(row.split(",")[2]) for row in rows]


def test_acceptance_1_table_reproduction(acceptance, capsys):
    problems = []
    run_euler_rows("0.2", "10", capsys)  # warm the parser and import caches
    gc.collect()  # a full collection of the test process's heap outlasts the two runs
    t0 = time.perf_counter()
    col02 = run_euler_rows("0.2", "10", capsys)
    col04 = run_euler_rows("0.4", "5", capsys)
    elapsed = time.perf_counter() - t0

    if len(col02) != 11:
        problems.append(f"h=0.2 column has {len(col02)} rows, wanted 11")
    if len(col04) != 6:
        problems.append(f"h=0.4 column has {len(col04)} rows, wanted 6")
    for n, (got, want) in enumerate(zip(col02, TABLE_H02)):
        if abs(got - want) > 5e-5:
            problems.append(f"h=0.2 row {n}: {got!r} vs published {want}")
    for n, (got, want) in enumerate(zip(col04, TABLE_H04)):
        if abs(got - want) > 5e-5:
            problems.append(f"h=0.4 row {n}: {got!r} vs published {want}")
    if abs(col02[-1] - 22.4778) > 5e-5:
        problems.append("endpoint y(2) off for h=0.2")
    if abs(col04[-1] - 6.795) > 5e-5:
        problems.append("endpoint y(2) off for h=0.4")
    if elapsed >= 0.010 * 2:  # two CLI invocations, 10 ms each
        problems.append(f"runtime {elapsed * 1e3:.1f} ms exceeds 20 ms for two runs")

    acceptance(1, "eulerian table for y'=y^2+1 matches the published 4-decimal rows", problems)


def test_acceptance_2_blowup_bracket(acceptance):
    problems = []
    t0 = time.perf_counter()
    report = estimate_blowup(IVP(parse("y^2+1"), 0.0, 0.0), 2.0, 1e8, 0.01, 8)
    elapsed = time.perf_counter() - t0

    if report.verdict is not BlowupVerdict.BLOWUP_DETECTED:
        problems.append(f"verdict {report.verdict}, wanted BlowupDetected")
    else:
        lo, hi = report.bracket
        if not lo <= PI_HALF <= hi:
            problems.append(f"bracket ({lo!r}, {hi!r}) misses pi/2")
        if hi - lo > 0.05:
            problems.append(f"bracket width {hi - lo!r} exceeds 0.05")
        for row in report.evidence:
            steps = int(round(row.crossing_x / row.h)) + 2
            if any(k * row.h == PI_HALF for k in range(steps)):
                problems.append(f"grid h={row.h!r} lands exactly on pi/2")
    if elapsed >= 2.0:
        problems.append(f"runtime {elapsed:.2f} s exceeds 2 s")

    acceptance(2, "step refinement brackets the tan(x) blow-up at pi/2", problems)


def test_acceptance_3_cooling_fits(acceptance):
    problems = []
    bad = fit_three_point(CoolingObservations(0.5, 40.0, 36.0, 30.0))
    if bad.T_M != 48.0:
        problems.append(f"incorrect-problem T_M {bad.T_M!r}, wanted exactly 48.0")
    if abs(bad.k - 0.8109) > 5e-4:
        problems.append(f"incorrect-problem k {bad.k!r}, wanted 0.8109 +- 5e-4")
    if bad.verdict is not FeasibilityVerdict.SIGN_CONTRADICTION:
        problems.append(f"incorrect-problem verdict {bad.verdict}")

    obs = CoolingObservations(0.5, 40.0, 34.0, 30.0)
    good = fit_three_point(obs)
    if good.T_M != 22.0:
        problems.append(f"correct-problem T_M {good.T_M!r}, wanted exactly 22.0")
    if not good.k < 0.0:
        problems.append(f"correct-problem k {good.k!r} is not negative")
    if good.verdict is not FeasibilityVerdict.FEASIBLE:
        problems.append(f"correct-problem verdict {good.verdict}")
    for t, want in ((0.0, 40.0), (0.5, 34.0), (1.0, 30.0)):
        got = predict(good.T_M, good.k, obs.T0, t)
        if abs(got - want) > 1e-9:
            problems.append(f"prediction at t={t}: {got!r} vs reading {want}")

    acceptance(3, "three-point cooling fits expose the infeasible triple and honor the feasible one", problems)


def test_acceptance_4_feasible_midpoint_range(acceptance):
    problems = []
    lo, hi = feasible_midpoint_range(40.0, 30.0, ABSOLUTE_ZERO_C)
    if abs(hi - 34.9594) > 1e-4:
        problems.append(f"upper endpoint {hi!r}, wanted 34.9594 +- 1e-4")
    if lo != 30.0:
        problems.append(f"lower endpoint {lo!r}, wanted 30.0")

    near = [tm_of_midpoint(c, 40.0, 30.0) for c in (34.9, 34.99, 34.999)]
    if not (near[0] > near[1] > near[2]):
        problems.append(f"ambient not decreasing toward the pole: {near}")
    if not near[2] < -10000.0:
        problems.append(f"T_M(34.999) = {near[2]!r}, wanted < -10000")
    if tm_of_midpoint(35.0, 40.0, 30.0) is not None:
        problems.append("pole at c=35 not reported")

    root, iterations = bisect_root(
        lambda c: tm_of_midpoint(c, 40.0, 30.0) - ABSOLUTE_ZERO_C, 30.0, 34.9999
    )
    if abs(root - hi) > 1e-3:
        problems.append(f"direct bisection lands at {root!r}, range endpoint at {hi!r}")
    if iterations >= 60:
        problems.append(f"bisection took {iterations} iterations")

    acceptance(4, "feasible midpoint range ends at 34.9594 with the ambient pole at c=35", problems)


def test_acceptance_5_convexity_dichotomy(acceptance):
    problems = []
    rng = random.Random(1889)
    checked = 0
    while checked < 1200 and len(problems) < 5:
        T0 = rng.uniform(-30.0, 130.0)
        T1 = rng.uniform(-50.0, T0 - 1e-4)
        T2 = rng.uniform(-70.0, T1 - 1e-4)
        d = 2.0 * T1 - T0 - T2
        if d == 0.0:
            continue
        obs = CoolingObservations(rng.uniform(0.02, 5.0), T0, T1, T2)
        fit = fit_three_point(obs)
        checked += 1
        tag = f"triple ({T0!r}, {T1!r}, {T2!r})"
        if d > 0.0:
            if not (fit.k > 0.0 and fit.T_M > T0):
                problems.append(f"{tag}: d>0 but k={fit.k!r}, T_M={fit.T_M!r}")
            if fit.verdict is not FeasibilityVerdict.SIGN_CONTRADICTION:
                problems.append(f"{tag}: d>0 verdict {fit.verdict}")
        else:
            if not (fit.k < 0.0 and fit.T_M < T2):
                problems.append(f"{tag}: d<0 but k={fit.k!r}, T_M={fit.T_M!r}")
            if fit.verdict not in (FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.BELOW_ABSOLUTE_ZERO):
                problems.append(f"{tag}: d<0 verdict {fit.verdict}")
    if checked < 1000:
        problems.append(f"only {checked} triples checked")

    acceptance(5, "sign of 2*T1-T0-T2 dictates the verdict branch on 1200 random triples", problems)


def test_acceptance_6_recurrence_oracle(acceptance):
    problems = []
    rng = random.Random(424242)
    for _ in range(1000):
        if len(problems) >= 5:
            break
        a = rng.uniform(-100.0, 100.0)
        b = rng.uniform(-100.0, 100.0)
        inst = RecurrenceInstance(a, b)
        seq = iterate_recurrence(inst, 200)
        for n in (0, 1, 5, 50, 200):
            if abs(closed_form(inst, n) - seq[n]) > 1e-12:
                problems.append(f"(a={a!r}, b={b!r}) n={n}: closed form departs from iteration")
        hit = detect_limit(seq, 1e-12)
        want = (a + 2.0 * b) / 3.0
        if hit is None:
            problems.append(f"(a={a!r}, b={b!r}): no limit detected")
        elif abs(hit[0] - want) > 1e-10:
            problems.append(f"(a={a!r}, b={b!r}): limit {hit[0]!r} vs (a+2b)/3 {want!r}")

    acceptance(6, "closed form and detected limit agree with iteration on 1000 random seeds", problems)


def test_acceptance_7_limit_lab(acceptance):
    problems = []
    saddle = parse("x*y/(x+y)")
    cubic = parse("(x^3+y^3)/(x^2+y^2)")

    report = compare_trajectories(
        saddle,
        [line_trajectory(1.0), level_curve_trajectory(1.0), level_curve_trajectory(3.0)],
    )
    if report.verdict is not LimitVerdict.DOES_NOT_EXIST:
        problems.append(f"saddle verdict {report.verdict}, wanted DoesNotExist")
    nominal = {"y=x": 0.0, "level curve a=1": 1.0, "level curve a=3": 3.0}
    for path in report.paths:
        want = nominal[path.label]
        if path.value is None or abs(path.value - want) > 1e-6:
            problems.append(f"path {path.label!r} limit {path.value!r}, wanted {want} +- 1e-6")
    if len(report.witnesses) != 2:
        problems.append("witness pair missing")

    wide = angular_bound_scan(saddle, radii=(1e-2, 1e-3), n_angles=20_000_000)
    if wide.bounded:
        problems.append("saddle not flagged unbounded by the dense angular scan")

    tame = angular_bound_scan(cubic)
    if not tame.bounded:
        problems.append("cubic flagged unbounded")
    for r, m in tame.rows:
        if m / r > 2.0:
            problems.append(f"cubic M({r!r})/r = {m / r!r} exceeds 2")

    cells = implicit_zero_scan(parse("x^3+y^3-x^2-y^2"), 0.5, 400)
    if cells:
        problems.append(f"implicit scan found {len(cells)} cells inside R=0.5, wanted none")

    acceptance(7, "level curves disprove the saddle limit; polar and implicit scans agree", problems)


def test_acceptance_8_parser_suite(acceptance):
    problems = []
    for source, want in (("2+3*4", 14.0), ("2^3^2", 512.0), ("-2^2", -4.0)):
        got = evaluate(parse(source), {})
        if got != want:
            problems.append(f"{source} evaluated to {got!r}, wanted {want}")

    rng = random.Random(90125)
    alphabet = "0123456789.+-*/^()xy pisncotaexlqrb\t"
    crashes = 0
    for _ in range(100_000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(source)
        except ExpressionError:
            pass
        except Exception as err:  # noqa: BLE001 - the point is "no other escapes"
            crashes += 1
            if crashes <= 3:
                problems.append(f"parse({source!r}) escaped with {type(err).__name__}: {err}")
    if crashes:
        problems.append(f"{crashes} crashes out of 100000 fuzz strings")

    acceptance(8, "precedence triple holds and 1e5 fuzz strings never crash the parser", problems)
