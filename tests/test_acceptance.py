"""Acceptance gate: nine end-to-end checks at stated tolerances.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -s``) and fails the build if its
criterion is not met. Oracles here are computed independently of the
library code under test: closed forms, scipy root finds on the raw
equations, and spreadsheet-style arithmetic.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy.optimize import brentq, fsolve

from lifelinesim import cli, metrics
from lifelinesim.hazard import (
    CONDITIONAL_FAILURE,
    ComponentFailure,
    DisasterScenario,
    HazardEvent,
    failure_probability,
    sample_scenario,
)
from lifelinesim.hydraulics import hazen_williams_r, pda_demand, solve_hydraulics
from lifelinesim.metrics import NetworkSeries, pcs_curve
from lifelinesim.network import Component, IntegratedNetwork, TRAFFIC, WATER
from lifelinesim.powerflow import solve_power
from lifelinesim.recovery import build_planning_context, default_crews, rank_components
from lifelinesim.simulation import (
    ACTION_REPAIR_END,
    ACTION_REPAIR_START,
    build_event_table,
    make_weighted_eoh_evaluator,
    run_scenario,
)
from lifelinesim.traffic import TrafficParams, assign_traffic


def report(criterion: int, problems: list, detail: str) -> None:
    """Print the per-criterion verdict line, then enforce it."""
    if problems:
        text = "; ".join(str(p) for p in problems)
        print(f"ACCEPTANCE {criterion}: FAIL - {text}")
        raise AssertionError(f"criterion {criterion}: {text}")
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def check(problems: list, condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def _series(times, supplied, baseline, interpolation=metrics.LINEAR):
    supplied = np.asarray(supplied, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    return NetworkSeries(
        network="water",
        times=np.asarray(times, dtype=float),
        consumers=tuple(f"c{i}" for i in range(supplied.shape[1])),
        supplied=supplied,
        baseline=baseline,
        interpolation=interpolation,
    )


def _scenario(failures, occurrence=3600.0):
    event = HazardEvent(kind="random", intensity="moderate",
                        count=max(len(failures), 1), occurrence_time=occurrence)
    rows = tuple(ComponentFailure(cid, occurrence, sev) for cid, sev in failures)
    return DisasterScenario(event=event, failures=rows, seed=0, intensity="moderate")


def test_criterion_1_metric_exactness():
    t_start = time.perf_counter()
    problems: list = []

    s = _series([0.0], [[1.0, 0.5]], [[1.0, 1.0]])
    check(problems, abs(metrics.ecs_curve(s)[0] - 0.75) <= 1e-9, "ECS of (1.0, 0.5) != 0.75")

    s = _series([0.0], [[5.0, 10.0]], [[10.0, 10.0]])
    check(problems, abs(metrics.pcs_curve(s)[0] - 0.75) <= 1e-9, "PCS of 15/20 != 0.75")

    s = _series([0.0], [[30.0, 0.0]], [[30.0, 10.0]])
    check(problems, abs(metrics.pcs_curve(s)[0] - 0.75) <= 1e-9, "size-weighted PCS != 0.75")
    check(problems, abs(metrics.ecs_curve(s)[0] - 0.5) <= 1e-9, "ECS contrast != 0.5")

    # closed form: half service for two hours is exactly one outage hour
    half = _series([0.0, 7200.0], [[0.5], [0.5]], [[1.0], [1.0]])
    eoh = metrics.system_eoh(half, 0.0, 7200.0, "pcs")
    check(problems, eoh == 1.0, f"2 h half-service EOH = {eoh!r}, expected exactly 1.0")

    dark = _series([0.0, 3600.0], [[0.0], [0.0]], [[1.0], [1.0]])
    check(problems, abs(metrics.system_eoh(dark, 0.0, 3600.0, "pcs") - 1.0) <= 1e-9,
          "1 h blackout EOH != 1.0")

    served = _series([0.0, 3600.0], [[1.0], [1.0]], [[1.0], [1.0]])
    check(problems, metrics.system_eoh(served, 0.0, 3600.0, "pcs") == 0.0,
          "full service EOH != 0")

    combined = metrics.weighted_eoh({"water": 2.0, "power": 4.0})
    check(problems, abs(combined - 3.0) <= 1e-9, "default weighted EOH != 3.0")

    half_consumer = _series([0.0, 14400.0], [[0.5], [0.5]], [[1.0], [1.0]])
    check(problems, abs(metrics.consumer_eoh(half_consumer, "c0", 0.0, 14400.0) - 2.0) <= 1e-9,
          "per-consumer EOH != 2.0")

    elapsed = time.perf_counter() - t_start
    check(problems, elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s")
    report(1, problems, f"metric unit values exact to 1e-9, half-service closed form "
                        f"exactly 1.0 h ({elapsed:.3f} s)")


def test_criterion_2_pressure_demand_closed_form():
    problems: list = []
    desired, p0, pf, e = 0.037, 0.0, 20.0, 2.0
    pressures = np.linspace(-5.0, 30.0, 100)
    got = pda_demand(pressures, desired, p0, pf, e)
    expected = desired * np.clip((pressures - p0) / (pf - p0), 0.0, 1.0) ** (1.0 / e)
    worst = float(np.abs(got - expected).max())
    check(problems, worst <= 1e-12, f"grid deviation {worst:.2e} exceeds 1e-12")

    d = 0.02
    eps = 1e-12
    check(problems, abs(pda_demand(p0, d) - pda_demand(p0 - eps, d)) <= 1e-9,
          "discontinuity approaching the zero-service pressure")
    check(problems, abs(pda_demand(p0 + 1e-16, d) - pda_demand(p0, d)) <= 1e-9,
          "discontinuity leaving the zero-service pressure")
    check(problems, abs(pda_demand(20.0, d) - pda_demand(20.0 - eps, d)) <= 1e-9,
          "discontinuity approaching the full-service pressure")
    check(problems, abs(pda_demand(20.0 + eps, d) - pda_demand(20.0, d)) <= 1e-9,
          "discontinuity leaving the full-service pressure")
    report(2, problems, "pressure-demand curve matches the closed form to 1e-12 "
                        "on a 100-point grid, continuous at both thresholds")


def test_criterion_3_solver_oracles(triangle_net, two_link_net, shed_net):
    t_start = time.perf_counter()
    problems: list = []

    # --- water: independent fsolve on the two nodal balance equations
    r1 = hazen_williams_r(800.0, 0.3, 120.0)
    r2 = hazen_williams_r(600.0, 0.25, 120.0)
    r12 = hazen_williams_r(400.0, 0.2, 120.0)
    flow = lambda dh, r: math.copysign(abs(dh / r) ** (1.0 / 1.852), dh)

    def balance(h):
        h1, h2 = h
        return [
            flow(15.0 - h1, r1) - flow(h1 - h2, r12) - pda_demand(h1, 0.02),
            flow(15.0 - h2, r2) + flow(h1 - h2, r12) - pda_demand(h2, 0.015),
        ]

    (h1, h2), _, ok, _ = fsolve(balance, [14.0, 14.0], full_output=True, xtol=1e-13)
    check(problems, ok == 1, "hand-equation root find did not converge")
    oracle_flows = {
        "P-R-1": flow(15.0 - h1, r1),
        "P-R-2": flow(15.0 - h2, r2),
        "P-1-2": flow(h1 - h2, r12),
    }
    state = solve_hydraulics(triangle_net, {}, 60.0, 60.0)[-1]
    for lid, q in oracle_flows.items():
        err = abs(state.link_flow[lid] - q)
        check(problems, err <= 1e-4, f"pipe {lid} flow off oracle by {err:.2e} m^3/s")

    # --- roads: analytic two-link user equilibrium via brentq
    t1 = lambda x: 100.0 * (1.0 + 0.15 * (x / 1000.0) ** 4)
    t2 = lambda x: 120.0 * (1.0 + 0.15 * (x / 800.0) ** 4)
    x1 = brentq(lambda x: t1(x) - t2(1500.0 - x), 0.0, 1500.0, xtol=1e-12)
    ue = assign_traffic(two_link_net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))
    for lid, target in (("R1", x1), ("R2", 1500.0 - x1)):
        rel = abs(ue.link_flow[lid] - target) / target
        check(problems, rel <= 0.01, f"road {lid} flow off equilibrium by {rel:.2%}")

    # --- power: binding import limit sheds exactly the overhang
    dispatch = solve_power(shed_net, {})
    served = sum(dispatch.served.values())
    check(problems, served == 50.0, f"served {served!r} MW, expected exactly 50.0")
    check(problems, dispatch.total_shed == 10.0,
          f"shed {dispatch.total_shed!r} MW, expected exactly 10.0")

    elapsed = time.perf_counter() - t_start
    check(problems, elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s")
    report(3, problems, f"hydraulic <=1e-4 m^3/s of root-find oracle, road split "
                        f"within 1% of analytic equilibrium, dispatch 50/10 exact "
                        f"({elapsed:.2f} s)")


def test_criterion_4_failure_frequency_statistics():
    t_start = time.perf_counter()
    problems: list = []

    radius = 1000.0
    distances = {"PD0": 0.0, "PD500": 500.0, "PD750": 750.0}
    comps = [Component("Z1", TRAFFIC, "zone_node", (0.0, 0.0))]
    for pid, d in distances.items():
        comps += [
            Component(f"A-{pid}", WATER, "reservoir", (d, -5.0), {"head": 15.0}),
            Component(f"B-{pid}", WATER, "demand_node", (d, 5.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component(pid, WATER, "pipe", (0, 0),
                      {"length": 10.0, "diameter": 0.2, "roughness": 120.0},
                      ends=(f"A-{pid}", f"B-{pid}")),
        ]
    net = IntegratedNetwork(comps, [])

    n_draws = 100_000
    for intensity in ("low", "moderate", "extreme"):
        event = HazardEvent(kind="point", intensity=intensity, center=(0.0, 0.0), radius=radius)
        counts = dict.fromkeys(distances, 0)
        for seed in range(n_draws):
            for f in sample_scenario(net, event, p_hazard=1.0, seed=seed).failures:
                counts[f.component_id] += 1
        for pid, d in distances.items():
            exposure = 1.0 - d / radius
            p = failure_probability(event, net, pid, p_hazard=1.0)
            se = math.sqrt(p * (1.0 - p) / n_draws)
            emp = counts[pid] / n_draws
            check(problems, abs(emp - p) <= 3.0 * se,
                  f"{intensity}/{d:.0f} m: empirical {emp:.5f} vs {p:.5f} "
                  f"outside 3 SE ({3 * se:.5f})")
            check(problems, abs(p - exposure * CONDITIONAL_FAILURE[intensity]) <= 1e-12,
                  f"{intensity}/{d:.0f} m: probability model mismatch")

    elapsed = time.perf_counter() - t_start
    check(problems, elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s")
    report(4, problems, f"9 (distance, intensity) frequencies within 3 binomial SE "
                        f"over {n_draws} seeded draws each ({elapsed:.1f} s)")


def test_criterion_5_interdependency_propagation(net):
    problems: list = []
    result = run_scenario(net, _scenario([("PL5", "full")]), "max_flow")
    end = result.event_table.of_action(ACTION_REPAIR_END)[0]

    power_pcs = pcs_curve(result.power)
    water_pcs = pcs_curve(result.water)

    hour = (result.water.times > 3600.0) & (result.water.times <= 7200.0)
    dip = float(water_pcs[hour].min())
    check(problems, dip < 1.0,
          f"water PCS stayed at {dip} within the first hour of the feeder outage")

    at_end = int(np.searchsorted(result.power.times, end.time))
    check(problems, abs(result.power.times[at_end] - end.time) <= 1e-9,
          "no power sample exactly at repair_end")
    check(problems, power_pcs[at_end] == 1.0,
          f"power PCS {power_pcs[at_end]!r} at repair_end, expected exactly 1.0")
    check(problems, power_pcs[at_end - 1] < 1.0, "power already whole before repair_end")

    power_recovery = end.time
    full = np.isclose(water_pcs, 1.0, atol=1e-9)
    after = result.water.times >= end.time
    candidates = result.water.times[after & full]
    check(problems, candidates.size > 0, "water never recovered")
    water_recovery = float(candidates.min()) if candidates.size else math.inf
    check(problems, water_recovery >= power_recovery,
          f"water recovered at {water_recovery} before power at {power_recovery}")
    report(5, problems, f"feeder outage dips water PCS to {dip:.3f} within an hour; "
                        f"power whole exactly at repair_end {power_recovery:.0f} s; "
                        f"water follows at {water_recovery:.0f} s (tank lag)")


def test_criterion_6_scheduling_traces(corridor_net, blockage_net):
    problems: list = []

    # arithmetic example: fail 3600, travel 600, duration 7200
    table = build_event_table(corridor_net, _scenario([("PW", "leak")]),
                              {WATER: ["PW"]}, durations={"pipe": 7200.0})
    start = table.of_action(ACTION_REPAIR_START)[0].time
    end = table.of_action(ACTION_REPAIR_END)[0].time
    check(problems, start == 4200.0, f"repair_start {start!r}, expected 4200.0")
    check(problems, end == 11400.0, f"repair_end {end!r}, expected 11400.0")

    # road blockage: the water crew must wait for the road repair to open the way
    trace = build_event_table(
        blockage_net,
        _scenario([("PW", "leak"), ("RL-Z2-Z3", "full")]),
        {WATER: ["PW"], TRAFFIC: ["RL-Z2-Z3"]},
        durations={"road_link": 1800.0, "pipe": 3600.0},
    )
    got = [(r.time, r.component_id, r.action, r.crew_id) for r in trace.rows]
    expected = [
        (3600.0, "PW", "fail", None),
        (3600.0, "RL-Z2-Z3", "fail", None),
        (3660.0, "RL-Z2-Z3", "repair_start", "traffic-crew-1"),
        (5460.0, "RL-Z2-Z3", "repair_end", "traffic-crew-1"),
        (5580.0, "PW", "repair_start", "water-crew-1"),
        (9180.0, "PW", "repair_end", "water-crew-1"),
    ]
    check(problems, got == expected, f"blockage trace {got} != hand trace {expected}")
    report(6, problems, "travel arithmetic start 4200/end 11400 exact; "
                        "blocked pipe deferred until the road repair, trace exact")


def test_criterion_7_mpc_dominance(net):
    t_start = time.perf_counter()
    problems: list = []

    pipes = ["WP-W1-W2", "WP-W1-W4", "WP-W2-W5"]
    scenario = _scenario([(p, "leak") for p in pipes])
    crews = default_crews(net)
    evaluate = make_weighted_eoh_evaluator(net, scenario, crews=crews)

    exhaustive = {
        perm: evaluate({WATER: list(perm)})
        for perm in itertools.permutations(pipes)
    }
    check(problems, len(exhaustive) == 6, "expected 6 permutations")
    best = min(exhaustive.values())

    mpc_result = run_scenario(net, scenario, "mpc", crews=crews, mpc_horizon=3)
    mpc_order = [
        r.component_id
        for r in mpc_result.event_table.of_action(ACTION_REPAIR_START)
        if r.component_id in set(pipes)
    ]
    mpc_score = evaluate({WATER: mpc_order})
    check(problems, mpc_score == best,
          f"mpc score {mpc_score!r} != exhaustive minimum {best!r}")

    failed = set(pipes)
    context = build_planning_context(net, crews, failed)
    for strategy in ("max_flow", "centrality", "crew_distance", "zone"):
        order = rank_components(net, failed, strategy, context)
        score = evaluate(order)
        check(problems, mpc_score <= score,
              f"{strategy} ({score!r}) beats mpc ({mpc_score!r})")

    elapsed = time.perf_counter() - t_start
    check(problems, elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 2 min")
    report(7, problems, f"mpc k=3 ties the exhaustive minimum ({best:.6f} h) exactly "
                        f"and dominates all four heuristics ({elapsed:.1f} s)")


def test_criterion_8_batch_pipeline(tmp_path):
    t_start = time.perf_counter()
    problems: list = []

    out = tmp_path / "batch50"
    code = cli.main([
        "batch", "--network", "builtin:simple",
        "--hazard", "random", "--count", "3", "--intensity", "random",
        "--seed", "100", "--scenarios", "50",
        "--strategy", "max_flow,centrality,zone",
        "--out", str(out),
    ])
    check(problems, code == 0, f"batch exited with {code}")

    stats = json.loads((out / "stats.json").read_text())
    check(problems, stats["n_completed"] == 50, "incomplete batch")
    check(problems, stats["failed_scenarios"] == [], "scenario failures recorded")
    check(problems, stats["seeds"] == list(range(100, 150)), "seed layout broken")

    for family in ("water", "power", "weighted"):
        block = stats["networks"][family]
        matrix = np.asarray(block["matrix"], dtype=float)
        check(problems, matrix.shape == (50, 3), f"{family} matrix not 50x3")
        check(problems, not np.isnan(matrix).any(), f"{family} matrix has holes")
        check(problems, block["anova"] is not None, f"{family} ANOVA missing")
        check(problems, len(block["posthoc"]) == 3, f"{family} post-hoc incomplete")
        check(problems, all("p_adjusted" in row for row in block["posthoc"]),
              f"{family} post-hoc lacks adjusted p-values")

    # spreadsheet-style F on an extracted 3x3 submatrix: explicit sums only
    full = np.asarray(stats["networks"]["water"]["matrix"], dtype=float)
    varied = [i for i in range(full.shape[0]) if not np.allclose(full[i], full[i, 0])]
    rows = (varied + [i for i in range(full.shape[0]) if i not in varied])[:3]
    sub = full[sorted(rows)]
    n, k = sub.shape
    grand = sub.sum() / sub.size
    ss_strategy = n * sum((sub[:, j].sum() / n - grand) ** 2 for j in range(k))
    ss_subject = k * sum((sub[i, :].sum() / k - grand) ** 2 for i in range(n))
    ss_total = sum((sub[i, j] - grand) ** 2 for i in range(n) for j in range(k))
    ss_error = ss_total - ss_strategy - ss_subject
    f_hand = (ss_strategy / (k - 1)) / (ss_error / ((k - 1) * (n - 1)))
    f_lib = metrics.repeated_measures_anova(sub).f_statistic
    check(problems, math.isfinite(f_hand), "extracted submatrix degenerate")
    check(problems, abs(f_lib - f_hand) <= 1e-9,
          f"ANOVA F {f_lib!r} differs from spreadsheet value {f_hand!r}")

    elapsed = time.perf_counter() - t_start
    check(problems, elapsed < 600.0, f"runtime {elapsed:.0f} s exceeds 10 min")
    report(8, problems, f"50-scenario x 3-strategy batch complete with paired matrix, "
                        f"ANOVA, and BH post-hoc; 3x3 F check |diff| <= 1e-9 "
                        f"({elapsed:.0f} s)")


def test_criterion_9_batch_determinism(tmp_path):
    problems: list = []
    config = [
        "batch", "--network", "builtin:simple",
        "--hazard", "random", "--count", "2", "--intensity", "random",
        "--seed", "3", "--scenarios", "6", "--strategy", "max_flow,zone",
    ]
    for tag in ("first", "second"):
        code = cli.main(config + ["--out", str(tmp_path / tag)])
        check(problems, code == 0, f"{tag} batch exited with {code}")
    for name in ("batch_summary.csv", "stats.json"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        check(problems, a == b, f"{name} differs between identical runs")

    run_config = [
        "run", "--network", "builtin:simple",
        "--hazard", "random", "--count", "3", "--seed", "11",
    ]
    for tag in ("run_a", "run_b"):
        cli.main(run_config + ["--out", str(tmp_path / tag)])
    for name in ("event_table.csv", "performance.csv", "report.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        check(problems, a == b, f"{name} differs between identical runs")
    report(9, problems, "repeated batch and single-run invocations byte-identical")
