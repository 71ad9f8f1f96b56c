"""Work done once instead of every time gives the same runs: the
per-network memo (runs on a reused network equal runs without a memo)
and the jump over frozen water minutes."""

import numpy as np
import pytest

from lifelinesim.hazard import ComponentFailure, DisasterScenario, HazardEvent
from lifelinesim.hydraulics import WaterSimulator
from lifelinesim.powerflow import solve_power
from lifelinesim.recovery import build_planning_context, default_crews
from lifelinesim.simulation import (
    EventTable,
    _baseline_water,
    _dispatch,
    _run_series,
    build_event_table,
    run_scenario,
    simulate,
)
from lifelinesim.testbed import build_simple_testbed

FAILURES = (
    ("PL5", "full"), ("TL-T3-T2", "full"), ("TL-T6-T5", "full"),
    ("WP-W2-W5", "leak"), ("WP-W6-W9", "leak"),
)
STRATEGY_ORDER = ("max_flow", "centrality", "crew_distance", "zone", "mpc")


def _scenario(failures=FAILURES, occurrence=3600.0):
    event = HazardEvent(kind="random", intensity="moderate", count=len(failures),
                        occurrence_time=occurrence)
    rows = tuple(ComponentFailure(cid, occurrence, sev) for cid, sev in failures)
    return DisasterScenario(event=event, failures=rows, seed=0, intensity="moderate")


class _KeepsNothing(dict):
    def __setitem__(self, key, value):
        pass


def _unmemoized():
    """A fresh testbed that solves everything it is asked, every time."""
    net = build_simple_testbed()
    net._memo = _KeepsNothing()
    return net


def _assert_same_result(got, want):
    assert got.event_table == want.event_table
    assert got.horizon == want.horizon
    for network in ("water", "power"):
        a, b = got.series(network), want.series(network)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.supplied, b.supplied)
        np.testing.assert_array_equal(a.baseline, b.baseline)
        assert got.eoh(network) == want.eoh(network)
    assert got.weighted_eoh() == want.weighted_eoh()


@pytest.fixture(scope="module")
def fresh_results():
    scenario = _scenario()
    return {s: run_scenario(_unmemoized(), scenario, s) for s in STRATEGY_ORDER}


@pytest.mark.parametrize("order", [STRATEGY_ORDER, STRATEGY_ORDER[::-1]], ids=["forward", "reverse"])
def test_reused_network_matches_fresh_networks(order, fresh_results):
    net = build_simple_testbed()
    scenario = _scenario()
    for strategy in order:
        _assert_same_result(run_scenario(net, scenario, strategy), fresh_results[strategy])


def test_baseline_horizons_match_fresh_runs():
    scenario = _scenario(FAILURES[:1])
    table = build_event_table(build_simple_testbed(), scenario, {"power": ["PL5"]})
    net = build_simple_testbed()
    # on grid, then longer than the kept baseline, then off grid and a prefix below it
    for horizon in (30000.0, 40020.0, 30030.5, 36000.0):
        _assert_same_result(
            simulate(net, table, horizon=horizon),
            simulate(_unmemoized(), table, horizon=horizon),
        )
        ids, times, rows = _baseline_water(net, horizon)
        want_ids, want_times, want_rows, _, _, _ = _run_series(
            build_simple_testbed(), EventTable(()), horizon
        )
        assert ids == want_ids
        np.testing.assert_array_equal(times, want_times)
        np.testing.assert_array_equal(rows, want_rows)


def test_mutating_a_context_leaves_later_runs_alone():
    net = build_simple_testbed()
    scenario = _scenario()
    failed = {f.component_id for f in scenario.failures}
    want = build_planning_context(_unmemoized(), default_crews(net), failed)

    first = build_planning_context(net, default_crews(net), failed)
    first.peak_flow["PL5"] = 1e9
    first.peak_flow.pop("WP-W2-W5")

    assert build_planning_context(net, default_crews(net), failed).peak_flow == want.peak_flow
    _assert_same_result(
        run_scenario(net, scenario, "max_flow"),
        run_scenario(_unmemoized(), scenario, "max_flow"),
    )


def test_dispatch_memo_keeps_forced_off_sources_apart():
    net = build_simple_testbed()
    assert _dispatch(net, {}) == solve_power(build_simple_testbed(), {})
    forced = _dispatch(net, {}, {"PG1"})
    assert forced.generation["PG1"] == 0.0
    assert forced == solve_power(build_simple_testbed(), {}, forced_off={"PG1"})


def test_compiled_water_systems_are_shared():
    net = build_simple_testbed()
    run_scenario(net, _scenario(), "max_flow")
    systems = {k: v for k, v in net._memo.items() if k[0] == "water_system"}
    assert systems
    # a second run meets only topologies it has already compiled
    run_scenario(net, _scenario(), "zone")
    assert all(net._memo[k] is v for k, v in systems.items())


@pytest.mark.parametrize(
    "failures, strategy",
    [(FAILURES, "max_flow"), ((("WPU1", "full"),), "max_flow"), (FAILURES[:3], "mpc")],
    ids=["failures", "tank-drain", "mpc"],
)
def test_jumping_frozen_minutes_matches_stepping_them(monkeypatch, failures, strategy):
    scenario = _scenario(failures)
    is_frozen = WaterSimulator.is_frozen
    seen = []

    def counted(sim):
        seen.append(is_frozen(sim))
        return seen[-1]

    monkeypatch.setattr(WaterSimulator, "is_frozen", counted)
    jumped = run_scenario(build_simple_testbed(), scenario, strategy)
    assert any(seen)
    monkeypatch.setattr(WaterSimulator, "is_frozen", lambda sim: False)
    _assert_same_result(run_scenario(build_simple_testbed(), scenario, strategy), jumped)
