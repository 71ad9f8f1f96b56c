"""Work done once instead of every time gives the same runs: the
per-network memo (runs on a reused network equal runs without a memo),
the bound of its Newton table and the jump over frozen water minutes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lifelinesim import cli, hydraulics, recovery, simulation
from lifelinesim.hazard import ComponentFailure, DisasterScenario, HazardEvent
from lifelinesim.hydraulics import WaterSimulator
from lifelinesim.network import IN_SERVICE, POWER, TRAFFIC, IntegratedNetwork
from lifelinesim.powerflow import dispatch_key, solve_power
from lifelinesim.recovery import build_planning_context, default_crews
from lifelinesim.simulation import (
    ACTION_REPAIR_END,
    EventTable,
    _baseline_water,
    _dispatch,
    _run_series,
    build_event_table,
    run_scenario,
    simulate,
)
from lifelinesim.testbed import build_simple_testbed
from lifelinesim.traffic import assign_traffic

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
    # the memo's peak flows are handed out read-only, as its crew tables are
    for table in (first.peak_flow, first.crew_travel[TRAFFIC]):
        with pytest.raises(TypeError):
            table["PL5"] = 1e9
    with pytest.raises(TypeError):
        del first.peak_flow["WP-W2-W5"]

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


def test_restored_power_dispatches_once_with_the_undisrupted_state(monkeypatch):
    net = build_simple_testbed()
    calls = []

    def counted(net, statuses=None, forced_off=None):
        calls.append(dispatch_key(net, statuses, forced_off))
        return solve_power(net, statuses, forced_off=forced_off)

    for module in (recovery, simulation):
        monkeypatch.setattr(module, "solve_power", counted)
    result = run_scenario(net, _scenario(), "max_flow")
    (end,) = [r.time for r in result.event_table.of_action(ACTION_REPAIR_END) if r.component_id == "PL5"]
    assert end < result.horizon
    # the repairs restore PL5, so the last state keys like the first
    assert calls.count(dispatch_key(net)) == 1
    assert len(calls) == len(set(calls))


def test_status_keyed_entries_are_solved_from_their_keys(monkeypatch):
    # each dispatch and assignment a run solves reads the statuses its
    # memo key maps back to, not the map the key was made from
    net = build_simple_testbed()
    solved = []

    def recorded(solver, network):
        def solve(net, statuses=None, *args, **kwargs):
            solved.append((network, statuses))
            return solver(net, statuses, *args, **kwargs)
        return solve

    for module in (recovery, simulation):
        monkeypatch.setattr(module, "solve_power", recorded(solve_power, POWER))
        monkeypatch.setattr(module, "assign_traffic", recorded(assign_traffic, TRAFFIC))
    run_scenario(net, _scenario(), "max_flow")
    assert {network for network, _ in solved} == {POWER, TRAFFIC}
    for network, statuses in solved:
        assert statuses == net.key_statuses(net.service_key(network, statuses or {})), network


def _marked_failed(component_id: str) -> IntegratedNetwork:
    """The testbed with one component marked failed by the network itself."""
    base = build_simple_testbed()
    comps = [replace(c, status="failed") if c.id == component_id else c for c in base.components]
    return IntegratedNetwork(comps, base.dependencies, base.od_matrix, base.zone_priority)


def test_repaired_keys_like_never_failed_unless_the_network_marks_it_failed():
    net = build_simple_testbed()
    assert net.service_key(POWER, {"PL5": "repaired"}) == net.service_key(POWER, {}) == frozenset()
    assert _dispatch(net, {"PL5": "repaired"}) is _dispatch(net, {})

    marked = _marked_failed("PL5")
    assert marked.component("PL5").status not in IN_SERVICE
    assert marked.service_key(POWER, {"PL5": "repaired"}) == {("PL5", True)}
    assert marked.service_key(POWER, {"PL5": "failed"}) == marked.service_key(POWER, {}) == frozenset()
    restored, unrepaired = _dispatch(marked, {"PL5": "repaired"}), _dispatch(marked, {})
    assert restored == solve_power(build_simple_testbed(), {})
    assert unrepaired == solve_power(build_simple_testbed(), {"PL5": "failed"})
    assert restored != unrepaired
    assert sum(key[0] == "dispatch" for key in marked._memo) == 2


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


def _batch(make_net):
    """The records of a testbed batch whose scenarios run on ``make_net()``."""
    event = HazardEvent(kind="random", intensity="extreme", count=4)
    strategies = ["max_flow", "centrality", "zone", "mpc"]
    # 2 to 4 failures each; centrality's order differs from the others' at 105
    seeds = (100, 101, 105, 107)
    return [cli._batch_worker((make_net(), k, seed, strategies, event, 1.0, 2)) for k, seed in enumerate(seeds)]


def _entry_bytes(table) -> list[int]:
    return [len(k[1]) + len(k[2]) + len(k[3]) + s[0].nbytes + s[1].nbytes for k, s in table.items()]


def test_newton_table_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(hydraulics, "_NEWTON_TABLE_BYTES", 20_000)
    added, add = [], hydraulics._NewtonTable.add

    def checked(table, key, solution):
        add(table, key, solution)
        added.append(key)
        assert table.nbytes == sum(_entry_bytes(table)) <= hydraulics._NEWTON_TABLE_BYTES

    monkeypatch.setattr(hydraulics._NewtonTable, "add", checked)
    net = build_simple_testbed()
    records = _batch(lambda: net)
    assert all("error" not in r for r in records)
    assert 0 < len(net._memo[("newton_table",)]) < len(added)  # it evicted


def test_bounded_newton_table_changes_no_batch_output(monkeypatch):
    monkeypatch.setattr(hydraulics, "_NEWTON_TABLE_BYTES", math.inf)
    net = build_simple_testbed()
    unbounded = _batch(lambda: net)
    table = net._memo[("newton_table",)]
    # a bound of a few entries evicts almost every one of them
    monkeypatch.setattr(hydraulics, "_NEWTON_TABLE_BYTES", 3 * max(_entry_bytes(table)))
    net = build_simple_testbed()
    bounded = _batch(lambda: net)
    assert len(net._memo[("newton_table",)]) <= 3 < len(table)
    assert all("error" not in r for r in unbounded)
    assert bounded == unbounded == _batch(_unmemoized)
