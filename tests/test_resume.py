"""An mpc run scores each distinct candidate ledger once and keeps only
its score, and the strategies of a batch scenario, mpc's final run
included, share one replay store; each result equals a fresh replay, a
repeated ledger returns the stored result, and the store's results die
with the scenario. The replays share their Newton solves through the
network's Newton table, which keeps them within its bound. (Stores
shared across horizons and the dry-tank coupling are tested in
``test_simulation.py``.)"""

import gc
import weakref

import numpy as np
import pytest

from lifelinesim import cli, hydraulics, simulation
from lifelinesim.hazard import HazardEvent, sample_scenario
from lifelinesim.hydraulics import WaterSimulator
from lifelinesim.simulation import EventTable, run_scenario
from lifelinesim.testbed import build_simple_testbed

# the first element of every network memo key; test_hygiene checks that
# this is exactly the set of kinds the package passes to ``cached``
MEMO_KINDS = {
    "water_system", "newton_table", "baseline_water", "dispatch", "link_times", "peak_flow", "betweenness",
    "road_graph", "access_node", "crew_distances",
}


def _mpc_scenario(net, seed):
    event = HazardEvent(kind="random", intensity="extreme", count=6)
    scenario = sample_scenario(net, event, seed=seed)
    assert len(scenario.failures) == 6
    return scenario


def _assert_same_replay(got, want):
    for network in ("water", "power"):
        a, b = got.series(network), want.series(network)
        assert np.array_equal(a.times, b.times), network
        assert np.array_equal(a.supplied, b.supplied), network
    assert got.weighted_eoh() == want.weighted_eoh()


def _newton_results(monkeypatch):
    """Weak references to the flows of every Newton run, which the
    network's Newton table holds."""
    refs = []
    newton = WaterSimulator._newton

    def recorded(*args):
        solution = newton(*args)
        refs.append(weakref.ref(solution[0]))
        return solution

    monkeypatch.setattr(WaterSimulator, "_newton", staticmethod(recorded))
    return refs


def _assert_only_newton_results_kept(net, calls, refs):
    """Once ``calls`` drops the results of a run's replay store, they die
    with the store; the run's Newton results stay in the network's Newton
    table, within its bound (which a run this small does not reach)."""
    results = [weakref.ref(result) for *_, result in calls]
    del calls[:]
    gc.collect()
    assert results and all(ref() is None for ref in results)
    table = net._memo[("newton_table",)]
    assert refs and {id(ref()) for ref in refs} == {id(q) for q, _, _, _ in table.values()}
    assert table.nbytes <= hydraulics._NEWTON_TABLE_BYTES
    assert {key[0] for key in net._memo} <= MEMO_KINDS


def _recording_simulate(monkeypatch):
    calls = []
    real = simulation.simulate

    def recording(net, table, horizon=None, store=None):
        result = real(net, table, horizon, store)
        calls.append((table, horizon, store, result))
        return result

    monkeypatch.setattr(simulation, "simulate", recording)
    return calls, real


@pytest.mark.parametrize("seed", [1, 2, 12])
def test_mpc_replays_match_fresh_replays(monkeypatch, seed):
    net = build_simple_testbed()
    scenario = _mpc_scenario(net, seed)
    calls, real = _recording_simulate(monkeypatch)
    final = run_scenario(net, scenario, "mpc")

    assert calls[-1][3] is final
    # the candidates are simulated without a store, each distinct ledger once
    candidates = calls[:-1]
    assert candidates and all(store is None for _, _, store, _ in candidates)
    keys = [(table.rows, horizon) for table, horizon, _, _ in candidates]
    assert len(set(keys)) == len(keys)
    for table, horizon, _, result in calls:
        _assert_same_replay(result, real(build_simple_testbed(), table, horizon))


@pytest.mark.parametrize("seed", [1, 2, 12])
def test_mpc_scores_each_distinct_ledger_once(monkeypatch, seed):
    net = build_simple_testbed()
    scenario = _mpc_scenario(net, seed)
    ledgers = []
    build = simulation.build_event_table

    def recording(*args, **kwargs):
        table = build(*args, **kwargs)
        ledgers.append(table.rows)
        return table

    monkeypatch.setattr(simulation, "build_event_table", recording)
    scored = []
    weighted_eoh = simulation.SimulationResult.weighted_eoh

    def scoring(result, *args):
        scored.append(result.event_table.rows)
        return weighted_eoh(result, *args)

    monkeypatch.setattr(simulation.SimulationResult, "weighted_eoh", scoring)
    run_scenario(net, scenario, "mpc")
    candidates = ledgers[:-1]  # the last ledger is the final run's
    assert len(set(candidates)) < len(candidates)  # the search meets a ledger again
    assert scored == list(dict.fromkeys(candidates))  # each when first met


def test_no_candidate_result_outlives_its_score(monkeypatch):
    net = build_simple_testbed()
    results = []
    real = simulation.simulate

    def checked(net, table, horizon=None, store=None):
        gc.collect()
        assert all(ref() is None for ref in results), "an earlier candidate's result is alive"
        result = real(net, table, horizon, store)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(simulation, "simulate", checked)
    run_scenario(net, _mpc_scenario(net, 1), "mpc")
    assert len(results) > 2


def test_mpc_choices_do_not_depend_on_the_store(monkeypatch):
    net = build_simple_testbed()
    scenario = _mpc_scenario(net, 1)
    with_store = run_scenario(net, scenario, "mpc")
    real = simulation.simulate
    monkeypatch.setattr(
        simulation, "simulate", lambda net, table, horizon=None, store=None: real(net, table, horizon)
    )
    without = run_scenario(build_simple_testbed(), scenario, "mpc")
    assert with_store.event_table == without.event_table
    _assert_same_replay(with_store, without)


def test_no_snapshot_outlives_the_run(monkeypatch):
    net = build_simple_testbed()
    calls, _ = _recording_simulate(monkeypatch)
    refs = _newton_results(monkeypatch)
    run_scenario(net, _mpc_scenario(net, 2), "mpc")
    _assert_only_newton_results_kept(net, calls, refs)


def test_mpc_candidates_share_newton_solves(monkeypatch):
    # the network's Newton table keeps each distinct Newton solve:
    # candidates that differ only in rows the water state ignores, and
    # time-shifted copies of one water trajectory, run none again
    calls = []
    solve_system = WaterSimulator._solve_system
    monkeypatch.setattr(WaterSimulator, "_solve_system", lambda sim, *a: calls.append(1) or solve_system(sim, *a))
    refs = _newton_results(monkeypatch)
    net = build_simple_testbed()
    run_scenario(net, _mpc_scenario(net, 1), "mpc")
    assert len(calls) - len(refs) >= 0.4 * len(calls)


BATCH_STRATEGIES = ("max_flow", "centrality", "zone")


@pytest.mark.parametrize("seed", range(100, 116))
def test_batch_strategies_share_one_store(monkeypatch, seed):
    net = build_simple_testbed()
    event = HazardEvent(kind="random", intensity="random", count=3)
    scenario = sample_scenario(net, event, seed=seed)
    calls, real = _recording_simulate(monkeypatch)
    store: dict = {}
    by_ledger = {}
    for strategy in BATCH_STRATEGIES:
        result = run_scenario(net, scenario, strategy, store=store)
        assert calls[-1][3] is result and calls[-1][2] is store
        # strategies that produce one ledger share its stored result
        assert by_ledger.setdefault(result.event_table.rows, result) is result
        _assert_same_replay(result, real(build_simple_testbed(), result.event_table))


def test_mpc_after_a_heuristic_resumes_from_its_replay(monkeypatch):
    net, alone = build_simple_testbed(), build_simple_testbed()
    scenario = _mpc_scenario(net, 1)
    run_scenario(alone, scenario, "max_flow")
    del alone._memo[("newton_table",)]  # the same network memos but Newton's, no shared store
    calls, real = _recording_simulate(monkeypatch)
    store: dict = {}
    run_scenario(net, scenario, "max_flow", store=store)
    refs = _newton_results(monkeypatch)
    final = run_scenario(net, scenario, "mpc", store=store)
    # the heuristic's run and mpc's final run go through the caller's
    # store, and the candidates through none
    stores = [kept for _, _, kept, _ in calls]
    assert stores[0] is store and stores[-1] is store and len(stores) > 2
    assert all(kept is None for kept in stores[1:-1])
    # the candidates rerun none of the Newton solves the max_flow replay
    # ran, such as those before the first repair, which every ledger shares
    shared = len(refs)
    run_scenario(alone, scenario, "mpc")
    assert shared < len(refs) - shared  # the Newton runs of the same mpc run alone
    _assert_same_replay(final, real(build_simple_testbed(), final.event_table))


def test_a_batch_scenario_shares_one_store_that_dies_with_it(monkeypatch):
    net = build_simple_testbed()
    event = HazardEvent(kind="random", intensity="extreme", count=6)
    calls, _ = _recording_simulate(monkeypatch)
    refs = _newton_results(monkeypatch)
    record = cli._batch_worker((net, 0, 2, ["max_flow", "zone", "mpc"], event, 1.0, 2))
    assert "error" not in record
    # the two heuristics and mpc's final run share the scenario's store;
    # mpc's candidates go through none
    stores = [None if store is None else id(store) for _, _, store, _ in calls]
    assert stores[0] is not None and stores[1] == stores[0] == stores[-1]
    assert len(stores) > 3 and set(stores[2:-1]) == {None}
    _assert_only_newton_results_kept(net, calls, refs)


@pytest.mark.parametrize("horizon", ["default", "last_event", "off_grid"])
def test_a_repeated_ledger_returns_the_stored_result(monkeypatch, horizon):
    # a horizon at the last event applies rows there, and an off-grid one
    # is sampled off the minute grid
    net = build_simple_testbed()
    scenario = sample_scenario(net, HazardEvent(kind="random", intensity="random", count=3), seed=100)
    table = run_scenario(net, scenario, "max_flow").event_table
    horizon = {
        "default": simulation.default_horizon(table),
        "last_event": table.last_time(),
        "off_grid": simulation.default_horizon(table) + 30.5,
    }[horizon]
    store: dict = {}
    once = simulation.simulate(net, table, horizon, store)

    def refuse(*args, **kwargs):
        raise AssertionError("a repeated ledger was replayed")

    monkeypatch.setattr(simulation, "_Replay", refuse)
    monkeypatch.setattr(WaterSimulator, "solve", refuse)
    again = simulation.simulate(net, EventTable(table.rows), horizon, store)
    assert again is once
    for network in ("water", "power"):
        series = again.series(network)
        for array in (series.times, series.supplied, series.baseline):
            with pytest.raises(ValueError):
                array[0] = 0.0
    monkeypatch.undo()
    _assert_same_replay(once, simulation.simulate(build_simple_testbed(), table, horizon))
