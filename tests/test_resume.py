"""An mpc run resumes its candidate replays and its final run from one
snapshot store; each equals a fresh replay, and the store dies with the
run. (Resumption across horizons and the dry-tank coupling are tested in
``test_simulation.py``.)"""

import numpy as np
import pytest

from lifelinesim import simulation
from lifelinesim.hazard import HazardEvent, sample_scenario
from lifelinesim.simulation import run_scenario
from lifelinesim.testbed import build_simple_testbed

MEMO_KINDS = {"water_system", "baseline_water", "dispatch", "link_times", "peak_flow", "betweenness"}


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


def _count_resumes(monkeypatch):
    resumes = []
    resume = simulation._Replay.resume

    def counted(replay, snapshot):
        resume(replay, snapshot)
        resumes.append(len(replay.water_times))  # minutes it need not replay

    monkeypatch.setattr(simulation._Replay, "resume", counted)
    return resumes


@pytest.mark.parametrize("seed", [1, 2, 12])
def test_mpc_replays_match_fresh_replays(monkeypatch, seed):
    net = build_simple_testbed()
    scenario = _mpc_scenario(net, seed)
    calls = []
    real = simulation.simulate

    def recording(net, table, horizon=None, snapshots=None):
        result = real(net, table, horizon, snapshots)
        calls.append((table, horizon, snapshots, result))
        return result

    monkeypatch.setattr(simulation, "simulate", recording)
    resumes = _count_resumes(monkeypatch)
    final = run_scenario(net, scenario, "mpc")

    assert calls[-1][3] is final
    assert len({table.rows for table, *_ in calls[:-1]}) == len(calls) - 1  # each ledger scored once
    assert len({id(store) for *_, store, _ in calls}) == 1 and calls[0][2] is not None
    # every replay after the first skips at least the minutes before the
    # first repair, which all candidates share
    assert len(resumes) == len(calls) - 1 and min(resumes) > 0
    for table, horizon, _, result in calls:
        _assert_same_replay(result, real(build_simple_testbed(), table, horizon))


def test_mpc_choices_do_not_depend_on_the_store(monkeypatch):
    net = build_simple_testbed()
    scenario = _mpc_scenario(net, 1)
    with_store = run_scenario(net, scenario, "mpc")
    real = simulation.simulate
    monkeypatch.setattr(
        simulation, "simulate", lambda net, table, horizon=None, snapshots=None: real(net, table, horizon)
    )
    resumes = _count_resumes(monkeypatch)
    without = run_scenario(build_simple_testbed(), scenario, "mpc")
    assert not resumes
    assert with_store.event_table == without.event_table
    _assert_same_replay(with_store, without)


def test_no_snapshot_outlives_the_run():
    net = build_simple_testbed()
    run_scenario(net, _mpc_scenario(net, 2), "mpc")
    assert {key[0] for key in net._memo} <= MEMO_KINDS


def test_runs_without_a_store_take_no_snapshots(monkeypatch):
    def refuse(replay):
        raise AssertionError("snapshot taken without a store")

    monkeypatch.setattr(simulation._Replay, "snapshot", refuse)
    net = build_simple_testbed()
    run_scenario(net, _mpc_scenario(net, 1), "max_flow")
