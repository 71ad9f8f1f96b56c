"""Invariants of whole runs over sampled scenarios and every strategy."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifelinesim import simulation
from lifelinesim.hazard import INTENSITIES, HazardEvent, sample_scenario
from lifelinesim.metrics import ecs_curve, pcs_curve
from lifelinesim.network import POWER, WATER
from lifelinesim.recovery import STRATEGIES, default_crews
from lifelinesim.simulation import ACTION_REPAIR_END, run_scenario
from lifelinesim.testbed import build_simple_testbed

# one network for every example, as a batch shares it
NET = build_simple_testbed()

scenarios = st.builds(
    lambda seed, count, intensity, occurrence: sample_scenario(
        NET,
        HazardEvent(kind="random", intensity=intensity, count=count, occurrence_time=occurrence),
        seed=seed,
    ),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 8),
    intensity=st.sampled_from(INTENSITIES + ("random",)),
    occurrence=st.integers(0, 7200).map(float),
)


def _crews(per_network):
    """``default_crews`` with ``per_network`` crews on each network."""
    crews = default_crews(NET)
    return [replace(c, id=f"{c.network}-crew-{k}") for k in range(1, per_network + 1) for c in crews]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(scenario=scenarios, per_network=st.integers(1, 2))
def test_runs_keep_their_invariants(scenario, per_network):
    for strategy in STRATEGIES:
        result = run_scenario(NET, scenario, strategy, crews=_crews(per_network))
        assert result.event_table.validate() == [], strategy
        repaired = {r.component_id for r in result.event_table.of_action(ACTION_REPAIR_END)}
        assert repaired == {f.component_id for f in scenario.failures}, strategy
        for network in (WATER, POWER):
            series = result.series(network)
            for curve in (pcs_curve(series), ecs_curve(series)):
                assert np.all((curve >= 0.0) & (curve <= 1.0)), (strategy, network)
            for measure in ("pcs", "ecs"):
                assert 0.0 <= result.eoh(network, measure) <= result.horizon / 3600.0
        end = result.event_table.last_repair_end()
        if end is None:
            continue
        # once every repair has ended, dispatch is back on its baseline at
        # once; water is by the horizon, a day later (tanks refill first)
        power = result.power
        after = power.times >= end
        np.testing.assert_array_equal(power.supplied[after], power.baseline[after])
        np.testing.assert_array_equal(result.water.supplied[-1], result.water.baseline[-1])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    strategies=st.lists(st.sampled_from(("max_flow", "centrality", "zone", "mpc")), min_size=1, max_size=4, unique=True),
)
def test_runs_sharing_a_store_equal_storeless_runs(seed, strategies):
    # whatever the order, a strategy that follows others through one
    # replay store gets the result it would get alone
    scenario = sample_scenario(NET, HazardEvent(kind="random", intensity="extreme", count=3), seed=seed)
    store: dict = {}
    for strategy in strategies:
        shared = run_scenario(NET, scenario, strategy, store=store)
        alone = run_scenario(NET, scenario, strategy)
        for network in (WATER, POWER):
            a, b = shared.series(network), alone.series(network)
            assert np.array_equal(a.times, b.times) and np.array_equal(a.supplied, b.supplied), network
        assert shared.weighted_eoh() == alone.weighted_eoh(), strategy


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    count=st.integers(2, 6),
    horizon=st.sampled_from((1, 2)),
    per_network=st.integers(1, 2),
    water_free=st.sampled_from((0.0, 3e5)),
)
# where each candidate was scored as a cut order, with the rest of its
# network left failed, mpc read 3.593 > 3.446 h and 7.120 > 7.039 h
@example(seed=527, count=6, horizon=1, per_network=1, water_free=0.0)
@example(seed=624, count=10, horizon=2, per_network=1, water_free=0.0)
# where the evaluator's horizon counted from the occurrence time, not from
# when the late water crew comes free, mpc raised while max_flow ran
@example(seed=1, count=6, horizon=2, per_network=1, water_free=3e5)
def test_mpc_never_scores_above_max_flow(seed, count, horizon, per_network, water_free):
    # both orders are scored by the mpc run's own evaluator, at its horizon;
    # the first water crew is busy until ``water_free``
    scenario = sample_scenario(NET, HazardEvent(kind="random", intensity="extreme", count=count), seed=seed)
    crews = [replace(c, busy_until=water_free) if c.id == "water-crew-1" else c for c in _crews(per_network)]
    search = simulation.mpc_sequence
    scores = []

    def recorded(base, horizon, evaluate):
        order = search(base, horizon, evaluate)
        scores.append((evaluate(order), evaluate(base)))
        return order

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulation, "mpc_sequence", recorded)
        run_scenario(NET, scenario, "mpc", mpc_horizon=horizon, crews=crews)
    ((mpc, max_flow),) = scores
    assert mpc <= max_flow
