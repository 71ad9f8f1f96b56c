"""Event-table scheduling and the interdependent replay loop."""

import numpy as np
import pytest

from lifelinesim import simulation
from lifelinesim.hazard import ComponentFailure, DisasterScenario, HazardEvent
from lifelinesim.metrics import pcs, pcs_curve
from lifelinesim.network import POWER, TRAFFIC, WATER, Component, Dependency, IntegratedNetwork
from lifelinesim.recovery import Crew, RecoveryError
from lifelinesim.simulation import (
    ACTION_FAIL,
    ACTION_REPAIR_END,
    ACTION_REPAIR_START,
    EventRow,
    EventTable,
    SimulationError,
    build_event_table,
    default_horizon,
    run_scenario,
    simulate,
)
from lifelinesim.testbed import build_simple_testbed

# Feeder-line scenario on the built-in testbed, hand-checked end to end:
# the line crew leaves T5 at t=3600 and the repair closes at this time.
PL5_REPAIR_END = 14473.048735418399
# First one-minute sample where water service is fully restored (tank lag).
PL5_WATER_RECOVERY = 15900.0


def _scenario(failures, occurrence=3600.0):
    event = HazardEvent(kind="random", intensity="moderate", count=max(len(failures), 1),
                        occurrence_time=occurrence)
    rows = tuple(ComponentFailure(cid, occurrence, sev) for cid, sev in failures)
    return DisasterScenario(event=event, failures=rows, seed=0, intensity="moderate")


def _road(comps, a, b, t0=60.0):
    for frm, to in ((a, b), (b, a)):
        comps.append(Component(f"RL-{frm}-{to}", TRAFFIC, "road_link", (0, 0),
                               {"free_flow_time": t0, "capacity": 1e9}, ends=(frm, to)))


class TestEventTable:
    def test_rows_sorted_by_time_action_id(self):
        rows = (
            EventRow(10.0, "b", ACTION_REPAIR_END, "c1"),
            EventRow(10.0, "a", ACTION_REPAIR_END, "c1"),
            EventRow(10.0, "z", ACTION_FAIL),
            EventRow(5.0, "z", ACTION_FAIL),
            EventRow(10.0, "m", ACTION_REPAIR_START, "c1"),
        )
        table = EventTable(rows)
        assert [(r.time, r.action, r.component_id) for r in table.rows] == [
            (5.0, ACTION_FAIL, "z"),
            (10.0, ACTION_FAIL, "z"),
            (10.0, ACTION_REPAIR_START, "m"),
            (10.0, ACTION_REPAIR_END, "a"),
            (10.0, ACTION_REPAIR_END, "b"),
        ]

    def test_accessors(self):
        table = EventTable((
            EventRow(3600.0, "x", ACTION_FAIL),
            EventRow(4000.0, "x", ACTION_REPAIR_START, "w"),
            EventRow(5000.0, "x", ACTION_REPAIR_END, "w"),
        ))
        assert table.occurrence_time() == 3600.0
        assert table.last_time() == 5000.0
        assert table.last_repair_end() == 5000.0
        assert len(table) == 3
        assert [r.component_id for r in table.of_action(ACTION_FAIL)] == ["x"]

    def test_empty_table(self):
        table = EventTable(())
        assert table.occurrence_time() == 0.0
        assert table.last_time() == 0.0
        assert table.last_repair_end() is None

    def test_csv_round_trip_exact(self, tmp_path):
        table = EventTable((
            EventRow(3600.0, "x", ACTION_FAIL),
            EventRow(3660.123456789012, "x", ACTION_REPAIR_START, "water-crew-1"),
            EventRow(7260.123456789012, "x", ACTION_REPAIR_END, "water-crew-1"),
        ))
        path = tmp_path / "events.csv"
        table.to_csv(str(path))
        again = EventTable.from_csv(str(path))
        assert again == table  # repr round trip keeps floats bit-exact
        header = path.read_text().splitlines()[0]
        assert header == "time_s,component_id,action,crew_id"

    def test_csv_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,who,what,crew\n1.0,x,fail,\n")
        with pytest.raises(SimulationError):
            EventTable.from_csv(str(path))


class TestTableValidation:
    def test_sound_table(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(10.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(20.0, "x", ACTION_REPAIR_END, "c"),
        ))
        assert table.validate() == []

    def test_duplicate_fail(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(1.0, "x", ACTION_FAIL),
        ))
        assert any("fails twice" in p for p in table.validate())

    def test_start_without_fail(self):
        table = EventTable((
            EventRow(5.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(9.0, "x", ACTION_REPAIR_END, "c"),
        ))
        assert any("before any fail" in p for p in table.validate())

    def test_crew_overlap(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(0.0, "y", ACTION_FAIL),
            EventRow(1.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(9.0, "x", ACTION_REPAIR_END, "c"),
            EventRow(5.0, "y", ACTION_REPAIR_START, "c"),  # c still busy until 9
            EventRow(12.0, "y", ACTION_REPAIR_END, "c"),
        ))
        assert any("overlap" in p for p in table.validate())

    def test_touching_intervals_allowed(self):
        # zero travel: the next job may start the instant the last one ends
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(0.0, "y", ACTION_FAIL),
            EventRow(1.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(9.0, "x", ACTION_REPAIR_END, "c"),
            EventRow(9.0, "y", ACTION_REPAIR_START, "c"),
            EventRow(12.0, "y", ACTION_REPAIR_END, "c"),
        ))
        assert table.validate() == []

    def test_unended_repair(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(1.0, "x", ACTION_REPAIR_START, "c"),
        ))
        assert any("never ends" in p for p in table.validate())

    def test_unknown_action(self):
        table = EventTable((EventRow(0.0, "x", "explode"),))
        assert any("unknown action" in p for p in table.validate())

    def test_simulate_rejects_invalid_table(self, corridor_net):
        table = EventTable((EventRow(0.0, "PW", ACTION_FAIL), EventRow(1.0, "PW", ACTION_FAIL)))
        with pytest.raises(SimulationError, match="invalid event table"):
            simulate(corridor_net, table, horizon=60.0)


class TestScheduling:
    def test_travel_plus_duration_arithmetic(self, corridor_net):
        # crew free at 3600, 600 s drive, 7200 s job -> start 4200, end 11400
        scenario = _scenario([("PW", "leak")])
        table = build_event_table(corridor_net, scenario, {WATER: ["PW"]},
                                  durations={"pipe": 7200.0})
        start = table.of_action(ACTION_REPAIR_START)[0]
        end = table.of_action(ACTION_REPAIR_END)[0]
        assert (start.time, end.time) == (4200.0, 11400.0)
        assert start.crew_id == end.crew_id == "water-crew-1"

    def test_component_at_crews_own_node_starts_immediately(self):
        comps = [
            Component("Z1", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("WRX", WATER, "reservoir", (-10.0, 5.0), {"head": 15.0}),
            Component("JX", WATER, "demand_node", (10.0, 5.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component("PW", WATER, "pipe", (0, 0),
                      {"length": 50.0, "diameter": 0.2, "roughness": 120.0},
                      ends=("WRX", "JX")),
        ]
        net = IntegratedNetwork(comps, [], od_matrix={})
        scenario = _scenario([("PW", "leak")])
        table = build_event_table(net, scenario, {WATER: ["PW"]})
        assert table.of_action(ACTION_REPAIR_START)[0].time == 3600.0

    def test_busy_crew_delays_start(self):
        comps = [
            Component("Z1", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("WRX", WATER, "reservoir", (-10.0, 5.0), {"head": 15.0}),
            Component("JX", WATER, "demand_node", (10.0, 5.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component("PW", WATER, "pipe", (0, 0),
                      {"length": 50.0, "diameter": 0.2, "roughness": 120.0},
                      ends=("WRX", "JX")),
        ]
        net = IntegratedNetwork(comps, [], od_matrix={})
        crews = [Crew(id="water-crew-1", network=WATER, location="Z1", busy_until=7200.0)]
        table = build_event_table(net, _scenario([("PW", "leak")]), {WATER: ["PW"]}, crews=crews)
        assert table.of_action(ACTION_REPAIR_START)[0].time == 7200.0

    def test_blockage_defer_trace(self, blockage_net):
        """Road cut isolates the pipe; its crew waits for the road repair."""
        scenario = _scenario([("PW", "leak"), ("RL-Z2-Z3", "full")])
        table = build_event_table(
            blockage_net, scenario,
            {WATER: ["PW"], TRAFFIC: ["RL-Z2-Z3"]},
            durations={"road_link": 1800.0, "pipe": 3600.0},
        )
        got = [(r.time, r.component_id, r.action, r.crew_id) for r in table.rows]
        assert got == [
            (3600.0, "PW", ACTION_FAIL, None),
            (3600.0, "RL-Z2-Z3", ACTION_FAIL, None),
            (3660.0, "RL-Z2-Z3", ACTION_REPAIR_START, "traffic-crew-1"),
            (5460.0, "RL-Z2-Z3", ACTION_REPAIR_END, "traffic-crew-1"),
            (5580.0, "PW", ACTION_REPAIR_START, "water-crew-1"),
            (9180.0, "PW", ACTION_REPAIR_END, "water-crew-1"),
        ]
        assert table.validate() == []

    def test_accessible_component_jumps_blocked_one(self):
        """Listed-first but unreachable work is deferred, not waited on."""
        comps = [Component(f"Z{i}", TRAFFIC, "zone_node", ((i - 1) * 100.0, 0.0))
                 for i in range(1, 5)]
        for a, b in (("Z1", "Z2"), ("Z2", "Z3"), ("Z3", "Z4")):
            _road(comps, a, b)
        for name, x in (("PW-NEAR", 200.0), ("PW-FAR", 100.0)):
            comps += [
                Component(f"WR-{name}", WATER, "reservoir", (x - 10.0, 20.0), {"head": 15.0}),
                Component(f"J-{name}", WATER, "demand_node", (x + 10.0, 20.0),
                          {"base_demand": 0.01, "elevation": 0.0}),
                Component(name, WATER, "pipe", (0, 0),
                          {"length": 50.0, "diameter": 0.2, "roughness": 120.0},
                          ends=(f"WR-{name}", f"J-{name}")),
            ]
        net = IntegratedNetwork(comps, [], od_matrix={})
        scenario = _scenario([("PW-NEAR", "leak"), ("PW-FAR", "leak"), ("RL-Z2-Z3", "full")])
        table = build_event_table(
            net, scenario,
            {WATER: ["PW-NEAR", "PW-FAR"], TRAFFIC: ["RL-Z2-Z3"]},
            durations={"road_link": 1800.0, "pipe": 3600.0},
        )
        starts = {r.component_id: r.time for r in table.of_action(ACTION_REPAIR_START)}
        road_end = [r for r in table.of_action(ACTION_REPAIR_END)
                    if r.component_id == "RL-Z2-Z3"][0].time
        # PW-FAR is second in the order but reachable, so it goes first
        assert starts["PW-FAR"] == 3660.0
        assert starts["PW-NEAR"] > starts["PW-FAR"]
        assert starts["PW-NEAR"] >= road_end
        assert starts["PW-NEAR"] == 7320.0  # 7260 free + 60 s drive Z2->Z3
        assert table.validate() == []

    def test_order_must_cover_failures(self, corridor_net):
        scenario = _scenario([("PW", "leak")])
        with pytest.raises(SimulationError, match="misses"):
            build_event_table(corridor_net, scenario, {WATER: []})
        with pytest.raises(SimulationError, match="non-failed"):
            build_event_table(corridor_net, scenario, {WATER: ["PW", "RL-Z1-Z2"]})
        with pytest.raises(SimulationError, match="twice"):
            build_event_table(corridor_net, scenario, {WATER: ["PW", "PW"]})

    def test_second_crew_on_a_network_rejected(self, corridor_net):
        crews = [
            Crew(id="water-crew-1", network=WATER, location="Z1"),
            Crew(id="water-crew-2", network=WATER, location="Z2"),
        ]
        with pytest.raises(SimulationError, match="one crew per network"):
            build_event_table(corridor_net, _scenario([("PW", "leak")]), {WATER: ["PW"]},
                              crews=crews)

    def test_allow_partial_skips_rest(self, blockage_net):
        scenario = _scenario([("PW", "leak"), ("RL-Z2-Z3", "full")])
        table = build_event_table(blockage_net, scenario,
                                  {TRAFFIC: ["RL-Z2-Z3"]}, allow_partial=True)
        assert {r.component_id for r in table.of_action(ACTION_REPAIR_START)} == {"RL-Z2-Z3"}
        assert len(table.of_action(ACTION_FAIL)) == 2


class TestDefaultHorizon:
    def test_one_day_after_last_repair(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(10.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(130.0, "x", ACTION_REPAIR_END, "c"),
        ))
        assert default_horizon(table) == 86580.0  # 86530 rounded up to the minute

    def test_minute_alignment(self):
        table = EventTable((
            EventRow(0.0, "x", ACTION_FAIL),
            EventRow(10.0, "x", ACTION_REPAIR_START, "c"),
            EventRow(95.5, "x", ACTION_REPAIR_END, "c"),
        ))
        got = default_horizon(table)
        assert got % 60.0 == 0.0
        assert got >= 95.5 + 86400.0


class TestSimulate:
    def test_empty_table_keeps_full_service(self, net):
        result = simulate(net, EventTable(()), horizon=3600.0)
        np.testing.assert_array_equal(pcs_curve(result.water), 1.0)
        np.testing.assert_array_equal(pcs_curve(result.power), 1.0)
        assert result.water.times[0] == 0.0
        assert result.water.times[-1] == 3600.0
        assert np.all(np.diff(result.water.times) == 60.0)

    def test_baseline_on_another_grid_rejected(self, net, monkeypatch):
        # a baseline of the right length whose last sample sits elsewhere
        table = EventTable((EventRow(1800.0, "PL5", ACTION_FAIL),))
        real = simulation._baseline_water

        def shifted(net, horizon):
            ids, times, rows = real(net, horizon)
            return ids, np.append(times[:-1], times[-1] + 30.0), rows

        monkeypatch.setattr(simulation, "_baseline_water", shifted)
        with pytest.raises(SimulationError, match="grids diverged"):
            simulate(net, table, horizon=3600.0)

    def test_horizon_before_last_event_rejected(self, net):
        table = EventTable((EventRow(7200.0, "PL5", ACTION_FAIL),))
        with pytest.raises(SimulationError, match="horizon"):
            simulate(net, table, horizon=3600.0)

    def test_feeder_line_outage_propagates(self, net):
        scenario = _scenario([("PL5", "full")])
        result = run_scenario(net, scenario, "max_flow")
        table = result.event_table

        end = table.of_action(ACTION_REPAIR_END)[0]
        assert end.component_id == "PL5"
        assert end.time == pytest.approx(PL5_REPAIR_END, abs=1e-9)

        power_times = result.power.times
        power_pcs = pcs_curve(result.power)

        # power drops immediately: the motor load is shed while PL5 is out
        at_fail = int(np.searchsorted(power_times, 3600.0))
        assert power_pcs[at_fail] == pytest.approx(30.0 / 31.0, abs=1e-12)

        # exactly at repair_end the dispatch is whole again
        at_end = int(np.searchsorted(power_times, end.time))
        assert power_times[at_end] == pytest.approx(end.time, abs=1e-9)
        assert power_pcs[at_end] == 1.0
        assert power_pcs[at_end - 1] < 1.0

        # water dips below full service within the first simulated hour
        water_pcs = pcs_curve(result.water)
        hour = (result.water.times > 3600.0) & (result.water.times <= 7200.0)
        assert water_pcs[hour].min() < 1.0

        # tank refill lag: water gets back to 1.0 only after power does
        full = np.isclose(water_pcs, 1.0, atol=1e-9)
        after_end = result.water.times >= end.time
        recovery = result.water.times[after_end & full].min()
        assert recovery == PL5_WATER_RECOVERY
        assert recovery >= end.time
        assert np.all(full[result.water.times >= recovery])

    def test_feeder_line_outage_eoh(self, net):
        scenario = _scenario([("PL5", "full")])
        result = run_scenario(net, scenario, "max_flow")
        from lifelinesim.metrics import system_eoh, weighted_eoh

        water = system_eoh(result.water, result.occurrence_time, result.horizon, "pcs")
        power = system_eoh(result.power, result.occurrence_time, result.horizon, "pcs")
        assert 2.3 < water < 2.6
        assert 0.05 < power < 0.15
        assert water > power  # tank drains and refills slowly
        combined = weighted_eoh({"water": water, "power": power})
        assert combined == pytest.approx((water + power) / 2.0, abs=1e-12)

    def test_default_horizon_used(self, net):
        scenario = _scenario([("PL5", "full")])
        result = run_scenario(net, scenario, "max_flow")
        assert result.horizon == 100920.0
        assert result.horizon == default_horizon(result.event_table)

    def test_series_lookup(self, net):
        result = simulate(net, EventTable(()), horizon=120.0)
        assert result.series(WATER) is result.water
        assert result.series("power") is result.power
        with pytest.raises(SimulationError):
            result.series("gas")

    def test_dry_tank_forces_its_generator_off(self):
        # PGEN on B9 is fed by tank WT1; once PL5 is out it is PM1's only supply
        base = build_simple_testbed()
        pgen = Component("PGEN", POWER, "generator", (-500.0, -320.0),
                         {"max_mw": 5.0, "cost": 1.0}, buses=("B9",))
        net = IntegratedNetwork(
            [*base.components, pgen],
            [*base.dependencies, Dependency("WT1", "PGEN", "reservoir_feeds_generator")],
            od_matrix=base.od_matrix, zone_priority=base.zone_priority,
        )
        table = EventTable((
            EventRow(3600.0, "WPU1", ACTION_FAIL),
            EventRow(3600.0, "PL5", ACTION_FAIL),
            EventRow(10000.0, "TL-T5-T6", ACTION_FAIL),
            EventRow(40000.0, "PL5", ACTION_REPAIR_START, "power-crew-1"),
            EventRow(50000.0, "PL5", ACTION_REPAIR_END, "power-crew-1"),
        ))
        result = simulate(net, table, horizon=60000.0)

        water = result.water
        assert np.all(water.supplied[water.times >= 6300.0] == 0.0)
        pm1 = result.power.consumers.index("PM1")
        served = dict(zip(result.power.times, result.power.supplied[:, pm1]))
        assert [served[t] for t in (3600.0, 10000.0, 40000.0, 50000.0)] == [2.0, 0.0, 0.0, 2.0]


class TestRunScenario:
    def test_unknown_strategy_rejected(self, net):
        scenario = _scenario([("PL5", "full")])
        with pytest.raises(RecoveryError, match="strategy"):
            run_scenario(net, scenario, "wishful_thinking")

    def test_no_failures_full_service(self, net):
        scenario = DisasterScenario(
            event=HazardEvent(kind="point", center=(0.0, 0.0), radius=10.0),
            failures=(), seed=1, intensity="moderate",
        )
        result = run_scenario(net, scenario, "zone", horizon=3600.0)
        assert len(result.event_table) == 0
        np.testing.assert_array_equal(pcs_curve(result.water), 1.0)
        np.testing.assert_array_equal(pcs_curve(result.power), 1.0)

    def test_strategies_agree_on_single_failure(self, net):
        scenario = _scenario([("PL5", "full")])
        tables = [
            run_scenario(net, scenario, s, horizon=20000.0).event_table
            for s in ("max_flow", "centrality", "crew_distance", "zone")
        ]
        assert all(t == tables[0] for t in tables[1:])
