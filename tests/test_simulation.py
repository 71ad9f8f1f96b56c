"""Event-table scheduling and the interdependent replay loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifelinesim import graphs, simulation
from lifelinesim.hazard import INTENSITIES, ComponentFailure, DisasterScenario, HazardEvent, sample_scenario
from lifelinesim.metrics import pcs_curve
from lifelinesim.hydraulics import HydraulicError, WaterSimulator
from lifelinesim.network import (
    IN_SERVICE,
    POWER,
    STATUS_FAILED,
    STATUS_REPAIRED,
    TRAFFIC,
    WATER,
    Component,
    Dependency,
    IntegratedNetwork,
    NetworkError,
    component_location,
    nearest_zone,
)
from lifelinesim.powerflow import PowerFlowError
from lifelinesim.recovery import (
    REPAIR_DURATIONS,
    STRATEGIES,
    Crew,
    RecoveryError,
    build_planning_context,
    default_crews,
    rank_components,
)
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
from lifelinesim.traffic import TrafficAssignmentError, assign_traffic

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

    def test_repair_end_twice(self):
        # replaying it would move PL2 from repaired to repaired
        table = EventTable((
            EventRow(0.0, "PL2", ACTION_FAIL),
            EventRow(60.0, "PL2", ACTION_REPAIR_START, "c"),
            EventRow(120.0, "PL2", ACTION_REPAIR_END, "c"),
            EventRow(180.0, "PL2", ACTION_REPAIR_END, "c"),
        ))
        assert table.validate() == ["PL2 repair_end twice"]
        with pytest.raises(SimulationError, match="invalid event table: PL2 repair_end twice"):
            simulate(build_simple_testbed(), table, horizon=600.0)

    def test_simulate_rejects_invalid_table(self, corridor_net):
        table = EventTable((EventRow(0.0, "PW", ACTION_FAIL), EventRow(1.0, "PW", ACTION_FAIL)))
        with pytest.raises(SimulationError, match="invalid event table"):
            simulate(corridor_net, table, horizon=60.0)

    @pytest.mark.parametrize("component_id, reason", [
        ("GHOST", "no such component"),
        ("T1", "no solver reads the status of a zone_node"),
        ("WT1", "no solver reads the status of a tank"),
    ])
    def test_simulate_rejects_rows_no_solver_reads(self, monkeypatch, component_id, reason):
        # checked once, before any replay work
        def replayed(*args):
            raise AssertionError("replayed")

        monkeypatch.setattr(simulation, "_run_series", replayed)
        table = EventTable((EventRow(0.0, component_id, ACTION_FAIL), EventRow(60.0, "PL5", ACTION_FAIL)))
        with pytest.raises(SimulationError, match=f"invalid event table: .*{component_id!r}: {reason}$") as info:
            simulate(build_simple_testbed(), table, horizon=120.0)
        assert isinstance(info.value.__cause__, NetworkError)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_are_invalid(self, bad):
        # without a horizon, simulate reports these ledgers as invalid
        # before it would round a non-finite default horizon
        net = build_simple_testbed()
        unknown = EventTable((EventRow(bad, "PL5", "explode"),))
        with pytest.raises(SimulationError, match="invalid event table: unknown action 'explode' for PL5$"):
            simulate(net, unknown)
        table = EventTable((EventRow(0.0, "PL5", ACTION_FAIL), EventRow(bad, "PL5", ACTION_REPAIR_START, "c")))
        problems = table.validate()
        assert f"PL5 repair_start at non-finite time {bad}" in problems
        with pytest.raises(SimulationError, match="invalid event table: .*non-finite time"):
            simulate(net, table, store={})


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

    def test_two_road_crews_share_the_work(self, blockage_net):
        # each 12 h repair starts after a 60 s drive from Z2; one crew
        # drives on from Z1 over the link it has just repaired
        scenario = _scenario([("RL-Z1-Z2", "full"), ("RL-Z3-Z4", "full")])
        order = {TRAFFIC: ["RL-Z1-Z2", "RL-Z3-Z4"]}
        two = [Crew(id=f"traffic-crew-{k}", network=TRAFFIC, location="Z2") for k in (1, 2)]

        def repairs(crews):
            table = build_event_table(blockage_net, scenario, order, crews=crews)
            assert table.validate() == []
            return [(r.time, r.component_id, r.action, r.crew_id) for r in table.rows if r.crew_id]

        assert repairs(two) == [
            (3660.0, "RL-Z1-Z2", ACTION_REPAIR_START, "traffic-crew-1"),
            (3660.0, "RL-Z3-Z4", ACTION_REPAIR_START, "traffic-crew-2"),
            (46860.0, "RL-Z1-Z2", ACTION_REPAIR_END, "traffic-crew-1"),
            (46860.0, "RL-Z3-Z4", ACTION_REPAIR_END, "traffic-crew-2"),
        ]
        assert repairs(two[::-1]) == repairs(two)
        assert repairs(two[:1]) == [
            (3660.0, "RL-Z1-Z2", ACTION_REPAIR_START, "traffic-crew-1"),
            (46860.0, "RL-Z1-Z2", ACTION_REPAIR_END, "traffic-crew-1"),
            (46980.0, "RL-Z3-Z4", ACTION_REPAIR_START, "traffic-crew-1"),
            (90180.0, "RL-Z3-Z4", ACTION_REPAIR_END, "traffic-crew-1"),
        ]

    def test_repeated_crew_id_rejected(self, net):
        # one id on three networks once booked overlapping repairs
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=6), seed=1)
        crews = [Crew("crew", network, "T5") for network in (WATER, POWER, TRAFFIC)]
        with pytest.raises(SimulationError, match="two crews have the id 'crew'"):
            run_scenario(net, scenario, "max_flow", crews=crews)

    def test_crew_of_unknown_network_rejected(self, corridor_net):
        crews = [Crew("water-crew-1", WATER, "Z1"), Crew("gas-crew-1", "gas", "Z1")]
        with pytest.raises(SimulationError, match="crew gas-crew-1 serves unknown network 'gas'"):
            build_event_table(corridor_net, _scenario([("PW", "leak")]), {WATER: ["PW"]}, crews=crews)

    def test_garage_off_the_road_network_rejected(self, corridor_net):
        crews = [Crew("water-crew-1", WATER, "JX")]
        with pytest.raises(SimulationError, match="crew water-crew-1 garages at 'JX', not a traffic node"):
            build_event_table(corridor_net, _scenario([("PW", "leak")]), {WATER: ["PW"]}, crews=crews)

    def test_network_without_a_crew_rejected(self, net, blockage_net):
        crews = [c for c in default_crews(net) if c.network != WATER]
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=3), seed=1)
        with pytest.raises(SimulationError, match=r"no crew serves water, whose repair order lists \['WP-W2-W3'\]"):
            run_scenario(net, scenario, "max_flow", crews=crews)
        # an order that lists nothing needs no crew
        scenario = _scenario([("RL-Z2-Z3", "full")])
        road_crew = [Crew(id="traffic-crew-1", network=TRAFFIC, location="Z1")]
        table = build_event_table(blockage_net, scenario, {WATER: [], TRAFFIC: ["RL-Z2-Z3"]},
                                  crews=road_crew)
        assert {r.component_id for r in table.of_action(ACTION_REPAIR_START)} == {"RL-Z2-Z3"}

    def test_order_omitting_a_failed_network_rejected(self, net, blockage_net):
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=6), seed=1)
        with pytest.raises(SimulationError, match=r"repair order for power misses failed components \['PL2'\]"):
            build_event_table(net, scenario, {WATER: ["WP-W1-W2", "WP-W6-W9"]})
        scenario = _scenario([("PW", "leak"), ("RL-Z2-Z3", "full")])
        with pytest.raises(SimulationError, match=r"repair order for water misses failed components \['PW'\]"):
            build_event_table(blockage_net, scenario, {TRAFFIC: ["RL-Z2-Z3"]})

    @staticmethod
    def _one_way_net():
        """A one-way road leads from Z1, where the pipe is, to Z2."""
        comps = [
            Component("Z1", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("Z2", TRAFFIC, "zone_node", (1000.0, 0.0)),
            Component("RL-Z1-Z2", TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 60.0, "capacity": 1e9}, ends=("Z1", "Z2")),
            Component("WRX", WATER, "reservoir", (-10.0, 20.0), {"head": 15.0}),
            Component("JX", WATER, "demand_node", (10.0, 20.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component("PW", WATER, "pipe", (0, 0),
                      {"length": 100.0, "diameter": 0.2, "roughness": 120.0}, ends=("WRX", "JX")),
        ]
        return IntegratedNetwork(comps, [], od_matrix={})

    def test_work_out_of_reach_after_every_road_repair_rejected(self):
        # the crew is at Z2: no road repair can bring it back to the pipe
        crews = [Crew(id="water-crew-1", network=WATER, location="Z2")]
        with pytest.raises(SimulationError, match=r"crew water-crew-1 at Z2 cannot reach any of "
                                                  r"\['PW'\] even after every road repair"):
            build_event_table(self._one_way_net(), _scenario([("PW", "leak")]), {WATER: ["PW"]}, crews=crews)

    def test_crew_that_can_reach_the_work_takes_it(self):
        # water-crew-1 at Z2 can never reach the pipe; water-crew-2, free
        # at the same instant at Z1, repairs it
        crews = [Crew(id="water-crew-1", network=WATER, location="Z2"),
                 Crew(id="water-crew-2", network=WATER, location="Z1")]
        table = build_event_table(self._one_way_net(), _scenario([("PW", "leak")]), {WATER: ["PW"]},
                                  crews=crews)
        assert [(r.time, r.component_id, r.action, r.crew_id) for r in table.rows if r.crew_id] == [
            (3600.0, "PW", ACTION_REPAIR_START, "water-crew-2"),
            (18000.0, "PW", ACTION_REPAIR_END, "water-crew-2"),
        ]

    def test_road_crew_free_beside_a_stuck_crew_follows_its_order(self):
        # zones Z5, Z1, Z2, Z3, Z4 in a line, 60 s apart; the power line
        # at Z4 is cut off by RL-Z3-Z4. The power crew is stuck at 3600 s,
        # and the road crew, free at the same instant, takes RL-Z3-Z4, its
        # order's first link, not RL-Z5-Z1, the nearest blocked link
        comps = [Component(f"Z{i}", TRAFFIC, "zone_node", (x, 0.0))
                 for i, x in ((5, -100.0), (1, 0.0), (2, 100.0), (3, 200.0), (4, 300.0))]
        for a, b in (("Z5", "Z1"), ("Z1", "Z2"), ("Z2", "Z3"), ("Z3", "Z4")):
            _road(comps, a, b)
        comps += [
            Component("B1", POWER, "bus", (290.0, 20.0)),
            Component("B2", POWER, "bus", (310.0, 20.0)),
            Component("LN", POWER, "line", (0, 0), {"susceptance": 80.0, "limit_mw": 100.0},
                      ends=("B1", "B2")),
        ]
        net = IntegratedNetwork(comps, [], od_matrix={})
        crews = [Crew(id="power-crew-1", network=POWER, location="Z1"),
                 Crew(id="traffic-crew-1", network=TRAFFIC, location="Z1")]
        scenario = _scenario([("LN", "full"), ("RL-Z3-Z4", "full"), ("RL-Z5-Z1", "full")])
        table = build_event_table(net, scenario, {POWER: ["LN"], TRAFFIC: ["RL-Z3-Z4", "RL-Z5-Z1"]},
                                  crews=crews, durations={"road_link": 1800.0, "line": 3600.0})
        assert [(r.time, r.component_id, r.action, r.crew_id) for r in table.rows if r.crew_id] == [
            (3720.0, "RL-Z3-Z4", ACTION_REPAIR_START, "traffic-crew-1"),
            (5520.0, "RL-Z3-Z4", ACTION_REPAIR_END, "traffic-crew-1"),
            (5640.0, "RL-Z5-Z1", ACTION_REPAIR_START, "traffic-crew-1"),
            (5700.0, "LN", ACTION_REPAIR_START, "power-crew-1"),
            (7440.0, "RL-Z5-Z1", ACTION_REPAIR_END, "traffic-crew-1"),
            (9300.0, "LN", ACTION_REPAIR_END, "power-crew-1"),
        ]
        assert table.validate() == []

    def test_stuck_crew_waits_for_the_next_crew_to_come_free(self, blockage_net):
        # the water crew, stuck at 3600 s behind RL-Z2-Z3, waits for
        # traffic-crew-2 to come free at 3630 s, not for RL-Z1-Z2 to open:
        # traffic-crew-2 then books RL-Z2-Z3, which opens first
        crews = [Crew(id="water-crew-1", network=WATER, location="Z2"),
                 Crew(id="traffic-crew-1", network=TRAFFIC, location="Z2"),
                 Crew(id="traffic-crew-2", network=TRAFFIC, location="Z2", busy_until=3630.0)]
        scenario = _scenario([("PW", "leak"), ("RL-Z1-Z2", "full"), ("RL-Z2-Z3", "full")])
        table = build_event_table(blockage_net, scenario, {WATER: ["PW"], TRAFFIC: ["RL-Z1-Z2", "RL-Z2-Z3"]},
                                  crews=crews, durations={"road_link": 1800.0, "pipe": 3600.0})
        assert [(r.time, r.component_id, r.action, r.crew_id) for r in table.rows if r.crew_id] == [
            (3630.0, "RL-Z2-Z3", ACTION_REPAIR_START, "traffic-crew-2"),
            (3660.0, "RL-Z1-Z2", ACTION_REPAIR_START, "traffic-crew-1"),
            (5430.0, "RL-Z2-Z3", ACTION_REPAIR_END, "traffic-crew-2"),
            (5460.0, "RL-Z1-Z2", ACTION_REPAIR_END, "traffic-crew-1"),
            (5490.0, "PW", ACTION_REPAIR_START, "water-crew-1"),
            (9090.0, "PW", ACTION_REPAIR_END, "water-crew-1"),
        ]

    @pytest.mark.parametrize("count, seed", [(6, 1), (12, 5)])
    def test_each_road_state_is_keyed_once(self, monkeypatch, count, seed):
        # the road state is keyed when the schedule starts and at each
        # road opening, not at every crew choice
        net = build_simple_testbed()
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=count), seed=seed)
        failed = {f.component_id for f in scenario.failures}
        order = rank_components(net, failed, "max_flow", build_planning_context(net, None, failed))
        roads = sum(net.component(cid).kind == "road_link" for cid in failed)
        keyed = []
        service_key = IntegratedNetwork.service_key

        def counting(self, network, statuses):
            keyed.append(network)
            return service_key(self, network, statuses)

        monkeypatch.setattr(IntegratedNetwork, "service_key", counting)
        build_event_table(net, scenario, order)
        assert roads >= 3
        assert keyed.count(TRAFFIC) <= 1 + roads


class TestSolverErrorsWrapped:
    """Each solver's error surfaces as a ``SimulationError`` caused by it."""

    def test_traffic_assignment_during_scheduling(self, monkeypatch):
        # on a fresh network, so that no repaired road state is memoized;
        # the water crew, busy until after the road repair, opens it
        net = build_simple_testbed()
        scenario = _scenario([("TL-T5-T6", "full"), ("WP-W1-W2", "leak")])
        crews = [replace(c, busy_until=1e6) if c.network == WATER else c for c in default_crews(net)]
        error = TrafficAssignmentError("no convergence")
        real = simulation.assign_traffic

        def failing(net, statuses):
            # the road state with TL-T5-T6 open again, which keys like the
            # undisrupted one
            if net.in_service("TL-T5-T6", statuses):
                raise error
            return real(net, statuses)

        monkeypatch.setattr(simulation, "assign_traffic", failing)
        with pytest.raises(SimulationError, match="traffic assignment failed during scheduling") as info:
            build_event_table(net, scenario, {TRAFFIC: ["TL-T5-T6"], WATER: ["WP-W1-W2"]}, crews=crews)
        assert info.value.__cause__ is error

    def test_road_crew_cannot_reach_any_failed_link(self):
        # the one road is one-way into the crew's garage at Z2, so the
        # crew cannot reach Z1, the failed link's access node, even
        # across blocked links
        comps = [
            Component("Z1", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("Z2", TRAFFIC, "zone_node", (1000.0, 0.0)),
            Component("RL-Z1-Z2", TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 60.0, "capacity": 1e9}, ends=("Z1", "Z2")),
        ]
        one_way = IntegratedNetwork(comps, [], od_matrix={})
        crews = [Crew(id="traffic-crew-1", network=TRAFFIC, location="Z2")]
        with pytest.raises(SimulationError, match="road crew at Z2 cannot reach any failed road link"):
            build_event_table(one_way, _scenario([("RL-Z1-Z2", "full")]), {TRAFFIC: ["RL-Z1-Z2"]},
                              crews=crews)

    def test_power_dispatch(self, monkeypatch):
        error = PowerFlowError("infeasible")

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(simulation, "solve_power", failing)
        with pytest.raises(SimulationError, match="power dispatch failed at t=0.0") as info:
            simulate(build_simple_testbed(), EventTable(()), horizon=120.0)
        assert info.value.__cause__ is error

    def test_hydraulic_solve(self, monkeypatch):
        error = HydraulicError("diverged")

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(WaterSimulator, "solve", failing)
        with pytest.raises(SimulationError, match=r"hydraulic solve failed at t=0.0 in interval \[0.0, 120.0\)") as info:
            simulate(build_simple_testbed(), EventTable(()), horizon=120.0)
        assert info.value.__cause__ is error


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
        with pytest.raises(SimulationError, match="horizon 3600.0 precedes the last event at 7200.0"):
            simulate(net, table, horizon=3600.0)

    @pytest.mark.parametrize("horizon", [-50.0, 3600.0, None])
    def test_event_before_time_zero_rejected(self, net, horizon):
        table = EventTable((EventRow(-100.0, "PL5", ACTION_FAIL),))
        with pytest.raises(SimulationError, match="PL5 fail at negative time -100.0"):
            simulate(net, table, horizon=horizon)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    @pytest.mark.parametrize("rows", [(), (EventRow(1800.0, "PL5", ACTION_FAIL),)])
    def test_non_finite_horizon_rejected(self, net, horizon, rows):
        with pytest.raises(SimulationError, match="not finite"):
            simulate(net, EventTable(rows), horizon=horizon)

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
        # PGEN on B9 is fed by tank WT1; once PL5 is out it is PM1's only
        # supply, so PM1 goes dark the minute WT1 runs dry, between events
        net = _dry_tank_net()
        result = simulate(net, EventTable(DRY_TANK_ROWS), horizon=60000.0)

        water = result.water
        dry_at = water.times[np.argmax(np.all(water.supplied == 0.0, axis=1))]
        assert dry_at == 6300.0
        assert np.all(water.supplied[water.times >= dry_at] == 0.0)
        pm1 = result.power.consumers.index("PM1")
        served = dict(zip(result.power.times, result.power.supplied[:, pm1]))
        assert served == {0.0: 2.0, 3600.0: 2.0, dry_at: 0.0, 40000.0: 0.0, 50000.0: 2.0, 60000.0: 2.0}

    def test_dry_tank_with_no_later_event(self):
        # nothing happens after the failures: the tank alone cuts PM1
        result = simulate(_dry_tank_net(), EventTable(DRY_TANK_ROWS[:2]), horizon=20000.0)
        pm1 = result.power.consumers.index("PM1")
        served = dict(zip(result.power.times, result.power.supplied[:, pm1]))
        assert served == {0.0: 2.0, 3600.0: 2.0, 6300.0: 0.0, 20000.0: 0.0}
        assert np.all(result.water.supplied[result.water.times >= 6300.0] == 0.0)

    def test_replays_sharing_a_store_equal_fresh_replays(self):
        # the same ledger at three horizons, then ledgers that leave it
        # after the tank ran dry (at 6300 s) and after the repair: each
        # replays through the shared store and equals a fresh replay, and
        # a repeat of the first returns its stored result
        net = _dry_tank_net()
        repair_wpu1 = (
            EventRow(45000.0, "WPU1", ACTION_REPAIR_START, "water-crew-1"),
            EventRow(53000.0, "WPU1", ACTION_REPAIR_END, "water-crew-1"),
        )
        cases = [
            (DRY_TANK_ROWS, 60000.0),
            (DRY_TANK_ROWS, 70020.0),
            (DRY_TANK_ROWS, None),
            (DRY_TANK_ROWS + repair_wpu1, 60000.0),
            (DRY_TANK_ROWS[:2] + repair_wpu1, 60000.0),
            (DRY_TANK_ROWS + (EventRow(50000.0, "WP-W6-W9", ACTION_FAIL),), 60000.0),
        ]
        store: dict = {}
        results = []
        for rows, horizon in cases:
            table = EventTable(rows)
            got = simulate(net, table, horizon, store)
            want = simulate(_dry_tank_net(), table, horizon)
            for a, b in ((got.water, want.water), (got.power, want.power)):
                assert np.array_equal(a.times, b.times) and np.array_equal(a.supplied, b.supplied)
            assert got.weighted_eoh() == want.weighted_eoh()
            results.append(got)
        assert len({id(r) for r in results}) == len(cases)
        assert simulate(net, EventTable(DRY_TANK_ROWS), 60000.0, store) is results[0]


# WT1 drains once WPU1 fails; PL5 is PM1's feeder line
DRY_TANK_ROWS = (
    EventRow(3600.0, "WPU1", ACTION_FAIL),
    EventRow(3600.0, "PL5", ACTION_FAIL),
    EventRow(40000.0, "PL5", ACTION_REPAIR_START, "power-crew-1"),
    EventRow(50000.0, "PL5", ACTION_REPAIR_END, "power-crew-1"),
)


def _dry_tank_net():
    """The testbed plus generator PGEN (5 MW on B9), fed by tank WT1."""
    base = build_simple_testbed()
    pgen = Component("PGEN", POWER, "generator", (-500.0, -320.0),
                     {"max_mw": 5.0, "cost": 1.0}, buses=("B9",))
    return IntegratedNetwork(
        [*base.components, pgen],
        [*base.dependencies, Dependency("WT1", "PGEN", "reservoir_feeds_generator")],
        od_matrix=base.od_matrix, zone_priority=base.zone_priority,
    )


class _MinuteReplay(simulation._Replay):
    """Oracle: the replay as it was before water samples were kept as
    runs, appending every sample, frozen minutes included, one by one."""

    def __init__(self, net):
        super().__init__(net)
        self.water_times, self.water_rows = [], []

    def interval(self, a, b, rows):
        sim = self.sim
        for row in rows:
            current = self.statuses.get(row.component_id, self.net.component(row.component_id).status)
            new = simulation._ACTION_STATUS[row.action]
            try:
                simulation.check_transition(current, new)
            except ValueError as exc:
                raise SimulationError(f"invalid event at t={a}: {exc}") from exc
            self.statuses[row.component_id] = new
        sim.set_statuses(self.statuses, forced_off=self._dispatch(a))

        step, tol = simulation.WATER_SAMPLE_STEP, simulation._TIME_TOL
        now = a
        while now < b - tol or a == b:
            if not sim.is_frozen():  # set_statuses drops the last solution
                self._solve(now, a, b)
            if a == b or simulation._on_grid(now):
                self.water_times.append(now)
                self.water_rows.append(self.water_row)
            if a == b:
                break
            k = math.floor(now / step) + 1
            if sim.is_frozen():
                # every later step of the interval would keep this row and
                # these levels: emit its remaining grid samples directly
                while k * step < b - tol:
                    self.water_times.append(k * step)
                    self.water_rows.append(self.water_row)
                    k += 1
                break
            nxt = min(b, k * step)
            sim.advance(nxt - now)
            now = nxt

    def water_samples(self):
        return np.array(self.water_times), np.array(self.water_rows)


# event times a hair off the minute grid, on both sides of it
NEAR_GRID_ROWS = (
    EventRow(3600.0 + 1e-9, "WPU1", ACTION_FAIL),
    EventRow(3600.0 + 1e-9, "PL5", ACTION_FAIL),
    EventRow(7200.0 - 1e-9, "PL5", ACTION_REPAIR_START, "power-crew-1"),
    EventRow(10800.0 + 2e-9, "PL5", ACTION_REPAIR_END, "power-crew-1"),
    EventRow(10830.0 - 5e-10, "WPU1", ACTION_REPAIR_START, "water-crew-1"),
    EventRow(14400.0 + 5e-10, "WPU1", ACTION_REPAIR_END, "water-crew-1"),
)


class TestSampleRuns:
    @pytest.mark.parametrize(
        "rows, horizon",
        [
            ((), 3600.0),
            ((), 3630.5),
            (DRY_TANK_ROWS, 60000.0),
            (DRY_TANK_ROWS[:2], 20000.25),
            (NEAR_GRID_ROWS, 20000.0),
            (NEAR_GRID_ROWS, 14400.0 + 5e-10),
            (NEAR_GRID_ROWS[:4], 10800.0 + 2e-9),
        ],
    )
    def test_runs_expand_to_the_minute_samples(self, monkeypatch, rows, horizon):
        # the runs, expanded once, equal the samples the per-minute loop
        # appended: the same times to the bit, and the same rows
        net = _dry_tank_net()
        table = EventTable(rows)
        got = simulation._run_series(net, table, horizon)
        monkeypatch.setattr(simulation, "_Replay", _MinuteReplay)
        want = simulation._run_series(_dry_tank_net(), table, horizon)
        assert got[0] == want[0] and got[3] == want[3]
        for k in (1, 2, 4, 5):
            assert got[k].shape == want[k].shape and got[k].dtype == want[k].dtype, k
            assert np.array_equal(got[k], want[k]), k


class _ReferenceScheduler:
    """Oracle: the scheduling rules of the README, followed literally for
    any number of crews. Each crew choice routes with one
    ``graphs.dijkstra`` over the link times of a fresh ``assign_traffic``
    of the current road state (free-flow times for the deadlock break),
    and access nodes come from ``nearest_zone``; nothing is read from the
    network memo."""

    def __init__(self, net, scenario, order, crews):
        self.net = net
        self.crews = [replace(c, busy_until=max(c.busy_until, scenario.event.occurrence_time)) for c in crews]
        self.todo = {network: list(ids) for network, ids in order.items() if ids}
        self.statuses = {f.component_id: STATUS_FAILED for f in scenario.failures}
        self.rows = [EventRow(f.time, f.component_id, ACTION_FAIL) for f in scenario.failures]
        self.road_ends = []  # (end, link) of every booked road repair
        self.assignments = {}  # out-of-service roads -> fresh assignment

    def earliest(self, networks):
        return min((c for c in self.crews if c.network in networks), key=lambda c: (c.busy_until, c.id))

    def access(self, cid):
        return nearest_zone(self.net, component_location(self.net.component(cid), self.net))

    def open_roads(self, now):
        for end, link in self.road_ends:
            if end <= now + simulation._TIME_TOL:
                self.statuses[link] = STATUS_REPAIRED

    def travel(self, origin, free_flow=False):
        """Travel time from ``origin`` to each traffic node, inf where cut off."""
        links = self.net.components_of(TRAFFIC, "road_link")
        down = frozenset(c.id for c in links if self.statuses.get(c.id, c.status) not in IN_SERVICE)
        if down not in self.assignments:
            self.assignments[down] = assign_traffic(self.net, self.statuses).link_time
        adj = {z.id: [] for z in self.net.nodes_of(TRAFFIC)}
        for link in links:
            a, b = link.ends
            t0 = link.attrs["free_flow_time"]
            if link.id not in down:
                adj[a].append((b, t0 if free_flow else self.assignments[down][link.id], link.id))
            elif free_flow:
                adj[a].append((b, simulation.BLOCKED_ROAD_FACTOR * t0, link.id))
        dist, _ = graphs.dijkstra(adj, origin)
        return lambda cid: dist.get(self.access(cid), math.inf)

    def book(self, crew, cid, travel):
        comp = self.net.component(cid)
        start = crew.busy_until + travel
        end = start + REPAIR_DURATIONS[comp.kind]
        self.rows.append(EventRow(start, cid, ACTION_REPAIR_START, crew.id))
        self.rows.append(EventRow(end, cid, ACTION_REPAIR_END, crew.id))
        crew.location, crew.busy_until = self.access(cid), end
        self.todo[crew.network].remove(cid)
        if not self.todo[crew.network]:
            del self.todo[crew.network]
        if comp.kind == "road_link":
            self.road_ends.append((end, cid))

    def ledger(self):
        tol = simulation._TIME_TOL
        stuck = set()  # ids of the crews that can reach none of their work now
        while self.todo:
            working = [c for c in self.crews if c.network in self.todo]
            now = min(c.busy_until for c in working)
            free = [c for c in working if c.busy_until <= now + tol and c.id not in stuck]
            if free:
                # the earliest-free crew with work left takes the first
                # component of its order that it can reach
                crew = min(free, key=lambda c: (c.busy_until, c.id))
                self.open_roads(crew.busy_until)
                travel = self.travel(crew.location)
                reachable = [(cid, travel(cid)) for cid in self.todo[crew.network] if math.isfinite(travel(cid))]
                if reachable:
                    self.book(crew, *reachable[0])
                    stuck.clear()
                else:  # or stands aside while another crew free now tries
                    stuck.add(crew.id)
                continue
            # every crew free now is stuck: they all wait for the next road
            # repair to end, or for another crew with work left to come free
            later = [end for end, _ in self.road_ends if end > now + tol]
            later += [c.busy_until for c in working if c.busy_until > now + tol]
            if later:
                for crew in working:
                    if crew.id in stuck:
                        crew.busy_until = min(later)
                stuck.clear()
                continue
            # with nothing left to wait for, the earliest-free road crew
            # goes to its nearest blocked link, crossing blocked links
            road_crew = self.earliest((TRAFFIC,))
            self.open_roads(road_crew.busy_until)
            travel = self.travel(road_crew.location, free_flow=True)
            cost, cid = min((travel(cid), cid) for cid in self.todo[TRAFFIC])
            self.book(road_crew, cid, cost)
            stuck.clear()
        return EventTable(tuple(self.rows)).rows


def _second_crews(net, garage=None):
    """``default_crews`` and, on each network, a second crew at ``garage``
    (default: the first crew's garage)."""
    crews = default_crews(net)
    return crews + [replace(c, id=f"{c.network}-crew-2", location=garage or c.location) for c in crews]


class TestReferenceScheduler:
    """``build_event_table`` books the reference scheduler's ledger, at one
    and at two crews per network."""

    @staticmethod
    def _assert_agree(net, scenario, strategies, crew_lists):
        failed = {f.component_id for f in scenario.failures}
        for crews in crew_lists:
            context = build_planning_context(net, crews, failed)
            for strategy in strategies:
                order = rank_components(net, failed, strategy, context)
                want = _ReferenceScheduler(net, scenario, order, crews).ledger()
                got = build_event_table(net, scenario, order, crews=crews).rows
                assert got == want, (strategy, len(crews))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(1, 8),
        intensity=st.sampled_from(INTENSITIES),
        occurrence=st.integers(0, 7200).map(float),
        garage=st.sampled_from([f"T{k}" for k in range(1, 10)]),
    )
    # at two crews a stuck crew waits while two road repairs are booked:
    # it waits for the first to end
    @example(seed=134, count=7, intensity="extreme", occurrence=3600.0, garage="T5")
    def test_drawn_scenarios(self, net, seed, count, intensity, occurrence, garage):
        event = HazardEvent(kind="random", intensity=intensity, count=count, occurrence_time=occurrence)
        scenario = sample_scenario(net, event, seed=seed)
        crew_lists = [default_crews(net), _second_crews(net, garage)]
        self._assert_agree(net, scenario, ("max_flow", "centrality"), crew_lists)

    @pytest.mark.parametrize("seed", [6, 8, 23, 38])
    def test_deadlock_break_seeds(self, net, seed):
        # seeds 6, 8 and 38 are test_traffic's scheduler-ledger seeds,
        # where the road crew is sent across blocked links; at seed 23 it
        # is not: the power crew is stuck, and the road crew, free at the
        # same instant, takes the next link of its own order
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=6), seed=seed)
        crew_lists = [default_crews(net), _second_crews(net)]
        self._assert_agree(net, scenario, ("max_flow", "centrality"), crew_lists)

    @pytest.mark.parametrize("seed", [1, 2, 12])
    def test_mpc_pool_scenarios(self, net, seed):
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=6), seed=seed)
        self._assert_agree(net, scenario, STRATEGIES, [default_crews(net), _second_crews(net)])


class TestRunScenario:
    def test_unknown_strategy_rejected(self, net):
        scenario = _scenario([("PL5", "full")])
        with pytest.raises(RecoveryError, match="strategy"):
            run_scenario(net, scenario, "wishful_thinking")

    @pytest.mark.parametrize("strategy", ["max_flow", "mpc"])
    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected_before_planning(self, net, monkeypatch, horizon, strategy):
        def refuse(*args, **kwargs):
            raise AssertionError("planning context built for a non-finite horizon")

        monkeypatch.setattr(simulation, "build_planning_context", refuse)
        with pytest.raises(SimulationError, match="not finite"):
            run_scenario(net, _scenario([("PL5", "full")]), strategy, horizon=horizon)

    @pytest.mark.parametrize("failures", [[("PL5", "full")], []])
    def test_mpc_horizon_below_one_rejected_before_planning(self, net, monkeypatch, failures):
        def refuse(*args, **kwargs):
            raise AssertionError("planning context built for an mpc horizon below 1")

        monkeypatch.setattr(simulation, "build_planning_context", refuse)
        for mpc_horizon in (0, -1):
            with pytest.raises(RecoveryError, match="horizon"):
                run_scenario(net, _scenario(failures), "mpc", mpc_horizon=mpc_horizon)

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
