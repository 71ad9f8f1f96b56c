"""Network schema, validation rules, status transitions, and access lookups."""

import math
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelinesim.network import (
    _NONNEGATIVE_ATTRS,
    _POSITIVE_ATTRS,
    _REQUIRED_ATTRS,
    Component,
    Dependency,
    IntegratedNetwork,
    POWER,
    STATUS_FAILED,
    STATUS_OPERATIONAL,
    STATUS_REPAIRED,
    STATUS_UNDER_REPAIR,
    TRAFFIC,
    WATER,
    access_node,
    check_transition,
    component_location,
    component_roots,
    load_network,
    nearest_zone,
    network_from_dict,
    network_to_dict,
    save_network,
    validate_network,
)
from lifelinesim.traffic import road_distances


class TestTestbedShape:
    def test_power_component_counts(self, net):
        counts = {}
        for c in net.components_of(POWER):
            counts[c.kind] = counts.get(c.kind, 0) + 1
        assert counts == {
            "bus": 9,
            "load": 3,
            "motor": 1,
            "external_grid": 1,
            "line": 5,
            "transformer": 2,
        }

    def test_water_component_counts(self, net):
        counts = {}
        for c in net.components_of(WATER):
            counts[c.kind] = counts.get(c.kind, 0) + 1
        assert counts == {
            "pipe": 12,
            "demand_node": 9,
            "pump": 1,
            "tank": 1,
            "reservoir": 1,
        }

    def test_traffic_component_counts(self, net):
        counts = {}
        for c in net.components_of(TRAFFIC):
            counts[c.kind] = counts.get(c.kind, 0) + 1
        assert counts == {"zone_node": 9, "road_link": 22}

    def test_has_motor_pump_dependency(self, net):
        kinds = {d.kind for d in net.dependencies}
        assert "motor_drives_pump" in kinds

    def test_validates_clean(self, net):
        assert validate_network(net) == []

    def test_every_lifeline_component_near_traffic(self, net):
        zones = [c for c in net.nodes_of(TRAFFIC)]
        for comp in net.components_of(WATER) + net.components_of(POWER):
            loc = component_location(comp, net)
            dmin = min(math.dist(loc, z.location) for z in zones)
            assert dmin < 1500.0, f"{comp.id} is {dmin:.0f} m from any zone"


class TestSerialization:
    def test_dict_round_trip(self, net):
        doc = network_to_dict(net)
        assert doc["schema_version"] == 1
        again = network_from_dict(doc)
        assert network_to_dict(again) == doc

    def test_file_round_trip(self, net, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(net, path)
        again = load_network(path)
        assert network_to_dict(again) == network_to_dict(net)

    def test_make_testbed_file_matches_builder(self, net, tmp_path):
        from lifelinesim import cli

        assert cli.main(["make-testbed", "--out", str(tmp_path)]) == 0
        path = tmp_path / "simple_testbed.json"
        written = load_network(str(path))
        assert network_to_dict(written) == network_to_dict(net)
        save_network(written, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _with_dependency(net, source, target, kind, extra=()):
    return IntegratedNetwork(
        [*net.components, *extra], [*net.dependencies, Dependency(source, target, kind)],
        od_matrix=net.od_matrix, zone_priority=net.zone_priority,
    )


class TestValidation:
    def test_bus_cannot_drive_a_pump(self, net):
        # only a motor's state is checked by the replay, never a bus's
        violations = validate_network(_with_dependency(net, "B9", "WPU1", "motor_drives_pump"))
        assert [(v.component_id, v.rule) for v in violations] == [("B9", "dependency-kind")]

    def test_reservoir_cannot_feed_a_generator(self, net):
        # a reservoir never runs dry, so the coupling could never act
        pgen = Component("PGEN", POWER, "generator", (-500.0, -320.0),
                         {"max_mw": 5.0, "cost": 1.0}, buses=("B9",))
        fed = _with_dependency(net, "WR1", "PGEN", "reservoir_feeds_generator", [pgen])
        violations = validate_network(fed)
        assert [(v.component_id, v.rule) for v in violations] == [("WR1", "dependency-kind")]

    def test_road_access_is_not_a_dependency_kind(self, net):
        violations = validate_network(_with_dependency(net, "T5", "PL5", "road_provides_access"))
        assert [(v.component_id, v.rule) for v in violations] == [("T5", "dependency-kind")]
        assert "unknown kind" in violations[0].message

    def test_dangling_dependency_target(self):
        comps = [
            Component("B1", POWER, "bus", (0.0, 0.0)),
            Component("M1", POWER, "motor", (0.0, 1.0), {"demand_mw": 1.0}, buses=("B1",)),
        ]
        net = IntegratedNetwork(comps, [Dependency("M1", "NOPE", "motor_drives_pump")])
        violations = validate_network(net)
        assert any("NOPE" in v.message or v.component_id == "NOPE" for v in violations)

    def test_same_network_dependency_flagged(self):
        comps = [
            Component("B1", POWER, "bus", (0.0, 0.0)),
            Component("B2", POWER, "bus", (1.0, 0.0)),
            Component("M1", POWER, "motor", (0.0, 1.0), {"demand_mw": 1.0}, buses=("B1",)),
            Component("M2", POWER, "motor", (1.0, 1.0), {"demand_mw": 1.0}, buses=("B2",)),
        ]
        net = IntegratedNetwork(comps, [Dependency("M1", "M2", "motor_drives_pump")])
        violations = validate_network(net)
        assert len(violations) >= 1

    def test_dangling_edge_end(self):
        comps = [
            Component("W1", WATER, "demand_node", (0.0, 0.0), {"base_demand": 0.01, "elevation": 0.0}),
            Component("P1", WATER, "pipe", (0, 0),
                      {"length": 10.0, "diameter": 0.2, "roughness": 100.0}, ends=("W1", "GONE")),
        ]
        violations = validate_network(IntegratedNetwork(comps, []))
        assert any("GONE" in v.message for v in violations)

    def test_duplicate_ids_flagged(self):
        comps = [
            Component("X", WATER, "demand_node", (0.0, 0.0), {"base_demand": 0.01, "elevation": 0.0}),
            Component("X", WATER, "demand_node", (1.0, 0.0), {"base_demand": 0.01, "elevation": 0.0}),
        ]
        violations = validate_network(IntegratedNetwork(comps, []))
        assert any(v.rule == "unique-id" for v in violations)


def _with_attr(net, component_id, attr, value):
    comps = [replace(c, attrs={**c.attrs, attr: value}) if c.id == component_id else c for c in net.components]
    return IntegratedNetwork(comps, net.dependencies, od_matrix=net.od_matrix, zone_priority=net.zone_priority)


class TestNumericAttrs:
    # one attr named by each of the required, positive and non-negative
    # tables, a tank level, and a demand node's optional elevation
    @pytest.mark.parametrize("component_id, attr", [
        ("W1", "base_demand"), ("W1", "elevation"), ("WP-W1-W2", "length"),
        ("WT1", "min_level"), ("PG1", "cost"), ("PLD1", "demand_mw"),
    ])
    @pytest.mark.parametrize("value", [None, "7", True, math.nan, math.inf])
    def test_non_number_flagged_once(self, net, component_id, attr, value):
        violations = validate_network(_with_attr(net, component_id, attr, value))
        assert [(v.component_id, v.rule) for v in violations] == [(component_id, "numeric-attr")]
        assert attr in violations[0].message

    def test_int_values_pass(self, net):
        assert validate_network(_with_attr(net, "W1", "elevation", 3)) == []
        assert validate_network(_with_attr(net, "WP-W1-W2", "length", 1000)) == []

    def test_sign_checked_attrs_are_required(self):
        # the numeric rule reads the required table alone for these
        for table in (_POSITIVE_ATTRS, _NONNEGATIVE_ATTRS):
            assert all(set(attrs) <= set(_REQUIRED_ATTRS[kind]) for kind, attrs in table.items())


_IDS = st.text("abcdefgh", min_size=1, max_size=3)


class TestComponentRoots:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(nodes=st.lists(_IDS, min_size=1, max_size=12, unique=True), data=st.data())
    def test_matches_networkx(self, nodes, data):
        # self-loops, duplicate edges and either orientation are all drawn
        ends = st.sampled_from(nodes)
        edges = data.draw(st.lists(st.tuples(ends, ends), max_size=20))
        roots = component_roots(nodes, edges)
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        want = {n: min(comp) for comp in nx.connected_components(graph) for n in comp}
        assert roots == want


class TestStatusTransitions:
    @pytest.mark.parametrize(
        "old,new",
        [
            (STATUS_OPERATIONAL, STATUS_FAILED),
            (STATUS_FAILED, STATUS_UNDER_REPAIR),
            (STATUS_UNDER_REPAIR, STATUS_REPAIRED),
        ],
    )
    def test_legal(self, old, new):
        check_transition(old, new)  # should not raise

    @pytest.mark.parametrize(
        "old,new",
        [
            (STATUS_FAILED, STATUS_OPERATIONAL),
            (STATUS_OPERATIONAL, STATUS_REPAIRED),
            (STATUS_UNDER_REPAIR, STATUS_FAILED),
            (STATUS_REPAIRED, STATUS_UNDER_REPAIR),
            (STATUS_REPAIRED, STATUS_FAILED),  # repaired is terminal in a run
            ("bogus", STATUS_FAILED),
        ],
    )
    def test_illegal(self, old, new):
        with pytest.raises(ValueError):
            check_transition(old, new)


class TestTrafficAdjacency:
    """The road graph's link weights, read as crew travel times."""

    def test_failed_link_removed(self, blockage_net):
        dist = road_distances(blockage_net, "Z2", {"RL-Z2-Z3": STATUS_FAILED})
        assert dist["Z3"] == math.inf
        assert dist["Z4"] == math.inf
        assert dist["Z1"] == pytest.approx(60.0)

    def test_failed_factor_keeps_link_at_penalty(self, blockage_net):
        dist = road_distances(blockage_net, "Z2", {"RL-Z2-Z3": STATUS_FAILED}, failed_factor=5.0)
        assert dist["Z3"] == pytest.approx(300.0)  # 60 s at 5x
        assert dist["Z1"] == pytest.approx(60.0)

    def test_link_time_override(self, blockage_net):
        dist = road_distances(blockage_net, "Z1", {}, link_times={"RL-Z1-Z2": 99.0})
        assert dist["Z2"] == pytest.approx(99.0)


class TestLookups:
    def test_access_node_uses_edge_midpoint(self, blockage_net):
        # PW spans (190,20)-(210,20): midpoint (200,20) is nearest Z3.
        assert access_node(blockage_net, "PW") == "Z3"

    def test_access_node_road_link_tie_breaks_lexicographically(self, blockage_net):
        # RL-Z2-Z3 midpoint (150,0) is equidistant from Z2 and Z3.
        assert access_node(blockage_net, "RL-Z2-Z3") == "Z2"

    def test_nearest_zone(self, net):
        assert nearest_zone(net, (0.0, 0.0)) == "T1"
        assert nearest_zone(net, (1990.0, 2010.0)) == "T9"

    def test_hazard_eligible_kinds(self, net):
        kinds = {c.kind for c in net.hazard_eligible()}
        assert kinds == {"pipe", "line", "road_link"}

    def test_zone_priority_defaults_to_one(self, net):
        assert net.zone_priority_of("T5") == 3
        assert net.zone_priority_of("T1") == 1
        assert net.zone_priority_of("NOPE") == 1

    def test_consumers(self, net):
        water_ids = {c.id for c in net.consumers(WATER)}
        assert water_ids == {f"W{i}" for i in range(1, 10)}
        power_ids = {c.id for c in net.consumers(POWER)}
        assert power_ids == {"PLD1", "PLD2", "PLD3", "PM1"}
