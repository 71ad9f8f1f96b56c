"""Network schema, validation rules, status transitions, and access lookups."""

import copy
import math
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelinesim.hydraulics import WaterSimulator, solve_hydraulics
from lifelinesim.network import (
    Component,
    Dependency,
    IntegratedNetwork,
    NetworkError,
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
from lifelinesim.powerflow import solve_power
from lifelinesim.testbed import build_simple_testbed
from lifelinesim.traffic import assign_traffic, road_distances


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

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_schema_version_must_be_the_int_one(self, net, version):
        doc = network_to_dict(net)
        doc["schema_version"] = version
        with pytest.raises(NetworkError, match="unsupported schema_version"):
            network_from_dict(doc)


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

    @pytest.mark.parametrize("component_id, fields", [
        ("W1", {"ends": ("W2", "GHOST")}),  # a node kind
        ("PLD1", {"ends": ("B1", "B2")}),  # an attached kind
        ("WP-W1-W2", {"buses": ("B1",)}),  # an edge kind
        ("T1", {"buses": ()}),
    ])
    def test_fields_of_another_role_flagged(self, net, component_id, fields):
        comps = [replace(c, **fields) if c.id == component_id else c for c in net.components]
        stray = IntegratedNetwork(comps, net.dependencies, od_matrix=net.od_matrix, zone_priority=net.zone_priority)
        violations = validate_network(stray)
        assert [(v.component_id, v.rule) for v in violations] == [(component_id, "role-fields")]

    @pytest.mark.parametrize("component_id, new_id", [("WP-W1-W2", "WP-W1-W2::b"), ("W5", "WP-W1-W2::leak")])
    def test_reserved_ids_flagged(self, net, component_id, new_id):
        # the water solver would read a pipe named P::b as the outlet half
        # of a broken pipe P, and report zero flow through it
        def renamed(cid):
            return new_id if cid == component_id else cid

        comps = [
            replace(c, id=renamed(c.id), ends=c.ends and tuple(map(renamed, c.ends)))
            for c in net.components
        ]
        deps = [replace(d, source_id=renamed(d.source_id), target_id=renamed(d.target_id)) for d in net.dependencies]
        violations = validate_network(IntegratedNetwork(comps, deps, od_matrix=net.od_matrix, zone_priority=net.zone_priority))
        assert [(v.component_id, v.rule) for v in violations] == [(new_id, "reserved-id")]

    @pytest.mark.parametrize("component_id, status", [
        ("B9", STATUS_FAILED), ("PLD3", STATUS_FAILED), ("PM1", STATUS_REPAIRED),
        ("WT1", STATUS_UNDER_REPAIR), ("WR1", STATUS_FAILED), ("W1", STATUS_FAILED), ("T1", STATUS_FAILED),
    ])
    def test_status_no_solver_reads_flagged(self, net, component_id, status):
        comps = [replace(c, status=status) if c.id == component_id else c for c in net.components]
        marked = IntegratedNetwork(comps, net.dependencies, od_matrix=net.od_matrix, zone_priority=net.zone_priority)
        violations = validate_network(marked)
        assert [(v.component_id, v.rule) for v in violations] == [(component_id, "status-kind")]

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
    # attrs of each rule in KINDS: positive, non-negative, any finite
    # number (a tank level, a generator cost) and optional (a demand
    # node's elevation)
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


def _with_od(net, orig, dest, volume):
    od = {o: dict(row) for o, row in net.od_matrix.items()}
    od[orig][dest] = volume
    return IntegratedNetwork(net.components, net.dependencies, od_matrix=od, zone_priority=net.zone_priority)


class TestOdVolume:
    @pytest.mark.parametrize("volume, message", [
        (math.inf, "demand to T3 is inf, not a finite number"),
        (math.nan, "demand to T3 is nan, not a finite number"),
        ("12", "demand to T3 is '12', not a finite number"),
        (-1.0, "negative demand to T3"),
    ], ids=["inf", "nan", "string", "negative"])
    def test_flagged_once(self, net, volume, message):
        violations = validate_network(_with_od(net, "T1", "T3", volume))
        assert [(v.component_id, v.rule, v.message) for v in violations] == [("T1", "od-volume", message)]


def _paths(value, path=()):
    """Every path into a JSON value, the empty path to the value itself."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


_DOC = network_to_dict(build_simple_testbed())
_BAD_VALUES = st.one_of(
    st.text(max_size=3),
    st.sampled_from([[], ["B1"], {}, {"id": "X"}, None, True, False, math.nan, math.inf]),
)


class TestLoaderShapes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(path=st.sampled_from(list(_paths(_DOC))), value=_BAD_VALUES)
    def test_one_bad_value_loads_or_raises_network_error(self, path, value):
        # the README promises one error line for any malformed document
        doc = copy.deepcopy(_DOC)
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
        try:
            network_from_dict(doc)
        except NetworkError:
            pass


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


class TestStatusMaps:
    """A status map the network cannot read is rejected at every entry
    that takes one, naming the id and the status, instead of being
    ignored or read as a failure."""

    ENTRIES = {
        "service_key": lambda net, statuses: net.service_key(POWER, statuses),
        "solve_power": solve_power,
        "assign_traffic": assign_traffic,
        "road_distances": lambda net, statuses: road_distances(net, "T1", statuses),
        "set_statuses": lambda net, statuses: WaterSimulator(net).set_statuses(statuses),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "component_id, status",
        # an unknown id read as no change, misspelled statuses read as a
        # failure, and statuses no solver reads
        [
            ("PL55", STATUS_FAILED), ("PL5", "repaird"), ("TL-T5-T6", "repaird"), ("WP-W1-W2", "Failed"),
            ("B9", STATUS_FAILED), ("PLD3", STATUS_FAILED), ("WT1", STATUS_FAILED), ("W1", STATUS_FAILED),
            ("T1", STATUS_FAILED),
        ],
    )
    def test_unknown_id_or_status_raises(self, net, entry, component_id, status):
        with pytest.raises(NetworkError) as info:
            self.ENTRIES[entry](net, {"PL5": STATUS_REPAIRED, component_id: status})
        assert repr(component_id) in str(info.value) and repr(status) in str(info.value)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_operational_is_read_on_any_kind(self, net, entry):
        self.ENTRIES[entry](net, {cid: STATUS_OPERATIONAL for cid in ("B9", "PLD3", "WT1", "W1", "T1", "PL5")})

    # entry -> (call, a forced-off set it accepts): power forces off its
    # sources, water its pipes and pumps
    FORCED_OFF_ENTRIES = {
        "solve_power": (lambda net, off: solve_power(net, {}, forced_off=off), {"PG1"}),
        "WaterSimulator": (lambda net, off: WaterSimulator(net, forced_off=off), {"WPU1", "WP-W1-W2"}),
        "set_statuses": (lambda net, off: WaterSimulator(net).set_statuses({}, forced_off=off), {"WPU1", "WP-W1-W2"}),
        "solve_hydraulics": (
            lambda net, off: solve_hydraulics(net, {}, 60.0, 60.0, forced_off=off), {"WPU1", "WP-W1-W2"}
        ),
    }

    @pytest.mark.parametrize("entry, component_id", [
        *(("solve_power", cid) for cid in ("PG11", "WPU1", "PL5", "B1", "PLD1", "PM1")),
        *(
            (entry, cid)
            for entry in ("WaterSimulator", "set_statuses", "solve_hydraulics")
            for cid in ("WPU11", "PG1", "WT1", "WR1", "W1", "T1")
        ),
    ])
    def test_unknown_or_wrong_kind_forced_off_raises(self, net, entry, component_id):
        call, accepted = self.FORCED_OFF_ENTRIES[entry]
        call(net, accepted)
        with pytest.raises(NetworkError, match=f"forced-off {component_id!r}"):
            call(net, accepted | {component_id})

    def test_in_service_reads_the_map_then_the_component(self, net):
        assert net.in_service("PL5", {})
        assert not net.in_service("PL5", {"PL5": STATUS_UNDER_REPAIR})
        assert net.in_service("PL5", {"PL5": STATUS_REPAIRED})
        marked = IntegratedNetwork([replace(c, status=STATUS_FAILED) if c.id == "PL5" else c for c in net.components])
        assert not marked.in_service("PL5", {"TL-T5-T6": STATUS_FAILED})


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
