"""Repair ranking strategies, crew defaults, and receding-horizon search."""

import networkx as nx
import pytest

from lifelinesim import recovery, simulation
from lifelinesim.hazard import ComponentFailure, DisasterScenario, HazardEvent, sample_scenario
from lifelinesim.network import (
    Component,
    IntegratedNetwork,
    POWER,
    TRAFFIC,
    WATER,
)
from lifelinesim.recovery import (
    MPC_CANDIDATE_LIMIT,
    RecoveryError,
    REPAIR_DURATIONS,
    STRATEGIES,
    build_planning_context,
    default_crews,
    edge_betweenness,
    mpc_sequence,
    rank_components,
    repair_duration,
)
from lifelinesim.simulation import run_scenario
from lifelinesim.testbed import build_simple_testbed
from lifelinesim.traffic import TrafficAssignmentError


@pytest.fixture(scope="module")
def sites_net():
    """Four zones in a line, one pipe reachable at Z2 and one at Z4.

    The Z4 pair is deliberately left unconnected to a source (a dead
    group): ranking only needs its location and zone, not its flow.
    """
    comps = [Component(f"Z{i}", TRAFFIC, "zone_node", ((i - 1) * 100.0, 0.0)) for i in range(1, 5)]
    for a, b in (("Z1", "Z2"), ("Z2", "Z3"), ("Z3", "Z4")):
        for frm, to in ((a, b), (b, a)):
            comps.append(Component(f"RL-{frm}-{to}", TRAFFIC, "road_link", (0, 0),
                                   {"free_flow_time": 60.0, "capacity": 1e9}, ends=(frm, to)))
    comps += [
        Component("WR", WATER, "reservoir", (95.0, 20.0), {"head": 30.0}),
        Component("JA", WATER, "demand_node", (105.0, 20.0),
                  {"base_demand": 0.01, "elevation": 0.0}),
        Component("PW-A", WATER, "pipe", (0, 0),
                  {"length": 100.0, "diameter": 0.25, "roughness": 120.0}, ends=("WR", "JA")),
        Component("JC", WATER, "demand_node", (295.0, 20.0),
                  {"base_demand": 0.01, "elevation": 0.0}),
        Component("JD", WATER, "demand_node", (305.0, 20.0),
                  {"base_demand": 0.01, "elevation": 0.0}),
        Component("PW-B", WATER, "pipe", (0, 0),
                  {"length": 100.0, "diameter": 0.25, "roughness": 120.0}, ends=("JC", "JD")),
    ]
    priority = {"Z1": 1, "Z2": 1, "Z3": 1, "Z4": 3}
    return IntegratedNetwork(comps, [], od_matrix={}, zone_priority=priority)


class TestDurationsAndCrews:
    def test_default_durations(self):
        assert REPAIR_DURATIONS == {
            "pipe": 4 * 3600.0,
            "pump": 8 * 3600.0,
            "line": 3 * 3600.0,
            "transformer": 6 * 3600.0,
            "road_link": 12 * 3600.0,
        }
        assert repair_duration("pipe") == 14400.0
        assert repair_duration("pipe", {"pipe": 60.0}) == 60.0

    def test_unknown_kind_raises(self):
        with pytest.raises(RecoveryError):
            repair_duration("bus")

    def test_default_crews_garage_at_top_priority_zone(self, net):
        crews = default_crews(net)
        assert [c.id for c in crews] == ["water-crew-1", "power-crew-1", "traffic-crew-1"]
        assert all(c.location == "T5" for c in crews)  # priority 3 beats the rest
        assert all(c.busy_until == 0.0 for c in crews)

    def test_default_crews_custom_start(self, net):
        crews = default_crews(net, start="T1")
        assert all(c.location == "T1" for c in crews)

    def test_priority_tie_breaks_lexicographically(self, sites_net):
        # drop the priority map: all zones tie at 1 -> Z1 wins by id
        flat = IntegratedNetwork(list(sites_net.components), [], od_matrix={})
        crews = default_crews(flat)
        assert all(c.location == "Z1" for c in crews)


class TestNetworkBetweenness:
    def test_scores_are_graph_edge_betweenness(self, net):
        # networkx scores node pairs on a simple graph; the testbed has no
        # parallel edges, so each edge's score is its networkx score
        for network in ("water", "power", "traffic"):
            graph = nx.DiGraph() if network == TRAFFIC else nx.Graph()
            graph.add_nodes_from(c.id for c in net.nodes_of(network))
            edges = {c.id: c.ends for c in net.edges_of(network)}
            graph.add_edges_from(edges.values())
            assert graph.number_of_edges() == len(edges)
            want = nx.edge_betweenness_centrality(graph, normalized=False)
            if network != TRAFFIC:
                want |= {(b, a): score for (a, b), score in want.items()}
            got = recovery._network_betweenness(net, network)
            want = {eid: want[ends] for eid, ends in edges.items()}
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_edge_betweenness_path_graph():
    # On a-b-c every pair's shortest path uses the adjacent edges:
    # (a,b) and (b,c) use one edge each, (a,c) uses both -> score 2 and 2.
    scores = edge_betweenness(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    assert scores == {"e1": 2.0, "e2": 2.0}


def test_edge_betweenness_star():
    # Star center x with leaves a,b,c: each spoke carries its own pair
    # plus two of the three leaf-leaf pairs -> 1 + 2 = 3.
    edges = {"xa": ("x", "a"), "xb": ("x", "b"), "xc": ("x", "c")}
    scores = edge_betweenness(["x", "a", "b", "c"], edges)
    assert scores == {"xa": 3.0, "xb": 3.0, "xc": 3.0}


def test_edge_betweenness_directed_cycle():
    # Directed triangle: every ordered pair has exactly one path; each
    # edge serves its own pair and appears in two of the two-hop paths
    # (as first hop of one, second hop of another) -> 3 each.
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")}
    scores = edge_betweenness(["a", "b", "c"], edges, directed=True)
    assert scores == {"ab": 3.0, "bc": 3.0, "ca": 3.0}


def test_edge_betweenness_split_paths():
    # Two equal-length two-hop routes between a and d share the pair
    # weight evenly.
    edges = {
        "ab": ("a", "b"),
        "bd": ("b", "d"),
        "ac": ("a", "c"),
        "cd": ("c", "d"),
    }
    scores = edge_betweenness(["a", "b", "c", "d"], edges)
    # pairs: (a,b)=ab, (a,c)=ac, (a,d) split, (b,d)=bd, (c,d)=cd,
    # (b,c) two equal routes through a or d, split again.
    assert scores["ab"] == pytest.approx(1.0 + 0.5 + 0.5)
    assert scores["ab"] == scores["ac"] == scores["bd"] == scores["cd"]


@pytest.fixture(scope="module")
def testbed_ctx(net):
    failed = {"PL1", "PL5", "WP-W1-W2", "WP-W8-W9", "TL-T5-T2", "TL-T1-T4"}
    return failed, build_planning_context(net, default_crews(net), failed)


class TestRanking:
    def test_returns_permutation_per_network(self, net, testbed_ctx):
        failed, ctx = testbed_ctx
        for strategy in STRATEGIES:
            order = rank_components(net, failed, strategy, ctx)
            assert set(order) == {WATER, POWER, TRAFFIC}
            assert sorted(order[WATER]) == ["WP-W1-W2", "WP-W8-W9"]
            assert sorted(order[POWER]) == ["PL1", "PL5"]
            assert sorted(order[TRAFFIC]) == ["TL-T1-T4", "TL-T5-T2"]

    def test_deterministic(self, net, testbed_ctx):
        failed, ctx = testbed_ctx
        for strategy in STRATEGIES:
            a = rank_components(net, failed, strategy, ctx)
            b = rank_components(net, failed, strategy, ctx)
            assert a == b

    def test_max_flow_prefers_heavy_feeder(self, net, testbed_ctx):
        failed, ctx = testbed_ctx
        order = rank_components(net, failed, "max_flow", ctx)
        # PL1 carries the two west loads (35 MW); PL5 only the 2 MW motor
        assert order[POWER] == ["PL1", "PL5"]

    def test_unknown_strategy_raises(self, net, testbed_ctx):
        failed, ctx = testbed_ctx
        with pytest.raises(RecoveryError):
            rank_components(net, failed, "alphabetical", ctx)

    def test_centrality_prefers_middle_link(self, sites_net):
        failed = {"RL-Z1-Z2", "RL-Z2-Z3"}
        ctx = build_planning_context(sites_net, default_crews(sites_net, start="Z1"), failed)
        order = rank_components(sites_net, failed, "centrality", ctx)
        # the middle link lies on more shortest paths than the end link
        assert order[TRAFFIC] == ["RL-Z2-Z3", "RL-Z1-Z2"]

    def test_crew_distance_prefers_nearer_site(self, sites_net):
        failed = {"PW-A", "PW-B"}
        crews = default_crews(sites_net, start="Z1")
        ctx = build_planning_context(sites_net, crews, failed)
        order = rank_components(sites_net, failed, "crew_distance", ctx)
        # PW-A is reachable at Z2 (60 s from Z1), PW-B at Z4 (180 s)
        assert order[WATER] == ["PW-A", "PW-B"]

    def test_zone_priority_overrides_distance(self, sites_net):
        failed = {"PW-A", "PW-B"}
        crews = default_crews(sites_net, start="Z1")
        ctx = build_planning_context(sites_net, crews, failed)
        order = rank_components(sites_net, failed, "zone", ctx)
        # PW-B sits in priority-3 zone Z4; PW-A in priority-1 zone Z2
        assert order[WATER] == ["PW-B", "PW-A"]

    def test_ties_fall_back_to_id_order(self, net):
        # two parallel road links between the same zones carry identical
        # flow and centrality: every strategy must order them by id
        failed = {"TL-T4-T5", "TL-T5-T4"}
        ctx = build_planning_context(net, default_crews(net), failed)
        for strategy in ("crew_distance",):
            order = rank_components(net, failed, strategy, ctx)
            assert order[TRAFFIC] == sorted(failed)

    def test_full_seed7_orders_are_permutations(self, net):
        event = HazardEvent(kind="point", intensity="extreme",
                            center=(1000.0, 1000.0), radius=1500.0)
        scen = sample_scenario(net, event, seed=7)
        failed = {f.component_id for f in scen.failures}
        ctx = build_planning_context(net, default_crews(net), failed)
        for strategy in STRATEGIES:
            order = rank_components(net, failed, strategy, ctx)
            combined = [c for ids in order.values() for c in ids]
            assert sorted(combined) == sorted(failed)


class TestMpcSequence:
    def test_finds_exact_target_with_full_horizon(self):
        target = {"water": ["b", "c", "a"]}

        def evaluate(order):
            seq = order.get("water", [])
            return sum(
                abs(i - target["water"].index(c)) for i, c in enumerate(seq)
            ) + 10.0 * (3 - len(seq))

        result = mpc_sequence({"water": ["a", "b", "c"]}, 3, evaluate)
        assert result == target

    def test_greedy_horizon_one(self):
        # cost favors committing 'c' first, then 'a', then 'b'
        rank = {"c": 0, "a": 1, "b": 2}

        def evaluate(order):
            seq = order.get("water", [])
            return sum((i + 1) * rank[c] for i, c in enumerate(seq))

        result = mpc_sequence({"water": ["a", "b", "c"]}, 1, evaluate)
        assert result == {"water": ["c", "a", "b"]}

    def test_tie_keeps_lexicographically_first(self):
        calls = []

        def evaluate(order):
            calls.append(tuple(order["water"]))
            return 0.0  # every candidate ties

        result = mpc_sequence({"water": ["b", "a"]}, 2, evaluate)
        # strict < keeps the first candidate, which enumerates in sorted order
        assert result == {"water": ["a", "b"]}
        assert calls[0] == ("a", "b")

    def test_horizon_capped_at_remaining(self):
        def evaluate(order):
            return float(len(order.get("water", [])))

        result = mpc_sequence({"water": ["x", "y"]}, 99, evaluate)
        assert sorted(result["water"]) == ["x", "y"]

    def test_candidate_limit_guard(self):
        ids = [f"c{i}" for i in range(9)]
        with pytest.raises(RecoveryError, match="limit"):
            mpc_sequence({"water": ids}, 5, lambda order: 0.0)  # P(9,5) = 15120

    def test_multi_network_coordinate_descent(self):
        # verify other networks follow the completion order during search
        seen = []

        def evaluate(order):
            seen.append({k: tuple(v) for k, v in order.items()})
            return sum(i * ord(c[-1]) for k in order for i, c in enumerate(order[k]))

        result = mpc_sequence(
            {"water": ["w1", "w2"], "power": ["p1"]},
            1,
            evaluate,
            completion={"water": ["w2", "w1"], "power": ["p1"]},
        )
        assert sorted(result["water"]) == ["w1", "w2"]
        assert result["power"] == ["p1"]
        # during water's first commit, power must appear in completion order
        water_first = [s for s in seen if len(s["water"]) == 1 and s["power"] == ("p1",)]
        assert water_first

    def test_forced_choices_are_not_scored(self):
        calls = []

        def evaluate(order):
            calls.append({k: tuple(v) for k, v in order.items()})
            return sum(i * ord(c[-1]) for k in order for i, c in enumerate(order[k]))

        result = mpc_sequence({"water": ["w1", "w2", "w3"], "power": ["p1"]}, 2, evaluate)
        # P(3, 2) candidates, then P(2, 2); power's only component and
        # water's last one are committed unscored
        assert len(calls) == 6 + 2
        # the order scoring those two as well commits
        assert result == {"water": ["w2", "w3", "w1"], "power": ["p1"]}

    def test_one_failure_per_network_is_never_scored(self, monkeypatch):
        def refuse(order):
            raise AssertionError(f"forced choice scored: {order}")

        failed = {"water": ["WP-W1-W2"], "power": ["PL1"], "traffic": ["TL-T5-T2"]}
        assert mpc_sequence(failed, 2, refuse) == failed
        # through the pipeline: only the final order is simulated, and it
        # is the only order there is
        net = build_simple_testbed()
        event = HazardEvent(kind="random", intensity="moderate", count=3, occurrence_time=3600.0)
        failures = tuple(ComponentFailure(ids[0], 3600.0, "full") for ids in failed.values())
        scenario = DisasterScenario(event=event, failures=failures, seed=0, intensity="moderate")
        simulates = []
        simulate = simulation.simulate
        monkeypatch.setattr(simulation, "simulate", lambda *a, **k: simulates.append(a) or simulate(*a, **k))
        result = run_scenario(net, scenario, "mpc")
        assert len(simulates) == 1
        assert result.event_table == run_scenario(net, scenario, "max_flow").event_table

    def test_invalid_horizon(self):
        with pytest.raises(RecoveryError):
            mpc_sequence({"water": ["a"]}, 0, lambda order: 0.0)

    def test_candidate_limit_boundary(self):
        # P(n, k) exactly at the limit passes; the evaluator then runs
        ids = [f"c{i}" for i in range(7)]  # P(7,5) = 2520 <= 10000
        result = mpc_sequence({"water": ids}, 5, lambda order: len(order["water"]))
        assert sorted(result["water"]) == sorted(ids)
        assert MPC_CANDIDATE_LIMIT == 10_000


class TestPlanningContext:
    def test_travel_time_cached_and_positive(self, net):
        failed = {"WP-W1-W2"}
        ctx = build_planning_context(net, default_crews(net), failed)
        t1 = ctx.travel_time("T5", "T2")
        t2 = ctx.travel_time("T5", "T2")
        assert t1 == t2
        assert t1 > 0.0
        assert ctx.travel_time("T5", "T5") == 0.0

    def test_peak_flows_cover_failed_components(self, net):
        failed = {"PL1", "WP-W1-W2", "TL-T5-T2"}
        ctx = build_planning_context(net, default_crews(net), failed)
        for cid in failed:
            assert cid in ctx.peak_flow
            assert ctx.peak_flow[cid] >= 0.0
        assert ctx.peak_flow["PL1"] == pytest.approx(35.0, abs=1e-6)

    @staticmethod
    def _post_failure_assignment_raises(monkeypatch, exc):
        """Undisrupted assignments (peak flows) solve; the post-failure one raises."""
        real_assign = recovery.assign_traffic

        def assign_traffic(net, statuses, **kwargs):
            if statuses:
                raise exc
            return real_assign(net, statuses, **kwargs)

        monkeypatch.setattr(recovery, "assign_traffic", assign_traffic)

    def test_failed_assignment_propagates(self, monkeypatch):
        self._post_failure_assignment_raises(monkeypatch, TrafficAssignmentError("no equilibrium"))
        net = build_simple_testbed()
        with pytest.raises(TrafficAssignmentError, match="no equilibrium"):
            build_planning_context(net, default_crews(net), {"TL-T5-T2"})
        scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=3), seed=1)
        for strategy in ("max_flow", "mpc"):
            with pytest.raises(TrafficAssignmentError, match="no equilibrium"):
                run_scenario(net, scenario, strategy)

    def test_other_assignment_errors_propagate(self, monkeypatch):
        self._post_failure_assignment_raises(monkeypatch, ValueError("bad demand"))
        net = build_simple_testbed()
        with pytest.raises(ValueError, match="bad demand"):
            build_planning_context(net, default_crews(net), {"TL-T5-T2"})
