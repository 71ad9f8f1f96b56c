"""Traffic assignment: analytic two-link equilibrium, convergence, reroutes,
and the array all-or-nothing step and crew routing against a per-origin
heap Dijkstra."""

import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import brentq

from lifelinesim import graphs, recovery, simulation, traffic
from lifelinesim.hazard import HazardEvent, sample_scenario
from lifelinesim.network import (
    IN_SERVICE,
    TRAFFIC,
    Component,
    IntegratedNetwork,
    access_node,
    component_location,
    nearest_zone,
)
from lifelinesim.recovery import build_planning_context, crew_distances, default_crews, rank_components
from lifelinesim.testbed import build_simple_testbed
from lifelinesim.traffic import (
    TrafficAssignmentError,
    TrafficParams,
    assign_traffic,
    road_distances,
)

# Analytic user equilibrium of the two-link fixture: equal travel times
# t1(x) = t2(d - x) with BPR alpha 0.15, beta 4 (brentq to 1e-12).
TWO_LINK_X1 = 1090.7574240732913
TWO_LINK_DEMAND = 1500.0


def _two_link_oracle():
    t1 = lambda x: 100.0 * (1.0 + 0.15 * (x / 1000.0) ** 4)
    t2 = lambda x: 120.0 * (1.0 + 0.15 * (x / 800.0) ** 4)
    return brentq(lambda x: t1(x) - t2(TWO_LINK_DEMAND - x), 0.0, TWO_LINK_DEMAND, xtol=1e-12)


class TestTwoLinkEquilibrium:
    def test_frozen_oracle_reproducible(self):
        assert _two_link_oracle() == pytest.approx(TWO_LINK_X1, abs=1e-9)

    def test_assignment_matches_analytic(self, two_link_net):
        state = assign_traffic(two_link_net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))
        assert state.link_flow["R1"] == pytest.approx(TWO_LINK_X1, rel=1e-6)
        assert state.link_flow["R2"] == pytest.approx(TWO_LINK_DEMAND - TWO_LINK_X1, rel=1e-6)

    def test_equal_travel_times_at_equilibrium(self, two_link_net):
        state = assign_traffic(two_link_net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))
        assert state.link_time["R1"] == pytest.approx(state.link_time["R2"], rel=1e-6)

    def test_symmetric_links_split_evenly(self):
        from lifelinesim.network import Component, IntegratedNetwork, TRAFFIC

        comps = [
            Component("A", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("B", TRAFFIC, "zone_node", (1000.0, 0.0)),
            Component("R1", TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 100.0, "capacity": 1000.0}, ends=("A", "B")),
            Component("R2", TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 100.0, "capacity": 1000.0}, ends=("A", "B")),
        ]
        net = IntegratedNetwork(comps, [], od_matrix={"A": {"B": 1000.0}})
        state = assign_traffic(net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))
        assert state.link_flow["R1"] == pytest.approx(500.0, abs=1e-3)
        assert state.link_flow["R2"] == pytest.approx(500.0, abs=1e-3)


class TestConvergence:
    def test_beckmann_objective_non_increasing(self, monkeypatch, net):
        # each iterate is the flow an iteration passes to _bpr just before
        # its all-or-nothing call; the line search's calls come after it
        last, iterates = [], []
        bpr, step = traffic._bpr, traffic._AllOrNothing.__call__

        def recorded_bpr(x, *args):
            last[:] = [x]
            return bpr(x, *args)

        def recorded_step(self, times):
            iterates.extend(last)
            return step(self, times)

        monkeypatch.setattr(traffic, "_bpr", recorded_bpr)
        monkeypatch.setattr(traffic._AllOrNothing, "__call__", recorded_step)
        state = assign_traffic(net)
        assert len(iterates) == state.iterations >= 1
        assert iterates[-1].tolist() == list(state.link_flow.values())

        prm = TrafficParams()
        links = sorted(net.components_of(TRAFFIC, "road_link"), key=lambda c: c.id)
        t0 = np.array([c.attrs["free_flow_time"] for c in links])
        cap = np.array([c.attrs["capacity"] for c in links])
        hist = [
            float(np.sum(t0 * x + t0 * prm.alpha * cap / (prm.beta + 1.0) * (x / cap) ** (prm.beta + 1.0)))
            for x in iterates
        ]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_gap_below_tolerance(self, net):
        params = TrafficParams(gap_tol=1e-5, max_iterations=2000)
        state = assign_traffic(net, params=params)
        assert state.relative_gap <= 1e-5

    def test_deterministic(self, net):
        a = assign_traffic(net)
        b = assign_traffic(net)
        assert a.link_flow == b.link_flow

    def test_flow_conservation(self, net):
        # total vehicle-trips on links >= total OD demand (every trip uses
        # at least one link), and every link flow is nonnegative
        state = assign_traffic(net)
        total_demand = sum(sum(d.values()) for d in net.od_matrix.values())
        assert sum(state.link_flow.values()) >= total_demand - 1e-6
        assert all(f >= -1e-12 for f in state.link_flow.values())


class TestDisruption:
    def test_failed_link_carries_nothing(self, net):
        state = assign_traffic(net, {"TL-T5-T2": "failed"})
        assert state.link_flow.get("TL-T5-T2", 0.0) == 0.0
        # grid stays connected: no OD pair becomes unreachable
        assert not state.unreachable

    def test_failure_worsens_total_time(self, net):
        base = assign_traffic(net)
        broken = assign_traffic(net, {"TL-T5-T2": "failed"})
        cost = lambda st: sum(st.link_flow[k] * st.link_time[k] for k in st.link_flow)
        assert cost(broken) >= cost(base) - 1e-6

    def test_unreachable_od_flagged(self, two_link_net):
        state = assign_traffic(two_link_net, {"R1": "failed", "R2": "failed"})
        assert ("A", "B") in state.unreachable

    def test_free_flow_times_with_no_demand(self, blockage_net):
        state = assign_traffic(blockage_net)
        for lid, t in state.link_time.items():
            assert t == pytest.approx(60.0, abs=1e-12), lid

    def test_shortest_travel_time(self, blockage_net):
        state = assign_traffic(blockage_net)
        dist = road_distances(blockage_net, "Z1", {}, state.link_time)
        assert dist["Z3"] == pytest.approx(120.0, abs=1e-9)
        assert dist["Z1"] == 0.0


def _adjacency(links, zone_ids, times) -> graphs.Adjacency:
    adj: graphs.Adjacency = {z: [] for z in zone_ids}
    for k, c in enumerate(links):
        adj[c.ends[0]].append((c.ends[1], float(times[k]), c.id))
    return adj


def _traffic_adjacency(net, statuses, link_times=None, failed_factor=None) -> graphs.Adjacency:
    """Oracle road adjacency weighted by travel time: in-service links at
    their ``link_times`` entry or free-flow time; out-of-service links
    skipped, or kept at ``failed_factor`` x free-flow time."""
    adj: graphs.Adjacency = {c.id: [] for c in net.nodes_of(TRAFFIC)}
    for link in net.components_of(TRAFFIC, "road_link"):
        a, b = link.ends
        if statuses.get(link.id, link.status) in IN_SERVICE:
            adj[a].append((b, (link_times or {}).get(link.id, link.attrs["free_flow_time"]), link.id))
        elif failed_factor is not None:
            adj[a].append((b, failed_factor * link.attrs["free_flow_time"], link.id))
    return adj


def _heap_road_distances(net, origin, statuses, link_times=None, failed_factor=None):
    """Oracle for ``road_distances``: one heap Dijkstra, inf where cut off."""
    dist, _ = graphs.dijkstra(_traffic_adjacency(net, statuses, link_times, failed_factor), origin)
    return {z.id: dist.get(z.id, math.inf) for z in net.nodes_of(TRAFFIC)}


class _HeapAllOrNothing:
    """Oracle: the all-or-nothing step as one ``graphs.dijkstra`` per
    origin and a walk of each OD path through the predecessor dicts."""

    def __init__(self, links, demands, zone_ids):
        self.links, self.demands, self.zone_ids = links, demands, zone_ids
        self.lidx = {c.id: k for k, c in enumerate(links)}
        self.unreachable = set()

    def __call__(self, times):
        y = np.zeros(len(self.links))
        sptt = 0.0
        adj = _adjacency(self.links, self.zone_ids, times)
        by_origin = {}
        for orig, dest, v in self.demands:
            by_origin.setdefault(orig, []).append((dest, v))
        for orig in sorted(by_origin):
            dist, pred = graphs.dijkstra(adj, orig)
            for dest, v in by_origin[orig]:
                if dest not in dist:
                    self.unreachable.add((orig, dest))
                    continue
                sptt += v * dist[dest]
                node = dest
                while node != orig:
                    node, eid = pred[node]
                    y[self.lidx[eid]] += v
        return y, sptt


def _outcome(net, statuses, params):
    """The assignment's fields and, per iteration, the loads and SPTT of
    its all-or-nothing call; or the error text."""
    calls = []

    class Recorded(traffic._AllOrNothing):
        def __call__(self, times):
            y, sptt = super().__call__(times)
            calls.append((y.tolist(), sptt))
            return y, sptt

    with pytest.MonkeyPatch.context() as m:
        m.setattr(traffic, "_AllOrNothing", Recorded)
        try:
            s = assign_traffic(net, statuses, params)
        except TrafficAssignmentError as exc:
            return str(exc)
    return (s.link_flow, s.link_time, s.relative_gap, s.iterations, calls, s.unreachable)


def _assert_same_as_heap(monkeypatch, net, statuses=None, params=None):
    new = _outcome(net, statuses, params)
    with monkeypatch.context() as m:
        m.setattr(traffic, "_AllOrNothing", _HeapAllOrNothing)
        old = _outcome(net, statuses, params)
    assert new == old
    return new


def _lattice(rows, cols, t0=60.0, isolated=False):
    """Two-way road lattice with equal free-flow times and all-pairs
    demand, so most zones have several exactly tied shortest paths.
    Volumes are not whole numbers, so a link's load depends on the order
    in which its OD pairs are added. Link ids sort by descending tail,
    so link order alone does not give the heap's tie order."""
    zones = [f"Z{r}{c}" for r in range(rows) for c in range(cols)]
    comps = [Component(z, TRAFFIC, "zone_node", (1000.0 * (k % cols), 1000.0 * (k // cols)))
             for k, z in enumerate(zones)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    a, b = f"Z{r}{c}", f"Z{r + dr}{c + dc}"
                    for frm, to in ((a, b), (b, a)):
                        lid = f"L{len(zones) - zones.index(frm):02d}-{frm}-{to}"
                        comps.append(Component(lid, TRAFFIC, "road_link", (0, 0),
                                               {"free_flow_time": t0, "capacity": 400.0}, ends=(frm, to)))
    if isolated:
        zones.append("ZX")
        comps.append(Component("ZX", TRAFFIC, "zone_node", (-1000.0, -1000.0)))
    od = {o: {d: 40.0 + (i * 7 + j) % 10 / 3.0 for j, d in enumerate(zones) if d != o}
          for i, o in enumerate(zones)}
    return IntegratedNetwork(comps, [], od_matrix=od)


class TestArrayAllOrNothing:
    """The array step reproduces the heap step's trees, sums and errors."""

    def test_testbed_under_sampled_road_failures(self, monkeypatch, net):
        roads = sorted(c.id for c in net.components_of(TRAFFIC, "road_link"))
        rng = random.Random(7)
        cut_off = 0
        for k in range(12):
            failed = rng.sample(roads, k % 6)
            outcome = _assert_same_as_heap(monkeypatch, net, {r: "failed" for r in failed})
            cut_off += bool(outcome[-1])
        assert cut_off  # some samples leave OD pairs without a path

    def test_tie_lattice(self, monkeypatch):
        outcome = _assert_same_as_heap(monkeypatch, _lattice(4, 4), params=TrafficParams(gap_tol=5e-3))
        assert outcome[3] > 50
        # at the default tolerance this lattice stops at the iteration cap
        outcome = _assert_same_as_heap(monkeypatch, _lattice(4, 4))
        assert outcome.startswith("no equilibrium after 500 iterations")

    def test_tie_lattice_with_failures(self, monkeypatch):
        net = _lattice(4, 4)
        road = {c.ends: c.id for c in net.components_of(TRAFFIC, "road_link")}
        _assert_same_as_heap(monkeypatch, net, {road["Z11", "Z12"]: "failed", road["Z21", "Z11"]: "failed"})

    def test_parallel_links(self, monkeypatch, two_link_net):
        _assert_same_as_heap(monkeypatch, two_link_net)
        _assert_same_as_heap(monkeypatch, two_link_net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))

    def test_tied_parallel_links(self, monkeypatch):
        comps = [
            Component("A", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("B", TRAFFIC, "zone_node", (1000.0, 0.0)),
        ] + [
            Component(lid, TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 100.0, "capacity": 1000.0}, ends=("A", "B"))
            for lid in ("R2", "R1", "R3")
        ]
        # the unvalidated self-demand A->A loads nothing and costs nothing
        net = IntegratedNetwork(comps, [], od_matrix={"A": {"A": 7.0, "B": 1000.0}})
        outcome = _assert_same_as_heap(monkeypatch, net, params=TrafficParams(gap_tol=1e-10, max_iterations=5000))
        assert outcome[3] > 1

    def test_unreachable_pair(self, monkeypatch):
        outcome = _assert_same_as_heap(monkeypatch, _lattice(3, 3, isolated=True))
        assert ("Z00", "ZX") in outcome[-1] and ("ZX", "Z00") in outcome[-1]

    def test_links_but_no_loadable_pair(self, monkeypatch):
        # A->B has no path and A->A loads nothing, so no path is walked
        comps = [
            Component("A", TRAFFIC, "zone_node", (0.0, 0.0)),
            Component("B", TRAFFIC, "zone_node", (1000.0, 0.0)),
            Component("R1", TRAFFIC, "road_link", (0, 0),
                      {"free_flow_time": 100.0, "capacity": 1000.0}, ends=("B", "A")),
        ]
        net = IntegratedNetwork(comps, [], od_matrix={"A": {"A": 7.0, "B": 1000.0}})
        outcome = _assert_same_as_heap(monkeypatch, net)
        assert outcome[0] == {"R1": 0.0} and outcome[-1] == [("A", "B")]

    def test_iteration_cap_error_text(self, monkeypatch, net):
        outcome = _assert_same_as_heap(monkeypatch, net, {"TL-T5-T2": "failed"}, TrafficParams(max_iterations=2))
        assert outcome.startswith("no equilibrium after 2 iterations")

    def test_distances_match_networkx(self):
        net = _lattice(4, 4, isolated=True)
        links = sorted(net.components_of(TRAFFIC, "road_link"), key=lambda c: c.id)
        demands = [(o, d, v) for o in sorted(net.od_matrix) for d, v in sorted(net.od_matrix[o].items())]
        aon = traffic._AllOrNothing(links, demands, [z.id for z in net.nodes_of(TRAFFIC)])
        t0 = np.array([c.attrs["free_flow_time"] for c in links])
        for times in (t0, t0 * (1.0 + np.arange(len(links)) % 3 / 7.0)):
            g = nx.DiGraph()
            g.add_nodes_from(aon.nodes)
            g.add_weighted_edges_from((c.ends[0], c.ends[1], t) for c, t in zip(links, times))
            dist = aon.road.distances(times, aon.origins)
            for i, o in enumerate(aon.origins):
                want = nx.single_source_dijkstra_path_length(g, aon.nodes[o])
                got = {z: d for z, d in zip(aon.nodes, dist[i]) if np.isfinite(d)}
                assert got == want


def _assert_distances_match_heap(net, statuses, link_times=None, failed_factor=None) -> int:
    """Every origin's distances equal the heap oracle's; returns how many
    (origin, node) pairs are cut off."""
    cut_off = 0
    for origin in net.nodes_of(TRAFFIC):
        got = road_distances(net, origin.id, statuses, link_times, failed_factor)
        assert got == _heap_road_distances(net, origin.id, statuses, link_times, failed_factor)
        cut_off += sum(math.isinf(d) for d in got.values())
    return cut_off


class TestRoadDistances:
    """Crew routing on the compiled road graph gives the heap's floats."""

    def test_testbed_under_sampled_road_failures(self, net):
        roads = sorted(c.id for c in net.components_of(TRAFFIC, "road_link"))
        rng = random.Random(11)
        cut_off = {None: 0, 5.0: 0}
        for k in range(12):
            statuses = {r: "failed" for r in rng.sample(roads, k % 6)}
            congested = assign_traffic(net, statuses).link_time
            for link_times in (congested, None):
                for factor in cut_off:
                    cut_off[factor] += _assert_distances_match_heap(net, statuses, link_times, factor)
        assert cut_off[None] and not cut_off[5.0]

    def test_tie_lattice(self):
        net = _lattice(4, 4, isolated=True)
        road = {c.ends: c.id for c in net.components_of(TRAFFIC, "road_link")}
        congested = assign_traffic(net, params=TrafficParams(gap_tol=5e-3)).link_time
        for statuses in ({}, {road["Z11", "Z12"]: "failed", road["Z21", "Z11"]: "failed"}):
            for link_times in (congested, None):
                for factor in (None, 5.0):
                    assert _assert_distances_match_heap(net, statuses, link_times, factor)

    def test_parallel_links_of_different_times(self, two_link_net):
        for statuses in ({}, {"R1": "failed"}, {"R1": "failed", "R2": "failed"}):
            for link_times in (None, {"R1": 130.0, "R2": 125.0}):
                for factor in (None, 5.0):
                    _assert_distances_match_heap(two_link_net, statuses, link_times, factor)
        assert road_distances(two_link_net, "A", {})["B"] == 100.0
        assert road_distances(two_link_net, "A", {}, {"R1": 130.0, "R2": 125.0})["B"] == 125.0
        assert road_distances(two_link_net, "A", {"R1": "failed"})["B"] == 120.0
        both = {"R1": "failed", "R2": "failed"}
        assert road_distances(two_link_net, "A", both)["B"] == math.inf
        assert road_distances(two_link_net, "A", both, failed_factor=5.0)["B"] == 500.0
        assert road_distances(two_link_net, "B", {}) == {"A": math.inf, "B": 0.0}

    def test_origin_must_be_a_traffic_node(self, blockage_net):
        with pytest.raises(ValueError, match="'PW' is not a traffic node"):
            road_distances(blockage_net, "PW", {})

    FORCE_ROAD_CREW = (True, 5.0)  # (no congested times, factor)

    @pytest.mark.parametrize(
        "seed, fallbacks", [(6, {FORCE_ROAD_CREW}), (8, {FORCE_ROAD_CREW}), (38, {FORCE_ROAD_CREW})]
    )
    def test_scheduler_ledgers(self, monkeypatch, net, seed, fallbacks):
        """``build_event_table`` books the same ledger when crews route on
        the heap oracle, for the max_flow and centrality orders, each of
        which forces the road crew to a blocked link. Each routing
        schedules on a fresh network, so that neither reads the crew
        distances the other left in the memo."""
        event = HazardEvent(kind="random", intensity="extreme", count=6)
        scenario = sample_scenario(net, event, seed=seed)
        failed = {f.component_id for f in scenario.failures}
        context = build_planning_context(net, default_crews(net), failed)
        orders = [rank_components(net, failed, strategy, context) for strategy in ("max_flow", "centrality")]
        calls = []

        def recorded(net, origin, statuses, link_times=None, failed_factor=None):
            calls.append((link_times is None, failed_factor))
            return road_distances(net, origin, statuses, link_times, failed_factor)

        def ledgers(routing):
            fresh = build_simple_testbed()
            with monkeypatch.context() as m:
                m.setattr(recovery, "road_distances", routing)
                return [simulation.build_event_table(fresh, scenario, o).rows for o in orders]

        assert ledgers(recorded) == ledgers(_heap_road_distances)
        assert {c for c in calls if c[1] is not None} == fallbacks


@pytest.fixture(scope="module")
def crew_queries(net):
    """Every crew-distance query the scheduler can make on a seeded
    6-failure scenario with three failed road links, with its answer from
    fresh ``road_distances`` calls: each road state, keyed by
    ``service_key`` (each failed link failed, under repair or repaired),
    each origin, and each metric (congested; free-flow crossing blocked
    links at 5x)."""
    scenario = sample_scenario(net, HazardEvent(kind="random", intensity="extreme", count=6), seed=1)
    failed = {f.component_id: "failed" for f in scenario.failures}
    roads = sorted(cid for cid in failed if net.component(cid).kind == "road_link")
    assert len(roads) == 3
    queries = []
    for flags in itertools.product(("failed", "under_repair", "repaired"), repeat=len(roads)):
        statuses = {**failed, **dict(zip(roads, flags))}
        congested = assign_traffic(net, statuses).link_time
        for origin in net.nodes_of(TRAFFIC):
            for factor in (None, simulation.BLOCKED_ROAD_FACTOR):
                times = congested if factor is None else None
                want = road_distances(net, origin.id, statuses, times, factor)
                queries.append(((origin.id, net.service_key(TRAFFIC, statuses), factor), want))
    return queries


@pytest.mark.parametrize("order", [0, 1, 2])
def test_memoized_crew_routing_equals_fresh(net, crew_queries, order):
    """Crew distances and access nodes read from the memo equal fresh
    ``road_distances`` and ``nearest_zone`` results in any call order,
    road states that differ only in status names share one entry, and a
    caller cannot change a shared distance table."""
    rng = random.Random(order)
    queries = rng.sample(crew_queries, len(crew_queries))
    components = rng.sample([c.id for c in net.components], len(net.components))
    memo = build_simple_testbed()
    for query, cid in itertools.zip_longest(queries, components):
        if cid is not None:
            assert access_node(memo, cid) == nearest_zone(net, component_location(net.component(cid), net))
        if query is not None:
            args, want = query
            got = crew_distances(memo, *args)
            assert got == want
            assert crew_distances(memo, *args) is got
            with pytest.raises(TypeError):  # shared by every later call, so read-only
                got[args[0]] = 0.0
    kinds = [key[0] for key in memo._memo]
    # 9 origins x 8 road states (a link under repair keys like a failed one) x 2 metrics
    assert kinds.count("crew_distances") == 9 * 8 * 2
    assert kinds.count("access_node") == len(net.components)
