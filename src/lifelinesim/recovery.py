"""Repair crews, ranking strategies, and receding-horizon sequencing.

Four heuristics order the failed components of each network: by peak
pre-disaster flow, by edge betweenness on the network's own graph, by
congested travel time from the crew's start, or by land-use zone
priority. The alternative is a receding-horizon optimizer, a rollout
of the max_flow order: it enumerates orderings of each network's next
repairs, completes each with the rest of its current plan, simulates
each complete plan through the full pipeline, and commits one repair
at a time. It never scores above the order it starts from.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import permutations
from types import MappingProxyType
from typing import Callable, Mapping

from .hydraulics import solve_hydraulics
from .network import (
    NETWORKS,
    STATUS_FAILED,
    TRAFFIC,
    IntegratedNetwork,
    access_node,
)
from .powerflow import dispatch_key, solve_power
from .traffic import TrafficState, assign_traffic, link_times_key, road_distances

STRATEGIES = ("max_flow", "centrality", "crew_distance", "zone")

# seconds to repair one component, by kind; overridable per run
REPAIR_DURATIONS = {
    "pipe": 4 * 3600.0,
    "pump": 8 * 3600.0,
    "line": 3 * 3600.0,
    "transformer": 6 * 3600.0,
    "road_link": 12 * 3600.0,
}

MPC_CANDIDATE_LIMIT = 10_000


class RecoveryError(Exception):
    pass


def repair_duration(kind: str, overrides: dict[str, float] | None = None) -> float:
    table = {**REPAIR_DURATIONS, **(overrides or {})}
    try:
        duration = table[kind]
    except KeyError:
        raise RecoveryError(f"no repair duration for component kind {kind!r}") from None
    if not (math.isfinite(duration) and duration > 0):
        raise RecoveryError(f"repair duration for {kind!r} must be positive")
    return duration


@dataclass
class Crew:
    """A repair unit serving one network, garaged at a traffic node.

    ``build_event_table`` takes a list of crews, any number per network,
    with distinct ids; the earliest free (``busy_until``, then ``id``)
    goes next, unless it can reach none of its work and another crew is
    free at the same instant."""

    id: str
    network: str
    location: str
    busy_until: float = 0.0


def default_crews(net: IntegratedNetwork, start: str | None = None) -> list[Crew]:
    """One crew per network, garaged at the highest-priority zone.

    The CLI schedules with these. For more crews, pass a longer list as
    ``crews``, each with its own id."""
    if start is None:
        zones = sorted(z.id for z in net.nodes_of(TRAFFIC))
        if not zones:
            raise RecoveryError("network has no traffic nodes to garage crews at")
        start = min(zones, key=lambda z: (-net.zone_priority_of(z), z))
    return [Crew(id=f"{k}-crew-1", network=k, location=start) for k in NETWORKS]


# ---------------------------------------------------------------------------
# planning context: everything the ranking criteria look at


@dataclass(frozen=True)
class PlanningContext:
    """What the ranking criteria look at: ``peak_flow``, each
    component's peak pre-disaster flow, and ``crew_travel``, each
    network's ``crew_distances`` table under the post-failure road state
    from the garage of its least-id crew, so the order of the crews
    changes no ranking. Both are the network memo's read-only tables,
    shared by every context built on the network."""
    peak_flow: Mapping[str, float]
    crew_travel: dict[str, Mapping[str, float]]


def road_assignment(net: IntegratedNetwork, road_state: frozenset) -> TrafficState:
    """The assignment under ``road_state``
    (``IntegratedNetwork.service_key(TRAFFIC, ...)``), solved once per
    network and road state: the memo entry ``link_times_key``."""
    return net.cached(link_times_key(road_state), lambda: assign_traffic(net, net.key_statuses(road_state)))


def crew_distances(
    net: IntegratedNetwork,
    origin: str,
    road_state: frozenset,
    failed_factor: float | None = None,
) -> Mapping[str, float]:
    """``road_distances`` from ``origin`` under ``road_state``
    (``IntegratedNetwork.service_key(TRAFFIC, ...)``).

    Without ``failed_factor``, links take the congested times of that
    state's assignment (``road_assignment``) and blocked links are
    impassable: a crew's normal choice. With one, links take free-flow
    times and a blocked link costs ``failed_factor`` x its free-flow
    time: the deadlock break. Found once per network, origin, road
    state and factor: the memo entry ``("crew_distances", ...)``. Every
    later call on the network shares it, so it is a read-only view."""

    def compute() -> Mapping[str, float]:
        times = road_assignment(net, road_state).link_time if failed_factor is None else None
        return MappingProxyType(road_distances(net, origin, net.key_statuses(road_state), times, failed_factor))

    return net.cached(("crew_distances", origin, road_state, failed_factor), compute)


def build_planning_context(
    net: IntegratedNetwork,
    crews: list[Crew] | None = None,
    failed: set[str] | frozenset[str] = frozenset(),
) -> PlanningContext:
    """Pre-disaster flow solutions plus crew travel times.

    Peak flows come from undisrupted solver runs (an hour of hydraulics
    to catch tank-driven drift, one dispatch, one assignment). They
    depend only on the network, so they are solved once per network and
    shared by later calls; the dispatch and the assignment are the memo
    entries that runs read for their undisrupted and fully repaired
    states. Travel times are congested times under the post-failure road
    state, keyed here once, since that is what a crew leaving its garage
    actually faces. Its assignment is solved here, so its errors raise
    here, and its crew distances are the memo entries that
    ``build_event_table`` reads for its first crew choices.
    """
    crews = crews if crews is not None else default_crews(net)
    peak = net.cached(("peak_flow",), lambda: MappingProxyType(_peak_flows(net)))
    road_state = net.service_key(TRAFFIC, {cid: STATUS_FAILED for cid in failed})
    garages = {c.network: c.location for c in sorted(crews, key=lambda c: c.id, reverse=True)}
    travel = {network: crew_distances(net, garage, road_state) for network, garage in garages.items()}
    return PlanningContext(peak_flow=peak, crew_travel=travel)


def _peak_flows(net: IntegratedNetwork) -> dict[str, float]:
    peak: dict[str, float] = {}

    states = solve_hydraulics(net, {}, duration=3600.0, step=60.0)
    for lid in states[0].link_flow:
        peak[lid] = max(abs(s.link_flow[lid]) for s in states)

    power = net.cached(dispatch_key(net), lambda: solve_power(net, {}))
    for bid, q in power.line_flow.items():
        peak[bid] = abs(q)

    for lid, x in road_assignment(net, frozenset()).link_flow.items():
        peak[lid] = abs(x)
    return peak


# ---------------------------------------------------------------------------
# ranking strategies


def edge_betweenness(
    nodes: list[str],
    edges: dict[str, tuple[str, str]],
    directed: bool = False,
) -> dict[str, float]:
    """Exact unweighted edge betweenness via Brandes accumulation.

    Scores count each unordered source/target pair once (a path graph
    a-b-c gives both edges a score of 2). Parallel edges are collapsed
    for path counting and each member of the bundle receives the full
    bundle score, since they are interchangeable for ranking.
    """
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    bundle: dict[tuple[str, str], list[str]] = {}
    for eid in sorted(edges):
        a, b = edges[eid]
        bundle.setdefault((a, b), []).append(eid)
        if not directed:
            bundle.setdefault((b, a), []).append(eid)
    for a, b in bundle:
        adj[a].append(b)
    score: dict[str, float] = {eid: 0.0 for eid in edges}

    for source in nodes:
        # single-source BFS with path counting
        sigma = {n: 0.0 for n in nodes}
        sigma[source] = 1.0
        dist = {source: 0}
        parents: dict[str, list[str]] = {n: [] for n in nodes}
        order = []
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    parents[w].append(v)
        # back-propagate pair dependencies
        delta = {n: 0.0 for n in nodes}
        for w in reversed(order):
            for v in parents[w]:
                share = sigma[v] / sigma[w] * (1.0 + delta[w])
                for eid in bundle[(v, w)]:
                    score[eid] += share
                delta[v] += share
    if not directed:
        for eid in score:
            score[eid] /= 2.0
    return score


def _network_betweenness(net: IntegratedNetwork, network: str) -> dict[str, float]:
    def compute() -> dict[str, float]:
        nodes = [c.id for c in net.nodes_of(network)]
        edges = {c.id: c.ends for c in net.edges_of(network)}
        return edge_betweenness(nodes, edges, directed=(network == TRAFFIC))

    return net.cached(("betweenness", network), compute)


def _peak(context: PlanningContext, component_id: str) -> float:
    try:
        return context.peak_flow[component_id]
    except KeyError:
        raise RecoveryError(
            f"context has no pre-disaster flow for {component_id!r}; "
            "build it with build_planning_context"
        ) from None


def rank_components(
    net: IntegratedNetwork,
    failed: set[str] | frozenset[str] | list[str],
    strategy: str,
    context: PlanningContext,
) -> dict[str, list[str]]:
    """Order each network's failed components under one strategy.

    Returns a per-network permutation of the failed ids. Ties beyond the
    criterion fall back to lexicographic id order, so the result is
    deterministic.
    """
    if strategy not in STRATEGIES:
        raise RecoveryError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    comps = [net.component(cid) for cid in sorted(set(failed))]
    by_network: dict[str, list] = {}
    for c in comps:
        by_network.setdefault(c.network, []).append(c)

    out: dict[str, list[str]] = {}
    for network in sorted(by_network):
        group = by_network[network]
        if strategy == "max_flow":
            key = lambda c: (-_peak(context, c.id), c.id)
        elif strategy == "centrality":
            scores = _network_betweenness(net, network)
            key = lambda c: (-scores.get(c.id, 0.0), c.id)
        elif strategy == "crew_distance":
            if network not in context.crew_travel:
                raise RecoveryError(f"crew_distance needs crew travel times for {network} in the context")
            travel = context.crew_travel[network]
            key = lambda c: (travel[access_node(net, c.id)], c.id)
        else:  # zone
            key = lambda c: (
                -net.zone_priority_of(access_node(net, c.id)), -_peak(context, c.id), c.id
            )
        out[network] = [c.id for c in sorted(group, key=key)]
    return out


# ---------------------------------------------------------------------------
# receding-horizon optimizer


def mpc_sequence(
    base: dict[str, list[str]],
    horizon: int,
    evaluate: Callable[[dict[str, list[str]]], float],
) -> dict[str, list[str]]:
    """Roll out the ``base`` orders, committing one repair at a time.

    The search keeps one complete repair order per network, its plan,
    starting from ``base`` (the max_flow ranking, by convention). In
    round ``step`` each network with more than one component left after
    its committed prefix ``plan[network][:step]`` tries every
    length-``horizon`` ordering of those components as its next repairs,
    followed by the rest of its plan in plan order. Each candidate is
    the whole plan with that network's order replaced, scored with
    ``evaluate`` (weighted outage hours over the full simulation
    pipeline; lower is better). The best becomes the network's plan,
    which commits its next repair; ties keep the first candidate in
    sorted enumeration order. A network with one component left commits
    it unscored, since no other choice exists.

    This is a rollout of the base heuristic (Bertsekas, Tsitsiklis & Wu,
    "Rollout algorithms for combinatorial optimization", J. Heuristics
    3(3), 1997). The current plan is always one of a step's candidates,
    and the first step's plan is ``base`` itself. So each step's best
    value is at most the last step's, and the returned plan scores at
    most ``evaluate(base)``, at any ``horizon``. The bound holds at the
    evaluator's own fixed horizon, not at a final run's
    ``default_horizon``.
    """
    if horizon < 1:
        raise RecoveryError("prediction horizon must be >= 1")
    plan = {network: list(order) for network, order in base.items()}

    for network, ids in plan.items():
        count = math.perm(len(ids), min(horizon, len(ids)))
        if count > MPC_CANDIDATE_LIMIT:
            raise RecoveryError(
                f"{count} candidate orderings of {network} exceed the {MPC_CANDIDATE_LIMIT} "
                "limit; use a heuristic strategy (max_flow, centrality, crew_distance, "
                "zone) for disruptions this large"
            )

    for step in range(max(map(len, plan.values()), default=0)):
        for network in sorted(plan):
            left = plan[network][step:]
            if len(left) < 2:  # nothing left, or forced: nothing to compare
                continue
            best_value: float | None = None
            for candidate in permutations(sorted(left), min(horizon, len(left))):
                order = plan[network][:step] + list(candidate) + [c for c in left if c not in candidate]
                value = evaluate({**plan, network: order})
                if best_value is None or value < best_value:
                    best_value, best_order = value, order
            plan[network] = best_order
    return plan
