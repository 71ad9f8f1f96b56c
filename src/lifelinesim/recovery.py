"""Repair crews, ranking strategies, and receding-horizon sequencing.

Four heuristics order the failed components of each network: by peak
pre-disaster flow, by edge betweenness on the network's own graph, by
congested travel time from the crew's start, or by land-use zone
priority. The alternative is a receding-horizon optimizer that
enumerates candidate orderings, simulates each through the full
pipeline, and commits one repair at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from . import graphs
from .hydraulics import solve_hydraulics
from .network import (
    NETWORKS,
    STATUS_FAILED,
    TRAFFIC,
    IntegratedNetwork,
    access_node,
    traffic_adjacency,
)
from .powerflow import solve_power
from .traffic import TrafficAssignmentError, assign_traffic, link_times_key

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
    if duration <= 0:
        raise RecoveryError(f"repair duration for {kind!r} must be positive")
    return duration


@dataclass
class Crew:
    """A repair unit serving one network, garaged at a traffic node."""

    id: str
    network: str
    location: str
    busy_until: float = 0.0


def default_crews(net: IntegratedNetwork, start: str | None = None) -> list[Crew]:
    """One crew per network, garaged at the highest-priority zone."""
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
    peak_flow: dict[str, float]
    crew_start: dict[str, str]
    travel_time: Callable[[str, str], float] | None = None


def _post_failure_travel(net, statuses) -> Callable[[str, str], float]:
    """Congested origin->destination times under current road conditions."""
    try:
        times = net.cached(
            link_times_key(net, statuses), lambda: assign_traffic(net, statuses).link_time
        )
    except TrafficAssignmentError:
        times = None  # fall back to free-flow weights
    adj = traffic_adjacency(net, statuses, times)
    dist_cache: dict[str, dict[str, float]] = {}

    def travel(origin: str, destination: str) -> float:
        if origin not in dist_cache:
            dist_cache[origin] = graphs.dijkstra(adj, origin)[0]
        return dist_cache[origin].get(destination, math.inf)

    return travel


def build_planning_context(
    net: IntegratedNetwork,
    crews: list[Crew] | None = None,
    failed: set[str] | frozenset[str] = frozenset(),
) -> PlanningContext:
    """Pre-disaster flow solutions plus crew starts.

    Peak flows come from undisrupted solver runs (an hour of hydraulics
    to catch tank-driven drift, one dispatch, one assignment). They
    depend only on the network, so they are solved once per network and
    shared by later calls. Travel times are congested times under the
    post-failure road network, since that is what a crew leaving its
    garage actually faces; the assignment behind them is solved once
    per network and set of road-link statuses, and shared with
    ``build_event_table``.
    """
    crews = crews if crews is not None else default_crews(net)
    peak = net.cached(("peak_flow",), lambda: _peak_flows(net))
    statuses = {cid: STATUS_FAILED for cid in failed}
    return PlanningContext(
        peak_flow=dict(peak),
        crew_start={c.network: c.location for c in crews},
        travel_time=_post_failure_travel(net, statuses),
    )


def _peak_flows(net: IntegratedNetwork) -> dict[str, float]:
    peak: dict[str, float] = {}

    states = solve_hydraulics(net, {}, duration=3600.0, step=60.0)
    for lid in states[0].link_flow:
        peak[lid] = max(abs(s.link_flow[lid]) for s in states)

    power = solve_power(net, {})
    for bid, q in power.line_flow.items():
        peak[bid] = abs(q)

    flows = assign_traffic(net, {})
    for lid, x in flows.link_flow.items():
        peak[lid] = abs(x)
    return peak


# ---------------------------------------------------------------------------
# ranking strategies


def _network_betweenness(net: IntegratedNetwork, network: str) -> dict[str, float]:
    def compute() -> dict[str, float]:
        nodes = [c.id for c in net.nodes_of(network)]
        edges = {c.id: c.ends for c in net.edges_of(network)}
        return graphs.edge_betweenness(nodes, edges, directed=(network == TRAFFIC))

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
            if context.travel_time is None or network not in context.crew_start:
                raise RecoveryError("crew_distance needs crew starts and travel times in the context")
            start = context.crew_start[network]
            key = lambda c: (context.travel_time(start, access_node(net, c.id)), c.id)
        else:  # zone
            key = lambda c: (
                -net.zone_priority_of(access_node(net, c.id)), -_peak(context, c.id), c.id
            )
        out[network] = [c.id for c in sorted(group, key=key)]
    return out


# ---------------------------------------------------------------------------
# receding-horizon optimizer


def _permutation_count(n: int, k: int) -> int:
    total = 1
    for i in range(k):
        total *= n - i
    return total


def mpc_sequence(
    failed_by_network: dict[str, list[str]],
    horizon: int,
    evaluate: Callable[[dict[str, list[str]]], float],
    completion: dict[str, list[str]] | None = None,
    max_candidates: int = MPC_CANDIDATE_LIMIT,
) -> dict[str, list[str]]:
    """Commit one repair at a time by enumerating k-step orderings.

    Each iteration enumerates every length-``horizon`` ordering of one
    network's remaining components, scores each candidate with
    ``evaluate`` (a weighted-outage-hours evaluator over the full
    simulation pipeline; lower is better), and commits only the first
    element of the best ordering. Networks take turns committing so
    multi-network scenarios are handled by coordinate descent: while one
    network's ordering is being optimized, the others follow their
    committed repairs plus the ``completion`` order (peak-flow ranking
    by convention) for the remainder.

    The candidate passed to ``evaluate`` maps network -> repair order;
    the optimized network's order may cover only the horizon, leaving
    later repairs unscheduled within that evaluation.
    """
    if horizon < 1:
        raise RecoveryError("prediction horizon must be >= 1")
    remaining = {k: sorted(v) for k, v in failed_by_network.items() if v}
    committed: dict[str, list[str]] = {k: [] for k in remaining}
    completion = completion or {k: sorted(v) for k, v in remaining.items()}

    for network, ids in remaining.items():
        k_eff = min(horizon, len(ids))
        count = _permutation_count(len(ids), k_eff)
        if count > max_candidates:
            raise RecoveryError(
                f"{count} candidate orderings of {network} exceed the {max_candidates} "
                "limit; use a heuristic strategy (max_flow, centrality, crew_distance, "
                "zone) for disruptions this large"
            )

    while any(remaining.values()):
        for network in sorted(remaining):
            if not remaining[network]:
                continue
            k_eff = min(horizon, len(remaining[network]))
            best_value: float | None = None
            best_first: str | None = None
            for candidate in permutations(remaining[network], k_eff):
                order: dict[str, list[str]] = {}
                for other in remaining:
                    if other == network:
                        order[other] = committed[other] + list(candidate)
                    else:
                        rest = [c for c in completion[other] if c in set(remaining[other])]
                        order[other] = committed[other] + rest
                value = evaluate(order)
                if best_value is None or value < best_value:
                    best_value, best_first = value, candidate[0]
            committed[network].append(best_first)
            remaining[network].remove(best_first)
    return committed
