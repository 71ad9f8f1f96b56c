"""Static user-equilibrium traffic assignment (Frank-Wolfe).

Link travel times follow the standard polynomial volume-delay form
t = t0 * (1 + alpha * (x/c)^beta). Each iteration loads an all-or-nothing
assignment on current times and takes the exact line-search step that
minimizes the Beckmann objective, so the objective never increases.
OD pairs with no usable path are skipped and reported rather than
failing the assignment, since damaged road networks are the normal case
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import graphs
from .network import IN_SERVICE, IntegratedNetwork, TRAFFIC


class TrafficAssignmentError(Exception):
    pass


@dataclass(frozen=True)
class TrafficParams:
    alpha: float = 0.15
    beta: float = 4.0
    gap_tol: float = 1e-4
    max_iterations: int = 500


@dataclass
class TrafficState:
    link_flow: dict[str, float]
    link_time: dict[str, float]
    relative_gap: float
    iterations: int
    unreachable: list[tuple[str, str]]
    beckmann_history: list[float]
    _adjacency: graphs.Adjacency = field(repr=False, default_factory=dict)


def _bpr(x, t0, cap, prm: TrafficParams):
    return t0 * (1.0 + prm.alpha * (x / cap) ** prm.beta)


def _beckmann(x, t0, cap, prm: TrafficParams) -> float:
    return float(
        np.sum(t0 * x + t0 * prm.alpha * cap / (prm.beta + 1.0) * (x / cap) ** (prm.beta + 1.0))
    )


def assign_traffic(
    net: IntegratedNetwork,
    component_statuses: dict[str, str] | None = None,
    params: TrafficParams | None = None,
) -> TrafficState:
    """Equilibrate OD demand over in-service road links."""
    prm = params or TrafficParams()
    statuses = component_statuses or {}

    links = [
        c
        for c in sorted(net.components_of(TRAFFIC, "road_link"), key=lambda c: c.id)
        if statuses.get(c.id, c.status) in IN_SERVICE
    ]
    lidx = {c.id: k for k, c in enumerate(links)}
    t0 = np.array([c.attrs["free_flow_time"] for c in links])
    cap = np.array([c.attrs["capacity"] for c in links])
    n = len(links)

    demands: list[tuple[str, str, float]] = []
    for orig in sorted(net.od_matrix):
        for dest in sorted(net.od_matrix[orig]):
            v = net.od_matrix[orig][dest]
            if v > 0:
                demands.append((orig, dest, float(v)))

    zone_ids = [z.id for z in net.nodes_of(TRAFFIC)]

    def adjacency(times: np.ndarray) -> graphs.Adjacency:
        adj: graphs.Adjacency = {z: [] for z in zone_ids}
        for k, c in enumerate(links):
            adj[c.ends[0]].append((c.ends[1], float(times[k]), c.id))
        return adj

    unreachable: set[tuple[str, str]] = set()

    def all_or_nothing(times: np.ndarray) -> tuple[np.ndarray, float]:
        """Load all demand on current shortest paths; also returns the
        total shortest-path travel time (SPTT)."""
        y = np.zeros(n)
        sptt = 0.0
        adj = adjacency(times)
        by_origin: dict[str, list[tuple[str, float]]] = {}
        for orig, dest, v in demands:
            by_origin.setdefault(orig, []).append((dest, v))
        for orig in sorted(by_origin):
            dist, pred = graphs.dijkstra(adj, orig)
            for dest, v in by_origin[orig]:
                if dest not in dist:
                    unreachable.add((orig, dest))
                    continue
                sptt += v * dist[dest]
                node = dest
                while node != orig:
                    node, eid = pred[node]
                    y[lidx[eid]] += v
        return y, sptt

    history: list[float] = []
    if n == 0 or not demands:
        if n == 0:
            unreachable.update((o, d) for o, d, _ in demands)
        times = t0.copy()
        state_flow = {c.id: 0.0 for c in links}
        state_time = {c.id: float(times[k]) for k, c in enumerate(links)}
        return TrafficState(state_flow, state_time, 0.0, 0, sorted(unreachable), history, adjacency(times))

    x, _ = all_or_nothing(t0)
    history.append(_beckmann(x, t0, cap, prm))
    gap = math.inf
    it = 0
    for it in range(1, prm.max_iterations + 1):
        times = _bpr(x, t0, cap, prm)
        y, sptt = all_or_nothing(times)
        tstt = float(x @ times)
        gap = tstt / sptt - 1.0 if sptt > 0 else 0.0
        if gap <= prm.gap_tol:
            break
        d = y - x

        def dB(a: float) -> float:
            return float(d @ _bpr(x + a * d, t0, cap, prm))

        if dB(1.0) <= 0.0:
            alpha = 1.0
        else:
            alpha = brentq(dB, 0.0, 1.0, xtol=1e-12)
        x = x + alpha * d
        history.append(_beckmann(x, t0, cap, prm))
    else:
        raise TrafficAssignmentError(
            f"no equilibrium after {prm.max_iterations} iterations (relative gap {gap:.2e})"
        )

    times = _bpr(x, t0, cap, prm)
    return TrafficState(
        link_flow={c.id: float(x[k]) for k, c in enumerate(links)},
        link_time={c.id: float(times[k]) for k, c in enumerate(links)},
        relative_gap=float(gap),
        iterations=it,
        unreachable=sorted(unreachable),
        beckmann_history=history,
        _adjacency=adjacency(times),
    )


def link_times_key(net: IntegratedNetwork, component_statuses: dict[str, str]) -> tuple:
    """Memo key of the congested link times ``assign_traffic`` returns
    with its default parameters: the road links' in-service flags."""
    return ("link_times", net.service_key(TRAFFIC, component_statuses))


def shortest_travel_time(state: TrafficState, origin: str, destination: str) -> float:
    """Congested shortest travel time between two zones, inf if cut off."""
    return graphs.shortest_path_length(state._adjacency, origin, destination)
