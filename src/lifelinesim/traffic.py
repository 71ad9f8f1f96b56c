"""Static user-equilibrium traffic assignment (Frank-Wolfe).

Link travel times follow the standard polynomial volume-delay form
t = t0 * (1 + alpha * (x/c)^beta). Each iteration loads an all-or-nothing
assignment on current times and takes the exact line-search step that
minimizes the Beckmann objective, so the objective never increases.
The all-or-nothing step makes one multi-source Dijkstra over all origins
and keeps the shortest-path trees of ``graphs.dijkstra``'s tie rule, so
its loads equal those of one heap Dijkstra per origin to the bit.
Repair crews are routed on the same compiled road graph
(``RoadGraph``), kept once per network over all road links and weighted
per query by ``road_distances``.
OD pairs with no usable path are skipped and reported rather than
failing the assignment, since damaged road networks are the normal case
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .network import IntegratedNetwork, TRAFFIC


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
    """One equilibrium: each in-service link's flow and its volume-delay
    time at that flow, the relative gap and the Frank-Wolfe iterations
    it stopped at, and the OD pairs with no usable path."""

    link_flow: dict[str, float]
    link_time: dict[str, float]
    relative_gap: float
    iterations: int
    unreachable: list[tuple[str, str]]


def _bpr(x, t0, cap, prm: TrafficParams):
    return t0 * (1.0 + prm.alpha * (x / cap) ** prm.beta)


class RoadGraph:
    """A fixed set of road links compiled for shortest-path queries.

    Nodes are indexed in sorted-id order and each link has a tail and a
    head index. The CSR matrix has one entry per (tail, head) pair,
    which ``distances`` sets to the cheapest of that pair's parallel
    links. With positive times each distance is the minimum over
    in-links of ``dist[u] + w``, so it equals ``graphs.dijkstra``'s.
    """

    def __init__(self, links: list, nodes):
        self.links = links
        self.nodes = sorted(nodes)
        self.index = {z: i for i, z in enumerate(self.nodes)}
        self.tail = np.array([self.index[c.ends[0]] for c in links], dtype=np.intp)
        self.head = np.array([self.index[c.ends[1]] for c in links], dtype=np.intp)
        nn = len(self.nodes)
        self._by_pair = np.lexsort((self.head, self.tail))
        tails, heads = self.tail[self._by_pair], self.head[self._by_pair]
        self._pair_start = np.flatnonzero(np.diff(tails * nn + heads, prepend=-1))
        indptr = np.searchsorted(tails[self._pair_start], np.arange(nn + 1))
        self.csr = csr_matrix((np.ones(len(self._pair_start)), heads[self._pair_start], indptr), shape=(nn, nn))

    def distances(self, times: np.ndarray, origins) -> np.ndarray:
        """Shortest travel times from each origin index (rows) to every
        node, inf where cut off; ``times`` has one entry per link, inf
        where the link is impassable."""
        self.csr.data[:] = np.minimum.reduceat(times[self._by_pair], self._pair_start)
        return dijkstra(self.csr, directed=True, indices=origins)


def road_distances(
    net: IntegratedNetwork,
    origin: str,
    component_statuses: dict[str, str],
    link_times: dict[str, float] | None = None,
    failed_factor: float | None = None,
) -> dict[str, float]:
    """Shortest travel time from ``origin`` to every traffic node, inf
    where cut off.

    An in-service link takes its time in ``link_times`` (congested
    times from an assignment), else its free-flow time. An
    out-of-service link costs ``failed_factor`` x free-flow time (crews
    crossing a blocked road), or is impassable without a factor. An
    unknown id or status raises a ``NetworkError``.
    """
    net.check_statuses(component_statuses)
    # one graph per network: ``distances`` rewrites every weight it reads
    road = net.cached(
        ("road_graph",),
        lambda: RoadGraph(
            sorted(net.components_of(TRAFFIC, "road_link"), key=lambda c: c.id),
            [z.id for z in net.nodes_of(TRAFFIC)],
        ),
    )
    if origin not in road.index:
        raise ValueError(f"{origin!r} is not a traffic node")
    times = link_times or {}
    weights = np.array(
        [
            times.get(c.id, c.attrs["free_flow_time"])
            if net.in_service(c.id, component_statuses)
            else math.inf
            if failed_factor is None
            else failed_factor * c.attrs["free_flow_time"]
            for c in road.links
        ]
    )
    return dict(zip(road.nodes, road.distances(weights, road.index[origin]).tolist()))


class _AllOrNothing:
    """All-or-nothing loads on one assignment's fixed road topology.

    Compiled once per assignment: the in-service links' ``RoadGraph``
    and the OD pairs split into reachable and unreachable ones. Each
    call makes one multi-source Dijkstra and recovers the shortest-path
    trees ``graphs.dijkstra`` builds.
    """

    def __init__(self, links: list, demands: list[tuple[str, str, float]], zone_ids: list[str]):
        self.road = RoadGraph(links, set(zone_ids).union(*((o, d) for o, d, _ in demands)))
        index = self.road.index
        self.nodes = self.road.nodes
        self._tail, self._head = self.road.tail, self.road.head
        # heap tie order among equal-distance tails: tail id, then link
        # order; the last entry stands for "no link"
        self._by_rank = np.r_[np.argsort(self._tail, kind="stable"), -1]
        self._rank = np.argsort(self._by_rank[:-1])

        orig = np.array([index[o] for o, _, _ in demands], dtype=np.intp)
        dest = np.array([index[d] for _, d, _ in demands], dtype=np.intp)
        self.origins = np.unique(orig)
        row = np.searchsorted(self.origins, orig)
        hops = dijkstra(self.road.csr, directed=True, indices=self.origins, unweighted=True)
        reach = np.isfinite(hops[row, dest])
        self.unreachable = [(o, d) for (o, d, _), ok in zip(demands, reach) if not ok]
        # a zone's demand to itself loads no link and adds 0 to the SPTT
        load = reach & (orig != dest)
        self._dest, self._row = dest[load], row[load]
        self._volume = np.array([v for _, _, v in demands])[load]

    def __call__(self, times: np.ndarray) -> tuple[np.ndarray, float]:
        """Load all demand on current shortest paths; also returns the
        total shortest-path travel time (SPTT)."""
        dist = self.road.distances(times, self.origins)
        nn = len(self.nodes)
        # Predecessor link of each node: graphs.dijkstra keeps the first
        # strict improvement, and with positive weights nodes settle in
        # (dist, id) order, so among links with dist[u] + w == dist[v]
        # it keeps the lowest (dist[u], id(u), link order).
        du = dist[:, self._tail]
        row, link = np.nonzero((du + times == dist[:, self._head]) & np.isfinite(du))
        group = row * nn + self._head[link]
        du = du[row, link]
        nearest = np.full(dist.size, np.inf)
        np.minimum.at(nearest, group, du)
        keep = du == nearest[group]
        lowest = np.full(dist.size, len(self._tail))
        np.minimum.at(lowest, group[keep], self._rank[link[keep]])
        pred = self._by_rank[lowest]

        # walk every OD path up its tree in lockstep; a node without a
        # predecessor link (its origin) is its own parent, so a finished
        # path stays put and adds only "no link" (-1) hops
        flat = np.arange(dist.size)
        parent = np.where(pred < 0, flat, flat - flat % nn + self._tail[pred])
        at, hops = self._row * nn + self._dest, []
        while at.size and (k := pred[at]).max() >= 0:
            hops.append(k)
            at = parent[at]
        # pair-major order: bincount adds each link's loads in OD order,
        # as a per-pair loop would; bin 0 takes the "no link" hops
        links = np.array(hops, dtype=np.intp).ravel(order="F") + 1
        y = np.bincount(links, np.repeat(self._volume, len(hops)), len(self._tail) + 1)[1:]
        # sequential sum in OD order (np.sum would sum pairwise)
        cost = self._volume * dist[self._row, self._dest]
        sptt = float(np.cumsum(cost)[-1]) if cost.size else 0.0
        return y, sptt


def assign_traffic(
    net: IntegratedNetwork,
    component_statuses: dict[str, str] | None = None,
    params: TrafficParams | None = None,
) -> TrafficState:
    """Equilibrate OD demand over in-service road links. An unknown id
    or status raises a ``NetworkError``.

    Iterates until the relative gap is at most ``gap_tol``. The link
    times returned are the ones that last gap was measured on, so they
    belong to the flows returned. Past ``max_iterations`` it raises a
    ``TrafficAssignmentError``."""
    prm = params or TrafficParams()
    statuses = component_statuses or {}
    net.check_statuses(statuses)

    roads = sorted(net.components_of(TRAFFIC, "road_link"), key=lambda c: c.id)
    links = [c for c in roads if net.in_service(c.id, statuses)]
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

    if n == 0 or not demands:
        unreachable = [(o, d) for o, d, _ in demands]
        state_flow = {c.id: 0.0 for c in links}
        state_time = {c.id: float(t0[k]) for k, c in enumerate(links)}
        return TrafficState(state_flow, state_time, 0.0, 0, sorted(unreachable))

    all_or_nothing = _AllOrNothing(links, demands, zone_ids)
    x, _ = all_or_nothing(t0)
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
    else:
        raise TrafficAssignmentError(
            f"no equilibrium after {prm.max_iterations} iterations (relative gap {gap:.2e})"
        )

    return TrafficState(
        link_flow={c.id: float(x[k]) for k, c in enumerate(links)},
        link_time={c.id: float(times[k]) for k, c in enumerate(links)},
        relative_gap=float(gap),
        iterations=it,
        unreachable=sorted(all_or_nothing.unreachable),
    )


def link_times_key(road_state: frozenset) -> tuple:
    """Memo key of the ``TrafficState`` ``assign_traffic`` returns with
    its default parameters under ``road_state``: the road links whose
    in-service flag the statuses change (``IntegratedNetwork.service_key``)."""
    return ("link_times", road_state)

