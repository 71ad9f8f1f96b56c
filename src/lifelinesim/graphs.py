"""Small deterministic graph routines used across the solvers and schedulers.

Adjacency is a plain dict ``node -> list[(neighbor, weight, edge_id)]``.
Neighbor lists are scanned in insertion order, and ties in the priority
queue fall back to node id, so results are reproducible run to run.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

Adjacency = dict[str, list[tuple[str, float, str]]]


def dijkstra(adj: Adjacency, source: str) -> tuple[dict[str, float], dict[str, tuple[str, str]]]:
    """One-to-all shortest paths.

    Returns (dist, pred) where pred maps a node to its (predecessor,
    edge_id) on the shortest path tree. Unreachable nodes are absent
    from both maps. Equal-length paths resolve to the first strict
    improvement found, which is deterministic for a fixed adjacency.
    No solver calls it: it is the reference that the compiled road
    graph in ``traffic`` is tested against.
    """
    dist: dict[str, float] = {source: 0.0}
    pred: dict[str, tuple[str, str]] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr, w, eid in adj.get(node, ()):
            if w < 0:
                raise ValueError(f"negative edge weight on {eid!r}")
            nd = d + w
            if nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                pred[nbr] = (node, eid)
                heapq.heappush(heap, (nd, nbr))
    return dist, pred


def connected_components(nodes: list[str], edges: list[tuple[str, str]]) -> list[set[str]]:
    """Undirected connected components, one set per component."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    components = []
    unseen = set(nodes)
    for start in nodes:
        if start not in unseen:
            continue
        comp = {start}
        unseen.discard(start)
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nbr in adj[node]:
                if nbr in unseen:
                    unseen.discard(nbr)
                    comp.add(nbr)
                    queue.append(nbr)
        components.append(comp)
    return components


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
    for (a, b), eids in bundle.items():
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
