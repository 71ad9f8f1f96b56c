"""The reference Dijkstra, and the binding the benchmark's tracer wraps.

No solver module imports this file. The compiled road graph in
``traffic`` is tested against ``dijkstra``, and ``perfbench/tracer.py``
wraps ``graphs.dijkstra`` by name, so the module goes when that binding
does. Adjacency is a plain dict ``node -> list[(neighbor, weight,
edge_id)]``. Neighbor lists are scanned in insertion order, and ties in
the priority queue fall back to node id, so results are reproducible run
to run.
"""

from __future__ import annotations

import heapq
import math

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
