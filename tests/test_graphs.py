"""Graph routine oracles: shortest paths, components, edge betweenness."""

import pytest

from lifelinesim.graphs import (
    connected_components,
    dijkstra,
    edge_betweenness,
)

DIAMOND = {
    "a": [("b", 1.0, "ab"), ("c", 4.0, "ac")],
    "b": [("c", 1.0, "bc"), ("d", 6.0, "bd")],
    "c": [("d", 2.0, "cd")],
    "d": [],
}


def test_dijkstra_distances():
    dist, pred = dijkstra(DIAMOND, "a")
    assert dist == {"a": 0.0, "b": 1.0, "c": 2.0, "d": 4.0}
    assert pred["d"] == ("c", "cd")
    assert pred["c"] == ("b", "bc")


def test_dijkstra_unreachable_absent():
    adj = {"a": [("b", 1.0, "ab")], "b": [], "x": []}
    dist, _ = dijkstra(adj, "a")
    assert "x" not in dist


def test_dijkstra_rejects_negative_weight():
    with pytest.raises(ValueError):
        dijkstra({"a": [("b", -1.0, "ab")], "b": []}, "a")


def test_connected_components():
    comps = connected_components(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]
    assert connected_components(["x"], []) == [{"x"}]


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
