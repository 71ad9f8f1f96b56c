"""The reference Dijkstra that the compiled road graph in ``traffic`` is
tested against: distances, predecessors, unreachable nodes and weights."""

import pytest

from lifelinesim.graphs import dijkstra

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
