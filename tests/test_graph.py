import json

import numpy as np
import pytest

from rfim import graph as G
from rfim.graph import Graph, GraphFormatError, UNREACHABLE

from conftest import random_connected_graph


def test_max_degree_examples():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert G.max_degree(triangle) == 2
    assert G.max_degree(Graph.from_edges(1, [])) == 0
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert G.max_degree(star) == 5


def test_distance_examples():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert G.bfs_distances(path, 0) == [0, 1, 2]
    assert G.bfs_distances(path, 1)[1] == 0
    two = Graph.from_edges(2, [])
    assert G.bfs_distances(two, 0)[1] == UNREACHABLE
    with pytest.raises(IndexError):
        G.bfs_distances(path, 5)
    # a numpy integer is one vertex, as an int is
    assert G.bfs_distances(path, np.int64(0)) == [0, 1, 2]
    assert G.bfs_distances(path, np.int32(1)) == [1, 0, 1]
    assert G.bfs_distances(path, [np.int64(0), 2]) == [0, 1, 0]
    with pytest.raises(IndexError):
        G.bfs_distances(path, np.int64(5))


def test_sphere_examples():
    cycle6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert G.sphere(cycle6, 0, 3) == {3}
    assert G.sphere(cycle6, 2, 0) == {2}
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert G.sphere(k4, 0, 1) == {1, 2, 3}
    assert G.sphere(cycle6, np.int64(0), 3) == {3}
    assert G.sphere(k4, np.int32(2), 1) == {0, 1, 3}


def test_distance_symmetry_and_sphere_partition(rng):
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 12)), rng)
        dist = [G.bfs_distances(g, u) for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]
        v = int(rng.integers(g.n))
        seen = set()
        for ell in range(g.n):
            s = G.sphere(g, v, ell)
            assert not (s & seen)
            seen |= s
        assert seen == set(range(g.n))


def test_loader_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(GraphFormatError):
        G.from_json_dict({"format": "nope", "n": 2, "edges": []})
    with pytest.raises(GraphFormatError):
        G.from_json_dict({"format": G.GRAPH_FORMAT, "n": 2, "edges": [[0]]})


def test_json_round_trip(tmp_path, rng):
    g = random_connected_graph(9, rng, extra_edges=4)
    path = tmp_path / "g.json"
    G.save(g, str(path))
    g2 = G.load(str(path))
    assert g2 == g
    # canonical edge order in the file
    edges = json.loads(path.read_text())["edges"]
    assert edges == sorted(edges)


def test_adjacency_sorted(rng):
    g = random_connected_graph(10, rng, extra_edges=5)
    for nbrs in g.adjacency:
        assert list(nbrs) == sorted(nbrs)


def test_from_edges_matches_set_based_reference(rng):
    for _ in range(30):
        n = int(rng.integers(1, 40))
        pairs = {tuple(sorted(int(x) for x in rng.integers(n, size=2)))
                 for _ in range(int(rng.integers(0, 3 * n)))}
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs if a != b]
        rng.shuffle(edges)
        want = [set() for _ in range(n)]
        for a, b in edges:
            want[a].add(b)
            want[b].add(a)
        want = tuple(tuple(sorted(s)) for s in want)
        for given in (edges, [(np.int64(a), np.int32(b)) for a, b in edges]):
            g = Graph.from_edges(n, given)
            assert g == Graph(n, want)
            assert all(type(b) is int for nbrs in g.adjacency for b in nbrs)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 2), (1, 0)], "duplicate edge (0, 1)"),
    ([(0, 1), (2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (1, 3)], "edge (1,3) out of range for n=3"),
    ([(0, -1)], "edge (0,-1) out of range for n=3"),
    # checked as each edge is read, so before any duplicate is found
    ([(0, 1), (1, 0), (1, 1)], "self-loop at vertex 1"),
    # of several duplicates, the smallest (a, b) with a < b is named
    ([(1, 2), (2, 1), (0, 1), (1, 0)], "duplicate edge (0, 1)"),
    # a float endpoint is rejected, not truncated
    ([(0.5, 1)], "edge (0.5,1) has a non-integer endpoint"),
    ([(0, 2.0)], "edge (0,2.0) has a non-integer endpoint"),
])
def test_from_edges_error_messages(edges, message):
    with pytest.raises(GraphFormatError) as err:
        Graph.from_edges(3, edges)
    assert str(err.value) == message


def test_from_edges_rejects_negative_n():
    with pytest.raises(GraphFormatError, match="n must be >= 0, got -1"):
        Graph.from_edges(-1, [])
    assert Graph.from_edges(0, []) == Graph(0, ())


@pytest.mark.parametrize("entry", [[True, 1], [0, False], [0.0, 1], [0, 1.5], [0, 1, 2], [0],
                                   (0, 1), "01", None, {"0": 1}])
def test_from_json_dict_rejects_non_integer_pairs(entry):
    obj = {"format": G.GRAPH_FORMAT, "n": 3, "edges": [[0, 1], entry]}
    with pytest.raises(GraphFormatError) as err:
        G.from_json_dict(obj)
    assert str(err.value) == f"malformed edge entry {entry!r}"
