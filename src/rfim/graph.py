"""Undirected simple graphs with a fixed vertex order.

Vertices are integers 0..n-1.  The integer order of the vertices is part of
the identity of an instance: it induces the order on edges incident to a
common vertex that the SAW-tree cycle rule depends on, so graphs loaded from
a file must never be relabeled.
"""

from __future__ import annotations

import json
from collections import deque
from operator import index
from typing import NamedTuple

GRAPH_FORMAT = "rfim-graph-v1"

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Raised when a graph file violates the rfim-graph-v1 contract."""


class Graph(NamedTuple):
    """Immutable simple graph; adjacency lists sorted ascending."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Edges in any order.  Each neighbour list is sorted in place, so
        an edge given twice, either way round, shows up as two equal
        neighbours (the smallest such (a, b) is named); an n that is not an
        integer (numpy integers are, bools are not) or is negative, and
        endpoints that are not integers, out-of-range endpoints and
        self-loops are rejected first, as the edges are read."""
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            raise GraphFormatError(f"n must be an integer, got {n!r}")
        n = index(n)
        if n < 0:
            raise GraphFormatError(f"n must be >= 0, got {n}")
        adj = [[] for _ in range(n)]
        for a, b in edges:
            try:
                a, b = index(a), index(b)
            except TypeError:
                raise GraphFormatError(f"edge ({a},{b}) has a non-integer endpoint") from None
            if not (0 <= a < n and 0 <= b < n):
                raise GraphFormatError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise GraphFormatError(f"self-loop at vertex {a}")
            adj[a].append(b)
            adj[b].append(a)
        for a, neighbours in enumerate(adj):
            neighbours.sort()
            prev = -1
            for b in neighbours:
                if b == prev:
                    raise GraphFormatError(f"duplicate edge {(a, b)}")
                prev = b
        return Graph(n, tuple(map(tuple, adj)))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: (a, b) with a < b, sorted lexicographically."""
        out = []
        for a in range(self.n):
            for b in self.adjacency[a]:
                if a < b:
                    out.append((a, b))
        return out


def vertex(n: int, v, what: str) -> int:
    """v as a Python int (numpy integers count, bools and floats do not) in
    0..n-1; otherwise a ValueError naming it as the `what` vertex.  Every
    vertex argument of the library is checked here."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise ValueError(f"{what} vertex {v!r} is not an integer")
    i = index(v)
    if not 0 <= i < n:
        raise ValueError(f"{what} vertex {v} out of range")
    return i


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(a) for a in g.adjacency)


def bfs_distances(g: Graph, source) -> list[int]:
    """Distances from a vertex (an int or a numpy integer) or from an iterable
    of vertices, each checked by `vertex`; UNREACHABLE where no path."""
    dist = [UNREACHABLE] * g.n
    q = deque()
    for s in source if hasattr(source, "__iter__") else [source]:
        s = vertex(g.n, s, "source")
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for w in g.adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def sphere(g: Graph, v: int, ell: int) -> set[int]:
    """Vertices at distance exactly ell from v."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    dist = bfs_distances(g, v)
    return {w for w in range(g.n) if dist[w] == ell}


def to_json_dict(g: Graph) -> dict:
    return {"format": GRAPH_FORMAT, "n": g.n, "edges": [list(e) for e in g.edges()]}


def is_int(x) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(obj: dict) -> Graph:
    """The graph of a parsed rfim-graph-v1 object.  `n` and every edge endpoint
    must be JSON integers (an endpoint exactly an `int`, as `json.load` gives):
    a float such as 0.5 or a boolean is rejected, not truncated or read as 0/1."""
    if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
        raise GraphFormatError(f"expected format {GRAPH_FORMAT!r}")
    n = obj.get("n")
    if not is_int(n) or n < 0:
        raise GraphFormatError("field 'n' must be a non-negative integer")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list of vertex pairs")
    for e in edges:
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise GraphFormatError(f"malformed edge entry {e!r}")
    return Graph.from_edges(n, edges)


def load(path: str) -> Graph:
    with open(path) as f:
        return from_json_dict(json.load(f))


def save(g: Graph, path: str) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(to_json_dict(g)) + "\n")
