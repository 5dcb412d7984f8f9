"""Undirected simple graphs with a fixed vertex order.

Vertices are integers 0..n-1.  The integer order of the vertices is part of
the identity of an instance: it induces the order on edges incident to a
common vertex that the SAW-tree cycle rule depends on, so graphs loaded from
a file must never be relabeled.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

GRAPH_FORMAT = "rfim-graph-v1"

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Raised when a graph file violates the rfim-graph-v1 contract."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; adjacency lists sorted ascending."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = [set() for _ in range(n)]
        seen = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n):
                raise GraphFormatError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise GraphFormatError(f"self-loop at vertex {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {key}")
            seen.add(key)
            adj[a].add(b)
            adj[b].add(a)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

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


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(a) for a in g.adjacency)


def bfs_distances(g: Graph, source) -> list[int]:
    """Distances from a vertex or from a set of vertices; UNREACHABLE where no path."""
    dist = [UNREACHABLE] * g.n
    q = deque()
    if isinstance(source, int):
        source = [source]
    for s in source:
        if not 0 <= s < g.n:
            raise IndexError(f"vertex {s} out of range")
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for w in g.adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def distance(g: Graph, u: int, v: int) -> int:
    """BFS shortest-path length; UNREACHABLE if u and v are disconnected."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError("vertex index out of range")
    return bfs_distances(g, u)[v]


def sphere(g: Graph, v: int, ell: int) -> set[int]:
    """Vertices at distance exactly ell from v."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    dist = bfs_distances(g, v)
    return {w for w in range(g.n) if dist[w] == ell}


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        q = deque([start])
        seen[start] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
        comps.append(sorted(comp))
    return comps


def to_json_dict(g: Graph) -> dict:
    return {"format": GRAPH_FORMAT, "n": g.n, "edges": [list(e) for e in g.edges()]}


def from_json_dict(obj: dict) -> Graph:
    if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
        raise GraphFormatError(f"expected format {GRAPH_FORMAT!r}")
    n = obj.get("n")
    if not isinstance(n, int) or n < 0:
        raise GraphFormatError("field 'n' must be a non-negative integer")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list of vertex pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise GraphFormatError(f"malformed edge entry {e!r}")
    return Graph.from_edges(n, edges)


def load(path: str) -> Graph:
    with open(path) as f:
        return from_json_dict(json.load(f))


def save(g: Graph, path: str) -> None:
    with open(path, "w") as f:
        json.dump(to_json_dict(g), f)
        f.write("\n")
