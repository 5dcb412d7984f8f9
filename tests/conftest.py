import os
from pathlib import Path

import numpy as np
import pytest

from rfim.graph import Graph

# Tests that run `python -m rfim.cli` in a subprocess need the package from
# this checkout, as `pythonpath` in pyproject.toml gives it to pytest itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def random_connected_graph(n: int, rng: np.random.Generator, extra_edges: int = 2) -> Graph:
    """Random spanning tree plus a few extra edges; always connected."""
    edges = set()
    perm = rng.permutation(n)
    for i in range(1, n):
        j = int(rng.integers(i))
        a, b = int(perm[i]), int(perm[j])
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = (int(x) for x in rng.integers(n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
