"""Seeded generation of sparse random graphs and IID field assignments, and
neighborhood-growth statistics.

All randomness flows through numpy's PCG64 generator seeded explicitly, and
Gaussian draws go through the inverse normal CDF, so outputs are reproducible
bit-for-bit across platforms for a fixed numpy version.  The generator
algorithm is versioned in output metadata; changing it is a format bump.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, bfs_distances
from .model import Frozen, IsingInstance
from .sawtree import SawWalker

FIELDS_FORMAT = "rfim-fields-v1"
GENERATOR_VERSION = "pcg64-ndtri-1"


class FieldSpec(Frozen):
    """IID field distribution: gaussian(variance) or two_point (+h or -h,
    each with probability 1/2)."""

    def __init__(self, kind: str, variance: float = 0.0, magnitude: float = 0.0):
        if kind not in ("gaussian", "two_point"):
            raise ValueError(f"unknown field kind {kind!r}")
        if not (math.isfinite(variance) and math.isfinite(magnitude)):
            raise ValueError("variance and magnitude must be finite")
        if kind == "gaussian" and variance < 0:
            raise ValueError("variance must be >= 0")
        self.__dict__.update(kind=kind, variance=variance, magnitude=magnitude)


def gen_er_graph(n: int, delta: float, seed: int) -> Graph:
    """Erdos-Renyi graph on n vertices with edge probability delta/n.

    One uniform per pair i < j, drawn row by row in the order of
    np.triu_indices(n, k=1), so memory is O(n + m) rather than O(n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = delta / n
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0,1]")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
        edges.extend((i, j) for j in hits.tolist())
    return Graph.from_edges(n, edges)


def gaussian_from_uniform(u: np.ndarray, variance: float) -> np.ndarray:
    """N(0, variance) draws via the inverse CDF; no rejection steps."""
    from scipy.special import ndtri  # here, so importing rfim loads no scipy

    u = np.clip(u, 1e-17, 1.0 - 1e-16)
    return ndtri(u) * math.sqrt(variance)


def gen_fields(n: int, spec: FieldSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if spec.kind == "gaussian":
        return gaussian_from_uniform(rng.random(n), spec.variance)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return sign * spec.magnitude


def fields_to_json_dict(h: np.ndarray, spec: FieldSpec, seed: int) -> dict:
    spec_obj = {"kind": spec.kind, "generator": GENERATOR_VERSION}
    if spec.kind == "gaussian":
        spec_obj["variance"] = spec.variance
    elif spec.kind == "two_point":
        spec_obj["magnitude"] = spec.magnitude
        spec_obj["weights"] = [0.5, 0.5]
    return {
        "format": FIELDS_FORMAT,
        "h": [float(x) for x in h],
        "spec": spec_obj,
        "seed": seed,
    }


def neighborhood_growth(
    g: Graph, v: int, ell_max: int, in_saw_tree: bool = False
) -> list[int]:
    """|N(v, d)| for d = 1..ell_max, in the graph or in the SAW tree at v.
    The SAW-tree walks share one walker's budget of NODE_BUDGET nodes, and
    raise NodeBudgetExhausted when it runs out."""
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if not in_saw_tree:
        dist = bfs_distances(g, v)
        counts = [0] * ell_max
        for w in range(g.n):
            if 1 <= dist[w] <= ell_max:
                counts[dist[w] - 1] += 1
        return counts
    # a truncated walk counts the nodes at depths 0..cut
    walker = SawWalker(IsingInstance(g, 0.0, np.zeros(g.n)))
    totals = [walker.walk(v, {}, d).node_count for d in range(ell_max + 1)]
    return [b - a for a, b in zip(totals, totals[1:])]
