"""Seeded generation of sparse random graphs and IID field assignments, and
neighborhood-growth statistics.

All randomness flows through numpy's PCG64 generator seeded explicitly, and
Gaussian draws go through the inverse normal CDF, so outputs are reproducible
bit-for-bit across platforms for a fixed numpy version.  The generator
algorithm is versioned in output metadata; changing it is a format bump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .graph import Graph, bfs_distances
from .model import IsingInstance
from .sawtree import SawWalker

FIELDS_FORMAT = "rfim-fields-v1"
GENERATOR_VERSION = "pcg64-ndtri-1"


@dataclass(frozen=True)
class FieldSpec:
    """IID field distribution: gaussian(variance) or two_point(+-h with
    weights)."""

    kind: str  # "gaussian" | "two_point"
    variance: float = 0.0
    magnitude: float = 0.0
    weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.kind not in ("gaussian", "two_point"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not (math.isfinite(self.variance) and math.isfinite(self.magnitude)):
            raise ValueError("variance and magnitude must be finite")
        if self.kind == "gaussian" and self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.kind == "two_point" and not math.isclose(sum(self.weights), 1.0):
            raise ValueError("weights must sum to 1")


def gen_er_graph(n: int, delta: float, seed: int) -> Graph:
    """Erdos-Renyi graph on n vertices with edge probability delta/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = delta / n
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0,1]")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, k=1)
    mask = rng.random(len(ii)) < p
    return Graph.from_edges(n, zip(ii[mask].tolist(), jj[mask].tolist()))


def gaussian_from_uniform(u: np.ndarray, variance: float) -> np.ndarray:
    """N(0, variance) draws via the inverse CDF; no rejection steps."""
    u = np.clip(u, 1e-17, 1.0 - 1e-16)
    return ndtri(u) * math.sqrt(variance)


def gen_fields(n: int, spec: FieldSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if spec.kind == "gaussian":
        return gaussian_from_uniform(rng.random(n), spec.variance)
    sign = np.where(rng.random(n) < spec.weights[0], 1.0, -1.0)
    return sign * spec.magnitude


def fields_to_json_dict(h: np.ndarray, spec: FieldSpec, seed: int) -> dict:
    spec_obj = {"kind": spec.kind, "generator": GENERATOR_VERSION}
    if spec.kind == "gaussian":
        spec_obj["variance"] = spec.variance
    elif spec.kind == "two_point":
        spec_obj["magnitude"] = spec.magnitude
        spec_obj["weights"] = list(spec.weights)
    return {
        "format": FIELDS_FORMAT,
        "h": [float(x) for x in h],
        "spec": spec_obj,
        "seed": seed,
    }


def load_fields(path: str) -> np.ndarray:
    with open(path) as f:
        obj = json.load(f)
    if obj.get("format") != FIELDS_FORMAT:
        raise ValueError(f"expected format {FIELDS_FORMAT!r}")
    return np.array(obj["h"], dtype=float)


def neighborhood_growth(
    g: Graph, v: int, ell_max: int, in_saw_tree: bool = False
) -> list[int]:
    """|N(v, d)| for d = 1..ell_max, in the graph or in the SAW tree at v."""
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
