"""The Ising measure: Hamiltonian, brute-force oracles, and the influence
function bounding how far a vertex's conditional marginal can swing.

All partition values are carried in log space; large Gaussian fields make
e^{2h} overflow in linear space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, logsumexp

from . import graph as graphmod
from .graph import Graph

INSTANCE_FORMAT = "rfim-instance-v1"

#: Largest number of free vertices the exact oracles will enumerate by default.
DEFAULT_ENUMERATION_CAP = 24

_BLOCK_BITS = 16


class EnumerationTooLarge(ValueError):
    """Instance has more free vertices than the enumeration cap allows."""


class IncompleteConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class IsingInstance:
    """Graph + inverse temperature + per-vertex fields + partial boundary.

    `boundary` maps a subset of vertices to fixed spins in {-1, +1}.
    """

    graph: Graph
    beta: float
    fields: np.ndarray
    boundary: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        h = np.asarray(self.fields, dtype=float)
        if h.shape != (self.graph.n,):
            raise ValueError(f"fields must have one entry per vertex (got {h.shape})")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not np.all(np.isfinite(h)):
            bad = int(np.flatnonzero(~np.isfinite(h))[0])
            raise ValueError(f"field at vertex {bad} must be finite, got {h[bad]}")
        object.__setattr__(self, "fields", h)
        for v, s in self.boundary.items():
            if not 0 <= v < self.graph.n:
                raise ValueError(f"boundary vertex {v} out of range")
            if s not in (-1, 1):
                raise ValueError(f"boundary spin at {v} must be +-1, got {s}")

    @property
    def free_vertices(self) -> list[int]:
        return [v for v in range((self.graph.n)) if v not in self.boundary]

    def with_extra_boundary(self, extra: dict[int, int]) -> "IsingInstance":
        merged = dict(self.boundary)
        for v, s in extra.items():
            if v in merged and merged[v] != s:
                raise ValueError(f"conflicting spin for vertex {v}")
            merged[v] = s
        return replace(self, boundary=merged)


def hamiltonian(inst: IsingInstance, spins: np.ndarray) -> float:
    """Energy H of a complete configuration; -H = beta*sum(ss) + sum(h*s)."""
    s = np.asarray(spins)
    if s.shape != (inst.graph.n,) or not np.all(np.abs(s) == 1):
        raise IncompleteConfiguration("configuration must assign +-1 to every vertex")
    for v, tau in inst.boundary.items():
        if s[v] != tau:
            raise IncompleteConfiguration(f"configuration disagrees with boundary at {v}")
    pair = sum(s[a] * s[b] for a, b in inst.graph.edges())
    return float(-(inst.beta * pair + np.dot(inst.fields, s)))


def _enumerate_log_weights(inst: IsingInstance, free: list[int]):
    """Yield log-weight vectors for blocks of configurations of the free spins.

    Block k covers configurations whose index has the block's high bits; within
    a block, bit j of the index is the spin of free[j] (+1 for bit 1).
    Summation order is fixed, so results are deterministic.
    """
    g = inst.graph
    k = len(free)
    pos = {v: i for i, v in enumerate(free)}
    h_free = inst.fields[free]

    # constant contribution of boundary spins (fields + boundary-boundary edges)
    const = 0.0
    for v, tau in inst.boundary.items():
        const += inst.fields[v] * tau
    free_edges = []       # (i, j) positions within `free`
    cross = np.zeros(k)   # effective extra field on free[i] from fixed neighbors
    for a, b in g.edges():
        fa, fb = a in pos, b in pos
        if fa and fb:
            free_edges.append((pos[a], pos[b]))
        elif fa:
            cross[pos[a]] += inst.beta * inst.boundary[b]
        elif fb:
            cross[pos[b]] += inst.beta * inst.boundary[a]
        else:
            const += inst.beta * inst.boundary[a] * inst.boundary[b]

    eff = h_free + cross
    block_bits = min(_BLOCK_BITS, k)
    n_blocks = 1 << (k - block_bits)
    base = np.arange(1 << block_bits, dtype=np.int64)
    for blk in range(n_blocks):
        idx = base + (blk << block_bits)
        spins = ((idx[:, None] >> np.arange(k)) & 1) * 2 - 1  # (block, k) of +-1
        logw = spins @ eff + const
        if free_edges:
            ii = np.array([e[0] for e in free_edges])
            jj = np.array([e[1] for e in free_edges])
            logw = logw + inst.beta * np.einsum("bi,bi->b", spins[:, ii], spins[:, jj])
        yield idx, spins, logw


def exact_partition(inst: IsingInstance, max_free: int = DEFAULT_ENUMERATION_CAP) -> float:
    """log Z by exhaustive enumeration over the free spins (the test oracle)."""
    free = inst.free_vertices
    if len(free) > max_free:
        raise EnumerationTooLarge(
            f"{len(free)} free vertices exceeds enumeration cap {max_free}"
        )
    if not free:
        s = np.array([inst.boundary[v] for v in range(inst.graph.n)])
        return -hamiltonian(inst, s)
    parts = [logsumexp(logw) for _, _, logw in _enumerate_log_weights(inst, free)]
    return float(logsumexp(parts))


def exact_marginal(
    inst: IsingInstance,
    v: int,
    extra: dict[int, int] | None = None,
    max_free: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Exact P(sigma_v = +1 | boundary, extra) by enumeration."""
    cond = inst.with_extra_boundary(extra or {})
    if v in cond.boundary:
        raise ValueError(f"vertex {v} is fixed by the conditioning")
    log_plus = exact_partition(cond.with_extra_boundary({v: +1}), max_free)
    log_minus = exact_partition(cond.with_extra_boundary({v: -1}), max_free)
    return float(expit(log_plus - log_minus))


def exact_region_law(
    inst: IsingInstance,
    region: list[int],
    max_free: int = DEFAULT_ENUMERATION_CAP,
) -> dict[tuple[int, ...], float]:
    """Exact joint law of the spins on `region` (each vertex free), as a dict
    from spin tuples to probabilities."""
    free = inst.free_vertices
    if len(free) > max_free:
        raise EnumerationTooLarge(
            f"{len(free)} free vertices exceeds enumeration cap {max_free}"
        )
    pos = {v: i for i, v in enumerate(free)}
    for v in region:
        if v not in pos:
            raise ValueError(f"region vertex {v} is not free")
    cols = [pos[v] for v in region]
    acc: dict[tuple[int, ...], list] = {}
    for _, spins, logw in _enumerate_log_weights(inst, free):
        keys = spins[:, cols]
        for key in {tuple(row) for row in keys}:
            mask = np.all(keys == key, axis=1)
            acc.setdefault(key, []).append(logsumexp(logw[mask]))
    log_z = logsumexp([x for parts in acc.values() for x in parts])
    return {key: float(np.exp(logsumexp(parts) - log_z)) for key, parts in acc.items()}


def influence_bound(delta: float, h: float, beta: float) -> float:
    """Maximum swing of a degree-`delta` vertex's conditional marginal over
    its neighbors' spins: |sigmoid(2h + 2*beta*delta) - sigmoid(2h - 2*beta*delta)|.

    Computed as a sigmoid difference, stable for |h| up to +-700.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return float(abs(expit(2.0 * h + 2.0 * beta * delta) - expit(2.0 * h - 2.0 * beta * delta)))


def to_json_dict(inst: IsingInstance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "graph": graphmod.to_json_dict(inst.graph),
        "beta": inst.beta,
        "fields": [float(x) for x in inst.fields],
        "boundary": {str(v): int(s) for v, s in inst.boundary.items()},
    }


def from_json_dict(obj: dict, base_dir: str = ".") -> IsingInstance:
    if not isinstance(obj, dict) or obj.get("format") != INSTANCE_FORMAT:
        raise ValueError(f"expected format {INSTANCE_FORMAT!r}")
    gspec = obj["graph"]
    if isinstance(gspec, str):
        import os

        g = graphmod.load(os.path.join(base_dir, gspec))
    else:
        g = graphmod.from_json_dict(gspec)
    boundary = {int(v): int(s) for v, s in obj.get("boundary", {}).items()}
    return IsingInstance(g, float(obj["beta"]), np.array(obj["fields"], dtype=float), boundary)


def load(path: str) -> IsingInstance:
    import os

    with open(path) as f:
        return from_json_dict(json.load(f), base_dir=os.path.dirname(path) or ".")


def save(inst: IsingInstance, path: str) -> None:
    with open(path, "w") as f:
        json.dump(to_json_dict(inst), f)
        f.write("\n")
