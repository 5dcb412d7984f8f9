"""The Ising measure: Hamiltonian, brute-force oracles, and the influence
function bounding how far a vertex's conditional marginal can swing.

All partition values are carried in log space; large Gaussian fields make
e^{2h} overflow in linear space.
"""

from __future__ import annotations

import itertools
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

#: The exact oracles sum out at most this many free vertices in one table.
_TABLE_BITS = 16


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


def _log_weights(inst: IsingInstance, order: list[int]) -> np.ndarray:
    """-H for every configuration of the free vertices in `order`, as an
    array of shape (2,)*k: axis i belongs to order[i], index 0 meaning spin
    -1 and index 1 spin +1.  Every vertex not in `order` must be fixed.

    Each field and edge term is added as a broadcast +-1 array; a term whose
    vertices are all fixed goes into one scalar, so it costs no pass.
    """
    k = len(order)
    axis = {v: i for i, v in enumerate(order)}

    def spin(v):
        if v not in axis:
            return inst.boundary[v]
        shape = [1] * k
        shape[axis[v]] = 2
        return np.array([-1.0, 1.0]).reshape(shape)

    terms = [h * spin(v) for v, h in enumerate(inst.fields.tolist())]
    terms += [inst.beta * spin(a) * spin(b) for a, b in inst.graph.edges()]
    table = np.zeros((2,) * k)
    const = 0.0
    for term in terms:
        if np.ndim(term):
            table += term
        else:
            const += term
    table += const
    return table


def _region_log_z(inst: IsingInstance, region: list[int]) -> np.ndarray:
    """log Z with the (free, distinct) vertices of `region` fixed, for each of
    their 2^r configurations in itertools.product((-1, 1), repeat=r) order.

    The other free vertices are summed out of a table of at most
    2^max(_TABLE_BITS, r) entries; beyond that, the last of them is fixed to
    -1 and to +1 in turn and the two halves are added in log space.
    """
    in_region = set(region)
    others = [v for v in inst.free_vertices if v not in in_region]
    if others and len(region) + len(others) > _TABLE_BITS:
        halves = [_region_log_z(inst.with_extra_boundary({others[-1]: s}), region) for s in (-1, 1)]
        return np.logaddexp(*halves)
    table = _log_weights(inst, region + others)
    return logsumexp(table.reshape(1 << len(region), -1), axis=1)


def _check_cap(n_free: int, max_free: int) -> None:
    if n_free > max_free:
        raise EnumerationTooLarge(f"{n_free} free vertices exceeds enumeration cap {max_free}")


def exact_partition(inst: IsingInstance, max_free: int = DEFAULT_ENUMERATION_CAP) -> float:
    """log Z by exhaustive enumeration over the free spins (the test oracle)."""
    _check_cap(len(inst.free_vertices), max_free)
    return float(_region_log_z(inst, [])[0])


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
    if not 0 <= v < cond.graph.n:
        raise ValueError(f"vertex {v} out of range")
    _check_cap(len(cond.free_vertices) - 1, max_free)
    log_minus, log_plus = _region_log_z(cond, [v])
    return float(expit(log_plus - log_minus))


def exact_region_law(
    inst: IsingInstance,
    region: list[int],
    max_free: int = DEFAULT_ENUMERATION_CAP,
) -> dict[tuple[int, ...], float]:
    """Exact joint law of the spins on `region` (distinct free vertices), as
    a dict from spin tuples to probabilities."""
    free = inst.free_vertices
    _check_cap(len(free), max_free)
    for v in region:
        if v not in free:
            raise ValueError(f"region vertex {v} is not free")
    if len(set(region)) != len(region):
        raise ValueError(f"region {list(region)} repeats a vertex")
    log_z = _region_log_z(inst, list(region))
    prob = np.exp(log_z - logsumexp(log_z))
    return dict(zip(itertools.product((-1, 1), repeat=len(region)), prob.tolist()))


def influence_bound(delta: float, h: float, beta: float) -> float:
    """Maximum swing of a degree-`delta` vertex's conditional marginal over
    its neighbors' spins: |sigmoid(2h + 2*beta*delta) - sigmoid(2h - 2*beta*delta)|.

    M is even in h, and the sigmoid difference is evaluated at -|h|: there
    neither sigmoid rounds to 1, so the difference does not cancel to 0 for
    large positive h.  Stable for |h| up to +-700.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    h = -abs(h)
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
