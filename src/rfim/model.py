"""The Ising measure: Hamiltonian, exact oracles, and the influence function
bounding how far a vertex's conditional marginal can swing.

All partition values are carried in log space; large Gaussian fields make
e^{2h} overflow in linear space.  The module is pure Python.  The exact
oracles sum the free spins out by frontier elimination, whose kernel is
`rfim.elimination`; they import it on their first call, so only
`rfim exact` and `rfim perc` load it, and neither loads numpy.
`expit` reproduces scipy's function bit for bit, as `rfim.randgen.ndtri`
does for the Gaussian draws, so no subcommand loads scipy.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from math import exp
from numbers import Real
from typing import Sequence

from . import graph as graphmod
from .graph import Graph

INSTANCE_FORMAT = "rfim-instance-v1"

#: Largest number of free vertices the exact oracles accept.  Their cost
#: grows as 2^(frontier width), not 2^(free count): a sparse graph at the cap
#: is fast, a complete graph near it takes seconds.
ENUMERATION_CAP = 24


def expit(x: float) -> float:
    """The logistic sigmoid 1 / (1 + e^-x) of a scalar.

    The same expression as `scipy.special.expit`, so the two agree bit for
    bit; below about -709, where e^-x overflows, the result is 0.0.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def finite(x) -> bool:
    """Whether x is a finite real: an int, a float or a numpy real, never a
    bool, a string or a complex.  The library decides here alone what a
    real argument is."""
    # float and int first: the Real check alone takes several times longer
    return isinstance(x, (float, int, Real)) and not isinstance(x, bool) and math.isfinite(x)


def check_eps(eps: float) -> None:
    if not (finite(eps) and 0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")


class EnumerationTooLarge(ValueError):
    """Instance has more free vertices than the enumeration cap allows."""


class IncompleteConfiguration(ValueError):
    pass


class CertificationFailed(RuntimeError):
    """A run stopped before certifying its result: its certified error is
    too large, or its SAW walks ran out of their node budget (CLI exit 4)."""


class Frozen:
    """Base of the records that validate their values: `__init__` sets the
    attributes once, through `__dict__`, and they are never assigned again."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IsingInstance(Frozen):
    """Graph + inverse temperature + per-vertex fields + partial boundary.

    `fields` is any length-n sequence of finite reals (a list, a tuple, an
    `array.array`, a numpy array), stored as given: an instance built from
    a numpy array keeps that array.  `boundary` maps a subset of vertices to fixed spins in
    {-1, +1}; vertices and spins are Python or numpy integers (a spin not a
    bool, and neither a float, which the chains could not use), and are
    stored as Python ints in a new dict, so results hold only Python ints.
    """

    def __init__(
        self,
        graph: Graph,
        beta: float,
        fields: Sequence[float],
        boundary: dict[int, int] | None = None,
    ):
        n = graph.n
        try:
            size = len(fields)
        except TypeError:
            size = None
        if size != n:
            raise ValueError(f"fields must have one entry per vertex (got {size} for {n})")
        if not finite(beta):
            raise ValueError(f"beta must be a finite real, got {beta!r}")
        for v, x in enumerate(fields):
            if not finite(x):
                raise ValueError(f"field at vertex {v} must be a finite real, got {x!r}")
        spins = {}
        for v, s in (boundary or {}).items():
            v = graphmod.vertex(n, v, "boundary")
            if not (graphmod.whole(s) and s in (-1, 1)):
                raise ValueError(f"boundary spin at {v} must be +-1, got {s!r}")
            spins[v] = int(s)
        self.__dict__.update(graph=graph, beta=beta, fields=fields, boundary=spins)

    @property
    def free_vertices(self) -> list[int]:
        return [v for v in range((self.graph.n)) if v not in self.boundary]

    def with_extra_boundary(self, extra: dict[int, int]) -> "IsingInstance":
        merged = dict(self.boundary)
        for v, s in extra.items():
            if v in merged and merged[v] != s:
                raise ValueError(f"conflicting spin for vertex {v}")
            merged[v] = s
        return IsingInstance(self.graph, self.beta, self.fields, merged)


def hamiltonian(inst: IsingInstance, spins: Sequence[int]) -> float:
    """Energy H of a complete configuration; -H = beta*sum(ss) + sum(h*s),
    the field sum taken with `math.fsum`, so its value does not depend on
    the order or the container of the fields."""
    s = list(spins)
    if len(s) != inst.graph.n or not all(x == 1 or x == -1 for x in s):
        raise IncompleteConfiguration("configuration must assign +-1 to every vertex")
    for v, tau in inst.boundary.items():
        if s[v] != tau:
            raise IncompleteConfiguration(f"configuration disagrees with boundary at {v}")
    pair = sum(s[a] * s[b] for a, b in inst.graph.edges())
    return float(-(inst.beta * pair + math.fsum(h * x for h, x in zip(inst.fields, s))))


def _check_cap(n_free: int) -> None:
    if n_free > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{n_free} free vertices exceeds enumeration cap {ENUMERATION_CAP}")


def exact_partition(inst: IsingInstance) -> float:
    """log Z summed exactly over the free spins, of which there may be at
    most ENUMERATION_CAP (the test oracle)."""
    from .elimination import _region_log_z

    _check_cap(len(inst.free_vertices))
    return _region_log_z(inst, [])[0]


def exact_marginal(inst: IsingInstance, v: int) -> float:
    """Exact P(sigma_v = +1 | inst.boundary), summed over the other free
    spins, of which there may be at most ENUMERATION_CAP.  To condition on
    more spins, pass `inst.with_extra_boundary(extra)`."""
    from .elimination import _region_log_z

    v = graphmod.vertex(inst.graph.n, v, "marginal")
    if v in inst.boundary:
        raise ValueError(f"vertex {v} is fixed by the conditioning")
    _check_cap(len(inst.free_vertices) - 1)
    log_minus, log_plus = _region_log_z(inst, [v])
    return expit(log_plus - log_minus)


def exact_region_law(inst: IsingInstance, region: list[int]) -> dict[tuple[int, ...], float]:
    """Exact joint law of the spins on `region` (distinct free vertices), as
    a dict from spin tuples to probabilities; at most ENUMERATION_CAP free
    vertices."""
    from .elimination import _region_log_z

    _check_cap(len(inst.free_vertices))
    region = [graphmod.vertex(inst.graph.n, v, "region") for v in region]
    for v in region:
        if v in inst.boundary:
            raise ValueError(f"region vertex {v} is not free")
    if len(set(region)) != len(region):
        raise ValueError(f"region {region} repeats a vertex")
    log_z = _region_log_z(inst, region)
    top = max(log_z)
    weights = [exp(x - top) for x in log_z]
    total = math.fsum(weights)
    return dict(zip(itertools.product((-1, 1), repeat=len(region)), [w / total for w in weights]))


def influence_bound(delta: float, h: float, beta: float) -> float:
    """Maximum swing of a degree-`delta` vertex's conditional marginal over
    its neighbors' spins: |sigmoid(2h + 2*beta*delta) - sigmoid(2h - 2*beta*delta)|.

    M is even in h, and the sigmoid difference is evaluated at -|h|: there
    neither sigmoid rounds to 1, so the difference does not cancel to 0 for
    large positive h.  Any finite h is accepted: once 2|h| - 2|beta|*delta
    exceeds about 709, both sigmoids are 0.0 and so is M.
    """
    h = -abs(h)
    return abs(expit(2.0 * h + 2.0 * beta * delta) - expit(2.0 * h - 2.0 * beta * delta))


def to_json_dict(inst: IsingInstance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "graph": graphmod.to_json_dict(inst.graph),
        "beta": inst.beta,
        "fields": [float(x) for x in inst.fields],
        "boundary": {str(v): int(s) for v, s in inst.boundary.items()},
    }


def vertex_key(key: str) -> int:
    """The vertex a JSON boundary key names.  Only canonical decimals are
    keys, so "00", " 1" and "+0" cannot name a vertex a second time."""
    if not (key.isdecimal() and str(int(key)) == key):
        raise ValueError(f"boundary key {key!r} is not a canonical vertex number")
    return int(key)


def from_json_dict(obj: dict, base_dir: str = ".") -> IsingInstance:
    if not isinstance(obj, dict) or obj.get("format") != INSTANCE_FORMAT:
        raise ValueError(f"expected format {INSTANCE_FORMAT!r}")
    gspec = obj["graph"]
    if isinstance(gspec, str):
        import os

        g = graphmod.load(os.path.join(base_dir, gspec))
    else:
        g = graphmod.from_json_dict(gspec)
    fields = obj["fields"]
    if not isinstance(fields, list):
        raise ValueError(f"fields must be a list of numbers, got {type(fields).__name__}")
    for v, x in enumerate(fields):
        if not finite(x):
            raise ValueError(f"field at vertex {v} must be a finite real, got {x!r}")
    beta = obj["beta"]
    if not finite(beta):
        raise ValueError(f"beta must be a finite real, got {beta!r}")
    boundary = {vertex_key(v): s for v, s in obj.get("boundary", {}).items()}
    # an array("d") holds 8 bytes per field, as a numpy array would; a list
    # of floats holds about 32
    return IsingInstance(g, float(beta), array("d", fields), boundary)


def load(path: str) -> IsingInstance:
    import os

    with open(path) as f:
        return from_json_dict(json.load(f), base_dir=os.path.dirname(path) or ".")


def save(inst: IsingInstance, path: str) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(to_json_dict(inst)) + "\n")
