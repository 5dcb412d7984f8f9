"""Seeded generation of sparse random graphs and IID field assignments, and
neighborhood-growth statistics.

All randomness flows through numpy's PCG64 generator seeded explicitly, and
Gaussian draws go through the inverse normal CDF, so outputs are reproducible
bit-for-bit across platforms for a fixed numpy version.  The generator
algorithm is versioned in output metadata; changing it is a format bump.

The inverse normal CDF `ndtri` is a scalar port of Cephes' (Moshier,
*Cephes Math Library*, 1989): the same coefficients, Horner order, branch
points and libm `log` and `sqrt`, so it equals `scipy.special.ndtri` bit for
bit and the module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, bfs_distances, vertex
from .model import Frozen, IsingInstance

FIELDS_FORMAT = "rfim-fields-v1"
GENERATOR_VERSION = "pcg64-ndtri-1"


class FieldSpec(Frozen):
    """IID field distribution: gaussian(variance) or two_point (+-magnitude,
    each with probability 1/2); the other kind's parameter must be 0, and
    neither may be a bool."""

    def __init__(self, kind: str, variance: float = 0.0, magnitude: float = 0.0):
        if kind not in ("gaussian", "two_point"):
            raise ValueError(f"unknown field kind {kind!r}")
        own, other = ("variance", "magnitude") if kind == "gaussian" else ("magnitude", "variance")
        params = {"variance": variance, "magnitude": magnitude}
        if (any(isinstance(x, bool) for x in params.values())
                or not (0.0 <= params[own] < math.inf and params[other] == 0.0)):
            raise ValueError(f"kind {kind!r} takes a finite {own} >= 0 and {other} 0, "
                             f"got variance={variance!r}, magnitude={magnitude!r}")
        self.__dict__.update(kind=kind, **params)


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


# Cephes ndtri coefficients, highest power first: P0/Q0 for the centre
# (exp(-2) < y < 1 - exp(-2)), P1/Q1 for the tail with sqrt(-2 log y) < 8,
# P2/Q2 beyond.  Cephes leaves the Q polynomials' leading 1 implicit (p1evl);
# it is written out here, and 1.0 * x + c rounds like x + c.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^k + ... + coef[k] by Horner's rule, in Cephes' order."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def ndtri(y0: float) -> float:
    """The x with Phi(x) = y0 for y0 in [0, 1], Cephes' algorithm."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    negate, y = True, y0
    if y > 1.0 - _EXPM2:
        y, negate = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def gaussian_from_uniform(u: np.ndarray, variance: float) -> np.ndarray:
    """N(0, variance) draws via the inverse CDF; no rejection steps."""
    u = np.clip(u, 1e-17, 1.0 - 1e-16)
    return np.array([ndtri(x) for x in u.tolist()]) * math.sqrt(variance)


def gen_fields(n: int, spec: FieldSpec, seed: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
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
    """|N(v, d)| for d = 1..ell_max, in the graph or in the SAW tree at v,
    a single vertex (`rfim.graph.vertex`).  The SAW-tree walks share one
    walker's budget of NODE_BUDGET nodes, and raise NodeBudgetExhausted,
    naming v, when it runs out."""
    v = vertex(g.n, v, "centre")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if not in_saw_tree:
        dist = bfs_distances(g, v)
        counts = [0] * ell_max
        for w in range(g.n):
            if 1 <= dist[w] <= ell_max:
                counts[dist[w] - 1] += 1
        return counts
    from .sawtree import SawWalker  # here, so generation loads no SAW layer

    # a truncated walk counts the nodes at depths 0..cut; made with h0, it folds no log-odds
    walker = SawWalker(IsingInstance(g, 0.0, np.zeros(g.n)), h0=0.0)
    totals = [walker.walk(v, {}, d).node_count for d in range(ell_max + 1)]
    return [b - a for a, b in zip(totals, totals[1:])]
