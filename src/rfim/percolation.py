"""Disagreement percolation: inhomogeneous site percolation with influence
probabilities, the coupled exploration process, and the total-variation
domination and averaged-decay experiments."""

from __future__ import annotations

import math
from random import Random
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .graph import Graph, bfs_distances, integer, vertex, UNREACHABLE
from .model import (
    Frozen,
    IsingInstance,
    exact_marginal,
    exact_region_law,
    finite,
    influence_bound,
)

if TYPE_CHECKING:
    import numpy as np

#: z-score for the 99.7% Wilson intervals used in all Monte Carlo reports.
WILSON_Z = 3.0


class SitePercolationSpec(Frozen):
    """Graph with per-vertex open probabilities; `boundary_open` vertices are
    open with probability one (closed boundary vertices get probability 0).
    `probabilities` are finite reals (`rfim.model.finite`), stored as a list
    of floats, and `boundary_open` is stored as a frozenset of Python ints."""

    def __init__(
        self,
        graph: Graph,
        probabilities: Sequence[float],
        boundary_open: frozenset[int] = frozenset(),
    ):
        p = [float(x) if finite(x) else math.nan for x in probabilities]
        if len(p) != graph.n:
            raise ValueError("one probability per vertex required")
        if not all(0.0 <= x <= 1.0 for x in p):  # False for NaN, so for a non-real
            raise ValueError("probabilities must lie in [0,1]")
        boundary_open = frozenset(vertex(graph.n, v, "boundary") for v in boundary_open)
        self.__dict__.update(graph=graph, probabilities=p, boundary_open=boundary_open)


class Estimate(NamedTuple):
    """Bernoulli Monte Carlo estimate with a Wilson confidence interval."""

    p_hat: float
    low: float
    high: float
    trials: int
    successes: int

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 0.0) / self.trials)


def wilson_interval(successes: int, trials: int) -> Estimate:
    trials = integer(trials, "trials", 1)
    successes = integer(successes, "successes", 0)
    if successes > trials:
        raise ValueError(f"successes must be <= trials, got {successes} > {trials}")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # at 0 or all successes the rounded limit can land just past p_hat
    low = min(max(center - half, 0.0), p)
    high = max(min(center + half, 1.0), p)
    return Estimate(p, low, high, trials, successes)


def influence_probabilities(inst: IsingInstance) -> list[float]:
    """Default site probabilities p_x = M(deg(x), h_x, beta)."""
    return [influence_bound(inst.graph.degree(x), inst.fields[x], inst.beta) for x in range(inst.graph.n)]


_OPEN, _CLOSED = 1, 2  # per-trial site states; 0 is undecided


def _cluster_hits(adjacency, p, sources, target: bytearray, state: bytearray, draw) -> bool:
    """Grow the open cluster of the `sources`, which are open, depth first.

    `state` holds one byte per vertex, all undecided (0) on entry.  The
    sources become open without a draw.  The search pops the last vertex
    pushed (the sources are pushed in the given order) and scans its
    neighbours in adjacency order; an undecided neighbour w is decided then,
    by one `draw()`: open, and pushed, when the draw lies below p[w], closed
    otherwise.  True as soon as an open vertex is a `target`, with the search
    cut short there; on False, `state` marks the whole cluster open.
    """
    for v in sources:
        state[v] = _OPEN
    stack = list(sources)
    while stack:
        for w in adjacency[stack.pop()]:
            if not state[w]:
                if draw() < p[w]:
                    if target[w]:
                        return True
                    state[w] = _OPEN
                    stack.append(w)
                else:
                    state[w] = _CLOSED
    return False


def connection_probability(
    spec: SitePercolationSpec, targets, trials: int, seed: int
) -> Estimate:
    """Monte Carlo estimate of P(boundary_open <-> targets).

    Every trial runs `_cluster_hits` from the sorted `boundary_open` with
    the `random()` of one `random.Random(seed)`, so it draws one uniform per
    site that its search touches, in the order it touches them, and none
    for the sites it never reaches.  `trials` is an integer >= 1 and `seed`
    one >= 0 (`rfim.graph.integer`).
    """
    n = spec.graph.n
    targets = {vertex(n, v, "target") for v in targets}
    target = bytearray(n)
    for v in targets:
        target[v] = 1
    if targets & spec.boundary_open:
        raise ValueError("targets must be disjoint from boundary_open")
    trials = integer(trials, "trials", 1)
    draw = Random(integer(seed, "seed", 0)).random
    p, sources = spec.probabilities, sorted(spec.boundary_open)
    hits = 0
    for _ in range(trials):
        hits += _cluster_hits(spec.graph.adjacency, p, sources, target, bytearray(n), draw)
    return wilson_interval(hits, trials)


class CouplingTranscript(NamedTuple):
    sigma_a: np.ndarray
    sigma_b: np.ndarray
    disagreement: np.ndarray
    exploration_order: list[int]


def _exploration_sequence(inst: IsingInstance):
    """Free vertices ordered by distance to the boundary, those it cannot
    reach last, ties by index."""
    dist = bfs_distances(inst.graph, inst.boundary)
    return sorted(inst.free_vertices, key=lambda v: (dist[v] == UNREACHABLE, dist[v], v))


def _check_boundary_pair(inst: IsingInstance, eta: dict[int, int], xi: dict[int, int]) -> None:
    if set(eta) != set(inst.boundary) or set(xi) != set(inst.boundary):
        raise ValueError("eta and xi must assign exactly the boundary vertices")


def coupled_exploration(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    seed: int,
) -> CouplingTranscript:
    """Maximal coupling of the Gibbs measures under boundary conditions eta
    and xi, revealed by the exploration process of the disagreement-percolation
    proof: sites adjacent to the current disagreement set come first, layered
    by distance to the boundary, ties broken by vertex index.

    Each side's conditional is computed exactly by `exact_marginal` over
    the unexplored region, so the per-site disagreement probability is the
    true conditional difference, and the instance may have at most
    ENUMERATION_CAP + 1 free vertices.
    """
    import numpy as np

    return _explore(inst, eta, xi, np.random.default_rng(integer(seed, "seed", 0)), {})


def _explore(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    rng: np.random.Generator,
    memo: dict,
) -> CouplingTranscript:
    """One coupled exploration, one `rng.random()` per site: a site's spin
    on each side is +1 when the draw lies below `exact_marginal` of the
    instance fixed to that side's spins (eta or xi, then the revealed
    sites).  `memo` caches those marginals across explorations and sides."""
    import numpy as np

    g = inst.graph
    _check_boundary_pair(inst, eta, xi)
    sigma = (dict(eta), dict(xi))
    disagree = {v for v in inst.boundary if eta[v] != xi[v]}
    unexplored = _exploration_sequence(inst)
    visited: list[int] = []

    while unexplored:
        x = next(
            (v for v in unexplored if any(w in disagree for w in g.adjacency[v])),
            unexplored[0],
        )
        unexplored.remove(x)
        u = rng.random()
        for side in sigma:
            key = (x, tuple(sorted(side.items())))
            p = memo.get(key)
            if p is None:
                p = memo[key] = exact_marginal(IsingInstance(g, inst.beta, inst.fields, side), x)
            side[x] = +1 if u < p else -1
        if sigma[0][x] != sigma[1][x]:
            disagree.add(x)
        visited.append(x)

    sigma_a, sigma_b = (np.array([side[v] for v in range(g.n)], dtype=int) for side in sigma)
    return CouplingTranscript(sigma_a, sigma_b, (sigma_a != sigma_b).astype(int), visited)


def coupled_exploration_sweep(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    trials: int,
    seed: int,
):
    """Repeat the coupled exploration from one generator seeded with `seed`,
    sharing the conditional-marginal memo; trial 1 is
    `coupled_exploration(inst, eta, xi, seed)`.

    Returns (per-vertex disagreement frequency, per-vertex +1 frequency for
    side a, same for side b), each an array over vertices.
    """
    import numpy as np

    trials = integer(trials, "trials", 1)
    rng = np.random.default_rng(integer(seed, "seed", 0))
    memo: dict = {}
    n = inst.graph.n
    s_count = np.zeros(n)
    plus_a = np.zeros(n)
    plus_b = np.zeros(n)
    for _ in range(trials):
        t = _explore(inst, eta, xi, rng, memo)
        s_count += t.disagreement
        plus_a += t.sigma_a == 1
        plus_b += t.sigma_b == 1
    return s_count / trials, plus_a / trials, plus_b / trials


class DominationReport(NamedTuple):
    tv_exact: float
    percolation: Estimate
    holds: bool


def exact_tv_on_region(
    inst: IsingInstance, region: list[int], eta: dict[int, int], xi: dict[int, int]
) -> float:
    """Exact total-variation distance between the two conditional laws of the
    spins on `region` under boundary conditions eta and xi, which must
    assign exactly the boundary vertices."""
    _check_boundary_pair(inst, eta, xi)
    law_a = exact_region_law(IsingInstance(inst.graph, inst.beta, inst.fields, eta), region)
    law_b = exact_region_law(IsingInstance(inst.graph, inst.beta, inst.fields, xi), region)
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys)


def domination_spec(
    inst: IsingInstance, eta: dict[int, int], xi: dict[int, int]
) -> SitePercolationSpec:
    """Percolation process of the TV-domination bound: boundary sites open
    where eta and xi differ, influence probabilities elsewhere."""
    p = influence_probabilities(inst)
    for v in inst.boundary:
        p[v] = 0.0
    boundary_open = frozenset(v for v in inst.boundary if eta[v] != xi[v])
    return SitePercolationSpec(inst.graph, p, boundary_open)


def tv_domination_check(
    inst: IsingInstance,
    region: list[int],
    eta: dict[int, int],
    xi: dict[int, int],
    trials: int,
    seed: int,
) -> DominationReport:
    """Check d_TV(law under eta, law under xi) <= P(boundary <-> region) with
    the exact distance on the left and a Monte Carlo percolation estimate
    (plus three standard errors) on the right."""
    tv = exact_tv_on_region(inst, region, eta, xi)
    spec = domination_spec(inst, eta, xi)
    est = connection_probability(spec, region, trials, seed)
    # the Wilson upper limit keeps the tolerance positive at zero successes,
    # where p_hat + 3 * stderr degenerates to exactly 0
    upper = max(est.p_hat + 3.0 * est.stderr, est.high)
    return DominationReport(tv, est, tv <= upper)


def averaged_decay_profile(
    g: Graph,
    field_sampler,
    beta: float,
    x: int,
    trials: int,
    seed: int,
) -> dict[int, Estimate]:
    """Field-averaged connection probabilities from x, per distance class.

    `field_sampler(rng)` returns one realization of the per-vertex fields,
    n finite reals (`rfim.model.finite`), drawn from a numpy generator
    seeded with `seed`; beta is a finite real too.  For each trial the site
    probabilities are M(deg, h, beta); the same generator's `random()` then
    decides x, which is open when that draw lies below p[x], and only an
    open x has `_cluster_hits` grow its open cluster with further draws.
    The estimate at distance d averages the indicator of x <-> y over
    vertices y at distance d and over trials.
    """
    import numpy as np

    if not finite(beta):
        raise ValueError(f"beta must be a finite real, got {beta!r}")
    trials = integer(trials, "trials", 1)
    rng = np.random.default_rng(integer(seed, "seed", 0))
    dist = bfs_distances(g, x)
    sizes: dict[int, int] = {}
    for y in range(g.n):
        if y != x and dist[y] != UNREACHABLE:
            sizes[dist[y]] = sizes.get(dist[y], 0) + 1
    hits = dict.fromkeys(sizes, 0)
    nowhere = bytearray(g.n)
    for _ in range(trials):
        h = field_sampler(rng)
        if not (hasattr(h, "__len__") and len(h) == g.n and all(map(finite, h))):
            raise ValueError(f"field_sampler must return {g.n} finite reals")
        p = [influence_bound(g.degree(v), h[v], beta) for v in range(g.n)]
        state = bytearray(g.n)
        if rng.random() < p[x]:
            _cluster_hits(g.adjacency, p, [x], nowhere, state, rng.random)
        for y, s in enumerate(state):
            if s == _OPEN and y != x:
                hits[dist[y]] += 1
    return {d: wilson_interval(hits[d], sizes[d] * trials) for d in sorted(sizes)}
