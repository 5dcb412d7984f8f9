"""Disagreement percolation: inhomogeneous site percolation with influence
probabilities, the coupled exploration process, and the total-variation
domination and averaged-decay experiments."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, bfs_distances, UNREACHABLE
from .model import (
    IsingInstance,
    exact_marginal,
    exact_region_law,
    influence_bound,
)

#: z-score for the 99.7% Wilson intervals used in all Monte Carlo reports.
WILSON_Z = 3.0


@dataclass(frozen=True)
class SitePercolationSpec:
    """Graph with per-vertex open probabilities; `boundary_open` vertices are
    open with probability one (closed boundary vertices get probability 0)."""

    graph: Graph
    probabilities: np.ndarray
    boundary_open: frozenset[int] = frozenset()

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (self.graph.n,):
            raise ValueError("one probability per vertex required")
        if np.any((p < 0) | (p > 1)):
            raise ValueError("probabilities must lie in [0,1]")
        object.__setattr__(self, "probabilities", p)
        for v in self.boundary_open:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"boundary vertex {v} out of range")


@dataclass
class Estimate:
    """Bernoulli Monte Carlo estimate with a Wilson confidence interval."""

    p_hat: float
    low: float
    high: float
    trials: int
    successes: int

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 0.0) / self.trials)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> Estimate:
    if trials <= 0:
        raise ValueError("trials must be > 0")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return Estimate(p, max(center - half, 0.0), min(center + half, 1.0), trials, successes)


def influence_probabilities(inst: IsingInstance) -> np.ndarray:
    """Default site probabilities p_x = M(deg(x), h_x, beta)."""
    return np.array(
        [influence_bound(inst.graph.degree(x), inst.fields[x], inst.beta) for x in range(inst.graph.n)]
    )


def sample_site_percolation(spec: SitePercolationSpec, seed: int) -> np.ndarray:
    """Boolean open indicator per vertex."""
    rng = np.random.default_rng(seed)
    return _draw_open(spec, rng)


def _draw_open(spec: SitePercolationSpec, rng: np.random.Generator) -> np.ndarray:
    open_ = rng.random(spec.graph.n) < spec.probabilities
    for v in spec.boundary_open:
        open_[v] = True
    return open_


def _connects(spec: SitePercolationSpec, open_: np.ndarray, targets: set[int]) -> bool:
    """Open path from boundary_open to `targets` (endpoints must be open)."""
    seen = np.zeros(spec.graph.n, dtype=bool)
    q = deque()
    for v in spec.boundary_open:
        if open_[v]:
            if v in targets:
                return True
            seen[v] = True
            q.append(v)
    while q:
        u = q.popleft()
        for w in spec.graph.adjacency[u]:
            if open_[w] and not seen[w]:
                if w in targets:
                    return True
                seen[w] = True
                q.append(w)
    return False


def connection_probability(
    spec: SitePercolationSpec, targets, trials: int, seed: int
) -> Estimate:
    """Monte Carlo estimate of P(boundary_open <-> targets)."""
    targets = set(targets)
    if targets & spec.boundary_open:
        raise ValueError("targets must be disjoint from boundary_open")
    if trials <= 0:
        raise ValueError("trials must be > 0")
    rng = np.random.default_rng(seed)
    hits = sum(_connects(spec, _draw_open(spec, rng), targets) for _ in range(trials))
    return wilson_interval(hits, trials)


@dataclass
class CouplingTranscript:
    sigma_a: np.ndarray
    sigma_b: np.ndarray
    disagreement: np.ndarray
    exploration_order: list[int]


def _exploration_sequence(inst: IsingInstance):
    """Free vertices ordered by distance to the boundary, ties by index."""
    g = inst.graph
    boundary = sorted(inst.boundary)
    dist = bfs_distances(g, boundary) if boundary else [0] * g.n
    free = [v for v in range(g.n) if v not in inst.boundary]
    big = g.n + 1
    return sorted(free, key=lambda v: (dist[v] if dist[v] != UNREACHABLE else big, v))


def _check_boundary_pair(inst: IsingInstance, eta: dict[int, int], xi: dict[int, int]) -> None:
    if set(eta) != set(inst.boundary) or set(xi) != set(inst.boundary):
        raise ValueError("eta and xi must assign exactly the boundary vertices")


def coupled_exploration(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    seed: int,
    max_free: int = 20,
) -> CouplingTranscript:
    """Maximal coupling of the Gibbs measures under boundary conditions eta
    and xi, revealed by the exploration process of the disagreement-percolation
    proof: sites adjacent to the current disagreement set come first, layered
    by distance to the boundary, ties broken by vertex index.

    Each side's conditional is computed exactly by enumeration over the
    unexplored region, so the per-site disagreement probability is the true
    conditional difference.
    """
    return _explore(inst, eta, xi, np.random.default_rng(seed), {}, max_free)


def _explore(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    rng: np.random.Generator,
    memo: dict,
    max_free: int,
) -> CouplingTranscript:
    """One coupled exploration drawing from `rng`; `memo` caches conditional
    marginals by (site, revealed spins) across explorations and sides."""
    g = inst.graph
    _check_boundary_pair(inst, eta, xi)
    if len(inst.free_vertices) > max_free:
        raise ValueError("instance too large for exact conditionals")

    unconditioned = replace(inst, boundary={})
    sigma = {0: dict(eta), 1: dict(xi)}
    S = np.zeros(g.n, dtype=int)
    for v in inst.boundary:
        S[v] = int(eta[v] != xi[v])
    disagree = {v for v in inst.boundary if S[v]}
    unexplored = _exploration_sequence(inst)
    visited: list[int] = []

    while unexplored:
        x = next(
            (v for v in unexplored if any(w in disagree for w in g.adjacency[v])),
            unexplored[0],
        )
        unexplored.remove(x)
        u = rng.random()
        ps = []
        for i in (0, 1):
            key = (x, tuple(sorted(sigma[i].items())))
            p = memo.get(key)
            if p is None:
                p = exact_marginal(unconditioned, x, extra=sigma[i], max_free=max_free)
                memo[key] = p
            ps.append(p)
        for i in (0, 1):
            sigma[i][x] = +1 if u < ps[i] else -1
        if sigma[0][x] != sigma[1][x]:
            S[x] = 1
            disagree.add(x)
        visited.append(x)

    sigma_a = np.array([sigma[0][v] for v in range(g.n)], dtype=int)
    sigma_b = np.array([sigma[1][v] for v in range(g.n)], dtype=int)
    return CouplingTranscript(sigma_a, sigma_b, S, visited)


def coupled_exploration_sweep(
    inst: IsingInstance,
    eta: dict[int, int],
    xi: dict[int, int],
    trials: int,
    seed: int,
    max_free: int = 20,
):
    """Repeat the coupled exploration from one generator seeded with `seed`,
    sharing the conditional-marginal memo; trial 1 is
    `coupled_exploration(inst, eta, xi, seed, max_free)`.

    Returns (per-vertex disagreement frequency, per-vertex +1 frequency for
    side a, same for side b), each an array over vertices.
    """
    if trials <= 0:
        raise ValueError("trials must be > 0")
    rng = np.random.default_rng(seed)
    memo: dict = {}
    n = inst.graph.n
    s_count = np.zeros(n)
    plus_a = np.zeros(n)
    plus_b = np.zeros(n)
    for _ in range(trials):
        t = _explore(inst, eta, xi, rng, memo, max_free)
        s_count += t.disagreement
        plus_a += t.sigma_a == 1
        plus_b += t.sigma_b == 1
    return s_count / trials, plus_a / trials, plus_b / trials


@dataclass
class DominationReport:
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
    base = replace(inst, boundary={})
    law_a = exact_region_law(base.with_extra_boundary(eta), region)
    law_b = exact_region_law(base.with_extra_boundary(xi), region)
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

    `field_sampler(rng)` returns one realization of the per-vertex fields.
    For each trial the site probabilities are M(deg, h, beta) and the estimate
    at distance d averages the indicator of x <-> y over vertices y at
    distance d and over trials.
    """
    rng = np.random.default_rng(seed)
    dist = bfs_distances(g, x)
    classes: dict[int, list[int]] = {}
    for y in range(g.n):
        if y != x and dist[y] != UNREACHABLE:
            classes.setdefault(dist[y], []).append(y)
    hits = {d: 0 for d in classes}
    totals = {d: 0 for d in classes}
    for _ in range(trials):
        h = np.asarray(field_sampler(rng), dtype=float)
        p = np.array([influence_bound(g.degree(v), h[v], beta) for v in range(g.n)])
        open_ = rng.random(g.n) < p
        reach = np.zeros(g.n, dtype=bool)
        if open_[x]:
            reach[x] = True
            q = deque([x])
            while q:
                u = q.popleft()
                for w in g.adjacency[u]:
                    if open_[w] and not reach[w]:
                        reach[w] = True
                        q.append(w)
        for d, ys in classes.items():
            hits[d] += int(np.sum(reach[ys]))
            totals[d] += len(ys)
    return {d: wilson_interval(hits[d], totals[d]) for d in sorted(classes)}
