"""Single-site heat-bath (Glauber) dynamics with the path-coupling
mixing-time bound, plus the coupled-chain drift experiment.

Chains draw from `random.Random` and keep their spins in lists, so
`glauber_sample` (and `rfim glauber`) load no numpy; only `run_chains`,
for its ndarray result, and `coupled_drift_estimate` import it.
"""

from __future__ import annotations

import math
from random import Random
from typing import TYPE_CHECKING

from .graph import integer, max_degree
from .model import IsingInstance, check_eps, expit, influence_bound

if TYPE_CHECKING:
    import numpy as np

#: Most chain updates `glauber_sample` runs.  A certified step count above it
#: is reported as no guarantee, as a chain that does not contract is.
STEP_BUDGET = 10**8


def conditional_plus_probability(inst: IsingInstance, config: np.ndarray, x: int) -> float:
    """Exact Gibbs conditional P(sigma_x = +1 | neighbor spins)."""
    neigh_sum = sum(config[y] for y in inst.graph.adjacency[x])
    return expit(2.0 * inst.fields[x] + 2.0 * inst.beta * neigh_sum)


def mixing_time_bound(n: int, delta: int, beta: float, h_min: float, eps: float) -> int | None:
    """Path-coupling mixing-time bound, or None (no guarantee) when the
    per-step contraction delta*M(delta, h_min, beta) < 1 fails; n is an
    integer >= 1."""
    check_eps(eps)
    n = integer(n, "n", 1)
    contraction = 1.0 - delta * influence_bound(delta, h_min, beta)
    if contraction <= 0.0:
        return None
    return math.ceil(n * math.log(n / eps) / contraction)


def glauber_sample(inst: IsingInstance, eps: float, seed: int) -> list[int] | None:
    """Run the chain from the all-(+1) start for the certified number of steps;
    None when no mixing guarantee exists or it needs more than STEP_BUDGET
    steps."""
    check_eps(eps)
    rng = Random(integer(seed, "seed", 0))
    free = inst.free_vertices
    if not free:
        return [inst.boundary[v] for v in range(inst.graph.n)]
    h_min = min(abs(float(inst.fields[v])) for v in free)
    steps = mixing_time_bound(inst.graph.n, max_degree(inst.graph), inst.beta, h_min, eps)
    if steps is None or steps > STEP_BUDGET:
        return None
    return _chains(inst, steps, 1, rng)[0]


def _conditional_table(inst: IsingInstance) -> tuple[list[float], list[int]]:
    """Every heat-bath conditional of the instance, one row per distinct
    (field, degree) pair: O(distinct rows) entries, at most O(n + m).

    P(sigma_x = +1 | neighbor spin sum s) is table[centre[x] + s] for s in
    [-deg x, deg x]; vertices with the same float field and degree share a
    row (+-h fields need a few, Gaussian ones one per vertex), each entry
    computed with the expression of `conditional_plus_probability`, so both
    agree bit for bit.
    """
    b2 = 2.0 * inst.beta
    table, centre, centre_of = [], [], {}
    for h, neighbours in zip(map(float, inst.fields), inst.graph.adjacency):
        deg = len(neighbours)
        c = centre_of.get((h, deg))
        if c is None:
            c = centre_of[h, deg] = len(table) + deg
            h2 = 2.0 * h
            table += [expit(h2 + b2 * s) for s in range(-deg, deg + 1)]
        centre.append(c)
    return table, centre


def run_chains(inst: IsingInstance, steps: int, n_chains: int, seed: int) -> np.ndarray:
    """Final configurations of `n_chains` independent heat-bath chains, each
    started from +1 on every free vertex and run for `steps` updates.

    The chains run one after another from one `random.Random(seed)`.  An
    update draws two uniforms: the first, u, picks the free vertex
    `free_vertices[floor(u * len(free_vertices))]` (as `random.choices`
    does); the chosen vertex becomes +1 when the second lies below its
    conditional probability of +1, and -1 otherwise.  The result is
    deterministic given (seed, steps, n_chains), and chain i does not depend
    on n_chains, so `run_chains(inst, s, k, seed)[0]` is `glauber_sample`'s
    chain when s is its step count.

    An update costs O(deg x); memory is O(n + m + n_chains * n).
    """
    import numpy as np

    steps, n_chains = integer(steps, "steps", 0), integer(n_chains, "n_chains", 0)
    configs = _chains(inst, steps, n_chains, Random(integer(seed, "seed", 0)))
    return np.array(configs, dtype=int).reshape(n_chains, inst.graph.n)


def _chains(inst: IsingInstance, steps: int, n_chains: int, rng: Random) -> list[list[int]]:
    """`run_chains`' configurations as lists of spins, drawn from `rng`; an
    update reads its vertex's shared row centre and its neighbours with one
    lookup."""
    start = [1] * inst.graph.n
    for v, s in inst.boundary.items():
        start[v] = s
    free = inst.free_vertices
    if not free or steps == 0:
        return [start.copy() for _ in range(n_chains)]
    k = len(free)
    table, centre = _conditional_table(inst)
    rows = list(zip(centre, inst.graph.adjacency))
    random, floor = rng.random, math.floor
    configs = []
    for _ in range(n_chains):
        config = start.copy()
        for _ in range(steps):
            x = free[floor(random() * k)]
            t, nb = rows[x]
            for y in nb:
                t += config[y]
            config[x] = 1 if random() < table[t] else -1
        configs.append(config)
    return configs


def coupled_drift_estimate(
    inst: IsingInstance, trials: int, seed: int
) -> tuple[float, float]:
    """Per-step Hamming-distance drift for the identity coupling.

    Each trial starts two chains at a random pair of configurations differing
    at one random free vertex, applies one coupled update (same vertex, same
    uniform variate), and records the change in Hamming distance.  Returns
    (mean change, standard error); the standard error needs two trials.
    """
    import numpy as np

    trials = integer(trials, "trials", 2)
    rng = np.random.default_rng(integer(seed, "seed", 0))
    free = inst.free_vertices
    if not free:
        raise ValueError("no free vertex")
    changes = np.empty(trials)
    for t in range(trials):
        config = np.where(rng.random(inst.graph.n) < 0.5, 1, -1)
        for v, s in inst.boundary.items():
            config[v] = s
        y = free[int(rng.integers(len(free)))]
        other = config.copy()
        other[y] = -other[y]
        x = free[int(rng.integers(len(free)))]
        u = rng.random()
        pa = conditional_plus_probability(inst, config, x)
        pb = conditional_plus_probability(inst, other, x)
        config[x] = +1 if u < pa else -1
        other[x] = +1 if u < pb else -1
        changes[t] = int(np.sum(config != other)) - 1
    return float(changes.mean()), float(changes.std(ddof=1) / math.sqrt(trials))
