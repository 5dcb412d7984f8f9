"""Single-site heat-bath (Glauber) dynamics with the path-coupling
mixing-time bound, plus the coupled-chain drift experiment."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .graph import max_degree
from .model import IsingInstance, influence_bound

#: Most updates one chain draws from the generator at once.
_DRAW_BLOCK = 1 << 16


def conditional_plus_probability(inst: IsingInstance, config: np.ndarray, x: int) -> float:
    """Exact Gibbs conditional P(sigma_x = +1 | neighbor spins)."""
    neigh_sum = sum(config[y] for y in inst.graph.adjacency[x])
    return float(expit(2.0 * inst.fields[x] + 2.0 * inst.beta * neigh_sum))


def mixing_time_bound(n: int, delta: int, beta: float, h_min: float, eps: float) -> int | None:
    """Path-coupling mixing-time bound, or None (no guarantee) when the
    per-step contraction delta*M(delta, h_min, beta) < 1 fails."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    contraction = 1.0 - delta * influence_bound(delta, h_min, beta)
    if contraction <= 0.0:
        return None
    return math.ceil(n * math.log(n / eps) / contraction)


def glauber_sample(inst: IsingInstance, eps: float, seed: int) -> np.ndarray | None:
    """Run the chain from the all-(+1) start for the certified number of steps;
    None when no mixing guarantee exists."""
    free = inst.free_vertices
    if not free:
        return np.array([inst.boundary[v] for v in range(inst.graph.n)])
    h_min = float(np.min(np.abs(inst.fields[free])))
    steps = mixing_time_bound(inst.graph.n, max_degree(inst.graph), inst.beta, h_min, eps)
    if steps is None:
        return None
    return run_chain(inst, steps, seed)


def run_chain(inst: IsingInstance, steps: int, seed: int, init_spin: int = +1) -> np.ndarray:
    """Final configuration after `steps` Glauber updates (single chain)."""
    return run_chains(inst, steps, 1, seed, init_spin)[0]


def _conditional_table(inst: IsingInstance) -> tuple[list[float], list[int]]:
    """Every heat-bath conditional of the instance, O(n + m) entries.

    P(sigma_x = +1 | neighbor spin sum s) is table[centre[x] + s] for s in
    [-deg x, deg x], computed with the expression of
    `conditional_plus_probability`, so both agree bit for bit.
    """
    deg = np.array([len(a) for a in inst.graph.adjacency], dtype=np.intp)
    width = 2 * deg + 1
    centre = np.cumsum(width) - width + deg
    owner = np.repeat(np.arange(inst.graph.n), width)
    s = np.arange(len(owner)) - centre[owner]
    table = expit(2.0 * inst.fields[owner] + 2.0 * inst.beta * s)
    return table.tolist(), centre.tolist()


def run_chains(
    inst: IsingInstance, steps: int, n_chains: int, seed: int, init_spin: int = +1
) -> np.ndarray:
    """Final configurations of `n_chains` independent heat-bath chains, each
    started from `init_spin` on every free vertex and run for `steps` updates.

    The chains run one after another from one generator seeded with `seed`.
    A chain draws its updates in blocks of at most 2**16: a block of m
    updates is `rng.integers(len(free), size=m)` (indices into the free
    vertices) followed by `rng.random(m)` (the chosen vertex becomes +1 when
    its uniform lies below its conditional probability of +1).  The result is
    deterministic given (seed, steps, n_chains), and chain i does not depend
    on n_chains, so `run_chains(inst, s, k, seed)[0] == run_chain(inst, s,
    seed)`.  This stream differs from the lockstep interleaving of versions
    before it, so their outputs are not reproduced.

    An update costs O(deg x); memory is O(n + m + n_chains * n).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if n_chains < 0:
        raise ValueError(f"n_chains must be >= 0, got {n_chains}")
    if init_spin not in (-1, 1):
        raise ValueError(f"init_spin must be +-1, got {init_spin}")
    n = inst.graph.n
    start = [init_spin] * n
    for v, s in inst.boundary.items():
        start[v] = s
    configs = np.empty((n_chains, n), dtype=int)
    configs[:] = start
    free = np.array(inst.free_vertices, dtype=np.intp)
    if len(free) == 0 or steps == 0:
        return configs
    adjacency = inst.graph.adjacency
    table, centre = _conditional_table(inst)
    rng = np.random.default_rng(seed)
    for c in range(n_chains):
        config = start.copy()
        for done in range(0, steps, _DRAW_BLOCK):
            m = min(_DRAW_BLOCK, steps - done)
            xs = free[rng.integers(len(free), size=m)].tolist()
            us = rng.random(m).tolist()
            for x, u in zip(xs, us):
                t = centre[x]
                for y in adjacency[x]:
                    t += config[y]
                config[x] = 1 if u < table[t] else -1
        configs[c] = config
    return configs


def coupled_drift_estimate(
    inst: IsingInstance, trials: int, seed: int
) -> tuple[float, float]:
    """Per-step Hamming-distance drift for the identity coupling.

    Each trial starts two chains at a random pair of configurations differing
    at one random free vertex, applies one coupled update (same vertex, same
    uniform variate), and records the change in Hamming distance.  Returns
    (mean change, standard error).
    """
    rng = np.random.default_rng(seed)
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
