import itertools
import math
import random
import time
import tracemalloc
from array import array

import numpy as np
import pytest

from rfim import glauber as GL
from rfim.glauber import (
    conditional_plus_probability,
    coupled_drift_estimate,
    glauber_sample,
    mixing_time_bound,
    run_chains,
)
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_marginal, exact_region_law, influence_bound

from conftest import random_connected_graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_conditional_is_gibbs_conditional(rng):
    # the update kernel agrees with the exact conditional obtained by
    # conditioning every neighbor
    for _ in range(10):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(n, rng)
        inst = IsingInstance(g, float(rng.uniform(-2, 2)), rng.uniform(-2, 2, n))
        config = rng.choice([-1, 1], n)
        x = int(rng.integers(n))
        extra = {int(y): int(config[y]) for y in g.adjacency[x]}
        assert conditional_plus_probability(inst, config, x) == pytest.approx(
            exact_marginal(inst.with_extra_boundary(extra), x), abs=1e-12
        )


def test_conditional_table_equals_scipy_expit(rng):
    # numpy's vectorised exp differs from scipy's expit in the last bit on
    # about 2% of normal draws, which would change the chains' updates
    from scipy.special import expit

    g = random_connected_graph(300, rng, extra_edges=300)
    inst = IsingInstance(g, 0.7, rng.normal(size=300) * 30)
    table, centre = GL._conditional_table(inst)
    for x, neighbours in enumerate(g.adjacency):
        d = len(neighbours)
        want = expit(2.0 * inst.fields[x] + 2.0 * inst.beta * np.arange(-d, d + 1))
        assert table[centre[x] - d : centre[x] + d + 1] == want.tolist()


def test_step_examples():
    lone = IsingInstance(Graph.from_edges(1, []), 1.0, np.zeros(1))
    finals = run_chains(lone, 1, 2000, seed=5)
    assert abs(np.mean(finals[:, 0] == 1) - 0.5) < 0.05

    # strong coupling with -1 neighbors pins the update against the +1 start
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = IsingInstance(star, 30.0, np.zeros(4), {1: -1, 2: -1, 3: -1})
    assert conditional_plus_probability(inst, np.array([1, -1, -1, -1]), 0) == pytest.approx(0.0)
    assert np.all(run_chains(inst, 20, 50, seed=5) == -1)


def test_all_fixed_returns_boundary():
    g = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(g, 1.0, np.zeros(2), {0: 1, 1: -1})
    finals = run_chains(inst, 10, 3, seed=0)
    assert finals.tolist() == [[1, -1]] * 3


def test_mixing_bound_beta_zero():
    for n, eps in [(10, 0.1), (50, 0.01)]:
        assert mixing_time_bound(n, 3, 0.0, 0.0, eps) == math.ceil(n * math.log(n / eps))


def test_mixing_bound_at_field_threshold():
    # |h| >= delta|beta| + 0.5 log(delta) keeps delta*M below 1
    for delta in (2, 3, 5):
        for beta in (0.5, 1.0, 2.0):
            h0 = delta * beta + 0.5 * math.log(delta)
            assert mixing_time_bound(20, delta, beta, h0, 0.1) is not None


def test_no_guarantee_honesty():
    assert mixing_time_bound(10, 3, 2.0, 0.0, 0.1) is None
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = IsingInstance(g, 2.0, np.zeros(4))
    assert glauber_sample(inst, 0.1, 0) is None


def test_glauber_sample_past_step_budget_gives_no_guarantee():
    # C6, beta 0.5, every |h| just above the field where 2 M(2, h, 0.5) = 1:
    # the chain contracts, but certifies only after about 4.2e10 updates
    lo, hi = 0.0, 5.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if 2 * influence_bound(2, mid, 0.5) >= 1 else (lo, mid)
    h = hi + 1e-9
    assert mixing_time_bound(6, 2, 0.5, h, 0.01) > GL.STEP_BUDGET
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    start = time.perf_counter()
    assert glauber_sample(IsingInstance(c6, 0.5, [h, -h] * 3), 0.01, 0) is None
    assert time.perf_counter() - start < 1.0


def test_glauber_sample_same_on_list_array_and_ndarray_fields():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for beta, h in ((2.0, [0.01, -0.3, 0.2, 0.5]), (0.1, [3.0, -2.5, 4.0, 3.5])):
        got = [glauber_sample(IsingInstance(star, beta, fields, {3: -1}), 0.1, 4)
               for fields in (h, array("d", h), np.array(h))]
        if beta == 2.0:
            assert got == [None] * 3
        else:
            assert got[0] is not None
            assert got[0] == got[1] == got[2]


def test_glauber_sample_all_fixed():
    g = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(g, 2.0, np.zeros(2), {0: 1, 1: -1})
    assert glauber_sample(inst, 0.1, 0) == [1, -1]


def test_glauber_sample_is_first_chain_of_run_chains(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, rng)
        h = rng.choice([-1, 1], n) * rng.uniform(3.0, 5.0, n)
        inst = IsingInstance(g, 0.1, h, {0: 1})
        eps, seed = 0.05, int(rng.integers(1000))
        delta = max(len(a) for a in g.adjacency)
        steps = mixing_time_bound(n, delta, 0.1, min(abs(h[1:])), eps)
        assert glauber_sample(inst, eps, seed) == run_chains(inst, steps, 1, seed)[0].tolist()


def test_empirical_stationarity_triangle():
    inst = IsingInstance(TRIANGLE, 0.7, np.array([0.1, 0.2, -0.1]))
    law = exact_region_law(inst, [0, 1, 2])
    # long-run occupation frequencies of a single chain after burn-in
    steps, chains = 400, 20000
    finals = run_chains(inst, steps, chains, seed=9)
    counts = {}
    for row in finals:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(cfg, 0) / chains - law.get(cfg, 0.0))
        for cfg in itertools.product([-1, 1], repeat=3)
    )
    assert tv <= 0.02


def test_run_chains_deterministic():
    inst = IsingInstance(TRIANGLE, 0.5, np.array([0.3, -0.2, 0.1]))
    a = run_chains(inst, 100, 8, seed=3)
    b = run_chains(inst, 100, 8, seed=3)
    assert np.array_equal(a, b)
    c = run_chains(inst, 100, 8, seed=4)
    assert not np.array_equal(a, c)


def test_run_chains_respects_boundary():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = IsingInstance(g, 1.0, np.zeros(3), {1: -1})
    finals = run_chains(inst, 50, 16, seed=2)
    assert np.all(finals[:, 1] == -1)


def test_run_chains_rejects_bad_arguments():
    inst = IsingInstance(TRIANGLE, 0.5, np.zeros(3))
    for kwargs in ({"steps": -5}, {"n_chains": -1}):
        args = {"steps": 10, "n_chains": 2, "seed": 0, **kwargs}
        with pytest.raises(ValueError):
            run_chains(inst, **args)


def test_first_chain_independent_of_chain_count(rng):
    g = random_connected_graph(7, rng)
    inst = IsingInstance(g, 0.2, np.zeros(7), {3: -1})
    single = run_chains(inst, 200, 1, seed=11)[0]
    for k in (2, 3):
        assert np.array_equal(run_chains(inst, 200, k, seed=11)[0], single)


def assert_chains_replay(inst, steps, chains, seed):
    # the documented stream driven through conditional_plus_probability: per
    # update the vertex, as random.choices picks it, then its uniform
    got = run_chains(inst, steps, chains, seed)
    ref_rng = random.Random(seed)
    free = inst.free_vertices
    for c in range(chains):
        config = np.full(inst.graph.n, 1)
        for v, s in inst.boundary.items():
            config[v] = s
        for _ in range(steps):
            x = ref_rng.choices(free)[0]
            u = ref_rng.random()
            config[x] = 1 if u < conditional_plus_probability(inst, config, x) else -1
        assert got[c].tolist() == config.tolist()


def test_run_chains_matches_reference_replay(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, rng)
        inst = IsingInstance(g, float(rng.uniform(-1.5, 1.5)), rng.uniform(-2, 2, n), {0: -1})
        assert_chains_replay(inst, 30, 3, int(rng.integers(1000)))


def row_pairs(inst):
    return {(float(h), len(nb)) for h, nb in zip(inst.fields, inst.graph.adjacency)}


def test_shared_conditional_rows_match_reference_replay(rng):
    # two-point fields (and signed zeros, which key one row) share a row per
    # (h, degree) pair, and the chains still follow the exact conditional
    for _ in range(6):
        n = int(rng.integers(4, 14))
        g = random_connected_graph(n, rng, extra_edges=5)
        h = float(rng.uniform(0.2, 3.0))
        inst = IsingInstance(g, float(rng.uniform(-1.5, 1.5)),
                             rng.choice([h, -h, 0.0, -0.0], n), {0: -1, n - 1: 1})
        table, centre = GL._conditional_table(inst)
        pairs = row_pairs(inst)
        assert len(set(centre)) == len(pairs)
        assert len(table) == sum(2 * d + 1 for _, d in pairs)
        assert_chains_replay(inst, 40, 3, int(rng.integers(1000)))
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    inst = IsingInstance(c6, 0.5, [1.5, -1.5, 0.0, -0.0, 1.5, -1.5], {5: 1})
    table, centre = GL._conditional_table(inst)
    assert len(table) == 3 * 5 and centre == [2, 7, 12, 12, 2, 7]
    assert_chains_replay(inst, 60, 4, 7)


def test_gaussian_fields_keep_one_row_per_vertex(rng):
    g = random_connected_graph(50, rng, extra_edges=40)
    inst = IsingInstance(g, 0.4, rng.normal(size=50))
    table, centre = GL._conditional_table(inst)
    assert len(set(centre)) == len(row_pairs(inst)) == 50
    assert len(table) == sum(2 * len(nb) + 1 for nb in g.adjacency)


def test_run_chains_memory_linear():
    # a dense n x n adjacency alone would take 128 MB here
    n = 4000
    inst = IsingInstance(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), 0.5, np.zeros(n))
    tracemalloc.start()
    try:
        run_chains(inst, 300, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_coupled_drift_contracts_under_large_fields(rng):
    g = random_connected_graph(8, rng)
    delta = max(len(a) for a in g.adjacency)
    beta = 0.8
    h0 = delta * beta + 0.5 * math.log(delta)
    h = rng.choice([-1, 1], 8) * (h0 + rng.uniform(0, 0.5, 8))
    inst = IsingInstance(g, beta, h)
    mean, se = coupled_drift_estimate(inst, 10000, seed=1)
    assert mean <= 3 * se


def test_coupled_drift_needs_two_trials():
    # the standard error of one trial, or of none, is not a number
    inst = IsingInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), 0.5, [0.1, 0.2, 0.3])
    for trials in (-1, 0, 1):
        with pytest.raises(ValueError, match="trials"):
            coupled_drift_estimate(inst, trials, seed=0)
    mean, se = coupled_drift_estimate(inst, 2, seed=0)
    assert math.isfinite(mean) and math.isfinite(se)
