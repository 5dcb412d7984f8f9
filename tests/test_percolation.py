import itertools
import math
import random
import re

import numpy as np
import pytest

from rfim import percolation as P
from rfim.graph import Graph, bfs_distances
from rfim.model import ENUMERATION_CAP, IsingInstance, exact_marginal, influence_bound
from rfim.percolation import (
    SitePercolationSpec,
    connection_probability,
    coupled_exploration,
    coupled_exploration_sweep,
    domination_spec,
    exact_tv_on_region,
    tv_domination_check,
    wilson_interval,
)

from conftest import random_connected_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_spec_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        SitePercolationSpec(g, np.array([0.5, 0.5]))
    for bad in (1.5, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            SitePercolationSpec(g, np.array([0.5, bad, 0.5]))
    with pytest.raises(ValueError):
        SitePercolationSpec(g, np.zeros(3), frozenset({7}))
    for bad in (0.5, 1.0, "0", None):
        with pytest.raises(ValueError, match=re.escape(f"boundary vertex {bad!r} is not an integer")):
            SitePercolationSpec(g, np.zeros(3), frozenset({bad}))
    spec = SitePercolationSpec(g, np.zeros(3), frozenset({np.int64(2), 0}))
    assert spec.boundary_open == {0, 2} and all(type(v) is int for v in spec.boundary_open)


def test_connection_probability_two_site_product():
    # path b-u-a with boundary b always open: reaching a needs u and a open
    g = path_graph(3)
    q = 0.6
    spec = SitePercolationSpec(g, np.array([0.0, q, q]), frozenset({0}))
    est = connection_probability(spec, {2}, 20000, seed=5)
    assert est.low <= q * q <= est.high


def test_connection_probability_blocked_and_adjacent():
    g = path_graph(3)
    blocked = SitePercolationSpec(g, np.array([0.0, 0.0, 1.0]), frozenset({0}))
    assert connection_probability(blocked, {2}, 2000, seed=1).p_hat == 0.0
    adjacent = SitePercolationSpec(g, np.array([0.0, 1.0, 0.3]), frozenset({0}))
    assert connection_probability(adjacent, {1}, 2000, seed=1).p_hat == 1.0


def test_connection_probability_tree_oracle():
    # complete binary tree of depth 3, root always open, targets = leaves;
    # exact answer by the standard downward dynamic program
    edges = []
    for u in range(7):
        edges += [(u, 2 * u + 1), (u, 2 * u + 2)]
    g = Graph.from_edges(15, edges)
    p = 0.7
    leaves = set(range(7, 15))

    def reach_prob(u):
        if u in leaves:
            return 1.0
        prod = 1.0
        for c in (2 * u + 1, 2 * u + 2):
            prod *= 1.0 - p * reach_prob(c)
        return 1.0 - prod

    exact = reach_prob(0)
    spec = SitePercolationSpec(g, np.full(15, p), frozenset({0}))
    est = connection_probability(spec, leaves, 20000, seed=8)
    assert est.low <= exact <= est.high


def test_connection_probability_input_errors():
    g = path_graph(3)
    spec = SitePercolationSpec(g, np.full(3, 0.5), frozenset({0}))
    with pytest.raises(ValueError):
        connection_probability(spec, {0}, 100, seed=0)
    with pytest.raises(ValueError):
        connection_probability(spec, {2}, 0, seed=0)
    for bad in ({-1}, {7}, {2, 3}):
        with pytest.raises(ValueError, match="out of range"):
            connection_probability(spec, bad, 100, seed=0)
    for bad in ({1.0}, {0.5}, {2, "1"}):
        with pytest.raises(ValueError, match="target vertex .* is not an integer"):
            connection_probability(spec, bad, 100, seed=0)
    assert (connection_probability(spec, {np.int64(2)}, 100, seed=0)
            == connection_probability(spec, {2}, 100, seed=0))


def test_trials_and_seed_must_be_integers():
    spec = SitePercolationSpec(path_graph(3), np.full(3, 0.5), frozenset({0}))
    for trials in (1.5, True, 0, -2, "10", None):
        with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {re.escape(repr(trials))}$"):
            connection_probability(spec, {2}, trials, seed=0)
        with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
            wilson_interval(1, trials)
    for seed in (1.5, True, -1, "0", None):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
            connection_probability(spec, {2}, 10, seed)
    est = connection_probability(spec, {2}, np.int64(50), np.int64(3))
    assert est == connection_probability(spec, {2}, 50, 3) and type(est.trials) is int
    assert type(wilson_interval(1, np.int32(4)).trials) is int


def reference_cluster(g, open_, sources):
    """Open vertices joined to the open `sources`, by breadth-first layers."""
    reach = {v for v in sources if open_[v]}
    frontier = list(reach)
    while frontier:
        frontier = [w for u in frontier for w in g.adjacency[u] if open_[w] and w not in reach]
        reach.update(frontier)
    return reach


def replay_trial(g, p, sources, targets, uniform):
    """One trial of the documented lazy search: the sources are open and
    pushed in order; popping the last vertex pushed, each undecided neighbour
    (in adjacency order) takes the next uniform and is open, and pushed, when
    it lies below its probability.  Returns the decided sites (vertex -> open)
    and whether the search stopped at an open target."""
    decided = dict.fromkeys(sources, True)
    stack = list(sources)
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in decided:
                decided[w] = uniform() < p[w]
                if decided[w]:
                    if w in targets:
                        return decided, True
                    stack.append(w)
    return decided, False


def test_connection_probability_replays_lazy_search_stream(rng):
    n = 12
    g = random_connected_graph(n, rng, extra_edges=4)
    p = rng.uniform(0.3, 0.9, n)
    for boundary in (frozenset(), frozenset({0}), frozenset({0, 4, 9})):
        spec = SitePercolationSpec(g, p, boundary)
        targets = {1, 7, 11} - boundary
        for trials in (1, 4, 20):
            for seed in (0, 3):
                uniform = random.Random(seed).random
                hits = 0
                for _ in range(trials):
                    decided, hit = replay_trial(g, p, sorted(boundary), targets, uniform)
                    opened = [decided.get(v, False) for v in range(n)]
                    # the search stops at the first open target it meets, and
                    # otherwise has decided the whole cluster and its rim
                    assert hit == bool(reference_cluster(g, opened, boundary) & targets)
                    hits += hit
                est = connection_probability(spec, targets, trials, seed)
                assert est.successes == hits


def exact_connection_probability(spec, targets):
    """P(boundary_open <-> targets), summed over every open set of the other sites."""
    n = spec.graph.n
    others = [v for v in range(n) if v not in spec.boundary_open]
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(others)):
        open_ = [True] * n
        weight = 1.0
        for v, is_open in zip(others, bits):
            open_[v] = is_open
            weight *= spec.probabilities[v] if is_open else 1.0 - spec.probabilities[v]
        if reference_cluster(spec.graph, open_, spec.boundary_open) & targets:
            total += weight
    return total


def test_connection_probability_matches_exact_enumeration(rng):
    trials = 4000
    for i in range(8):
        n = int(rng.integers(4, 11))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, 4)))
        p = rng.uniform(0.0, 1.0, n)
        boundary = frozenset(int(v) for v in rng.choice(n, int(rng.integers(1, 3)), replace=False))
        rest = [v for v in range(n) if v not in boundary]
        targets = set(rest[-int(rng.integers(1, 3)):])
        spec = SitePercolationSpec(g, p, boundary)
        exact = exact_connection_probability(spec, targets)
        est = connection_probability(spec, targets, trials, seed=i)
        assert abs(est.p_hat - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials) + 1e-12


class CountingRandom(random.Random):
    draws = 0

    def random(self):
        CountingRandom.draws += 1
        return super().random()


def test_connection_probability_draws_one_uniform_per_touched_site(rng, monkeypatch):
    # with probabilities 0 and 1 the cluster is known in advance; no target
    # is reachable, so each trial touches the cluster and its closed rim
    monkeypatch.setattr(P, "Random", CountingRandom)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, n)))
        p = rng.integers(0, 2, n).astype(float)
        boundary = frozenset(int(v) for v in rng.choice(n, int(rng.integers(1, 3)), replace=False))
        open_ = [p[v] == 1.0 or v in boundary for v in range(n)]
        cluster = reference_cluster(g, open_, boundary)
        touched = cluster.union(*(g.adjacency[v] for v in cluster)) - boundary
        targets = {v for v in range(n) if v not in cluster}
        trials = int(rng.integers(1, 5))
        CountingRandom.draws = 0
        est = connection_probability(SitePercolationSpec(g, p, boundary), targets, trials, seed=1)
        assert est.successes == 0
        assert CountingRandom.draws == trials * len(touched)


def test_wilson_interval_basics():
    est = wilson_interval(50, 100)
    assert est.low < 0.5 < est.high
    assert wilson_interval(0, 100).low == 0.0
    assert wilson_interval(100, 100).high == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_rejects_more_successes_than_trials():
    with pytest.raises(ValueError, match="^successes must be <= trials, got 5 > 3$"):
        wilson_interval(5, 3)


def test_wilson_interval_contains_p_hat():
    for trials in range(1, 301):
        for successes in range(trials + 1):
            est = wilson_interval(successes, trials)
            assert 0.0 <= est.low <= est.p_hat <= est.high <= 1.0, (successes, trials)


def test_coupling_identical_boundaries():
    g = path_graph(5)
    inst = IsingInstance(g, 1.0, np.zeros(5), {0: 1})
    t = coupled_exploration(inst, {0: 1}, {0: 1}, seed=4)
    assert np.all(t.disagreement == 0)
    assert np.array_equal(t.sigma_a, t.sigma_b)


def test_coupling_beta_zero():
    g = path_graph(5)
    inst = IsingInstance(g, 0.0, np.linspace(-1, 1, 5), {0: 1})
    t = coupled_exploration(inst, {0: 1}, {0: -1}, seed=4)
    assert np.all(t.disagreement[1:] == 0)
    assert t.disagreement[0] == 1


def test_coupling_validation():
    g = path_graph(4)
    inst = IsingInstance(g, 1.0, np.zeros(4), {0: 1})
    with pytest.raises(ValueError):
        coupled_exploration(inst, {1: 1}, {0: 1}, seed=0)
    # cap + 2 free vertices: the first site's marginal sums over cap + 1
    n = ENUMERATION_CAP + 3
    big = IsingInstance(path_graph(n), 1.0, np.zeros(n), {0: 1})
    with pytest.raises(ValueError):
        coupled_exploration(big, {0: 1}, {0: -1}, seed=0)


def test_sweep_single_trial_matches_exploration(rng):
    g = random_connected_graph(7, rng)
    inst = IsingInstance(g, 0.9, rng.uniform(-1, 1, 7), {0: 1, 3: -1})
    eta, xi = {0: 1, 3: -1}, {0: -1, 3: -1}
    for seed in (0, 5, 11):
        t = coupled_exploration(inst, eta, xi, seed=seed)
        s_freq, plus_a, plus_b = coupled_exploration_sweep(inst, eta, xi, 1, seed=seed)
        assert np.array_equal(s_freq, t.disagreement)
        assert np.array_equal(plus_a, t.sigma_a == 1)
        assert np.array_equal(plus_b, t.sigma_b == 1)


def replay_exploration(inst, eta, xi, seed):
    """The documented exploration, written out: the next site is the first
    unexplored one next to the disagreement set, else the first by
    (distance to the boundary, index); it takes one `random()` of
    `default_rng(seed)`, and each side's spin is +1 when that uniform lies
    below `exact_marginal` of the instance fixed to that side's spins."""
    g = inst.graph
    dist = bfs_distances(g, sorted(inst.boundary)) if inst.boundary else [0] * g.n
    order = sorted((v for v in range(g.n) if v not in inst.boundary),
                   key=lambda v: (dist[v] if dist[v] >= 0 else g.n + 1, v))
    sides = [dict(eta), dict(xi)]
    uniform = np.random.default_rng(seed).random
    visited = []
    while order:
        near = [v for v in order if any(sides[0][w] != sides[1][w]
                                        for w in g.adjacency[v] if w in sides[0])]
        x = (near or order)[0]
        order.remove(x)
        u = uniform()
        for side in sides:
            cond = IsingInstance(g, inst.beta, inst.fields, side)
            side[x] = +1 if u < exact_marginal(cond, x) else -1
        visited.append(x)
    a, b = ([side[v] for v in range(g.n)] for side in sides)
    return a, b, [int(s != t) for s, t in zip(a, b)], visited


def test_coupled_exploration_matches_documented_replay(rng):
    for i in range(8):
        n = int(rng.integers(6, 11))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, 4)))
        if i % 4 == 3:  # add vertex n, which the boundary cannot reach
            g = Graph.from_edges(n + 1, g.edges())
        b1, b2 = (int(v) for v in rng.choice(n, 2, replace=False))
        n = g.n
        inst = IsingInstance(g, float(rng.uniform(-1.5, 1.5)), rng.uniform(-2, 2, n),
                             {b1: 1, b2: 1})
        eta, xi = {b1: 1, b2: -1}, {b1: -1, b2: [1, -1][i % 2]}
        for seed in (i, 100 + i):
            t = coupled_exploration(inst, eta, xi, seed)
            a, b, disagree, visited = replay_exploration(inst, eta, xi, seed)
            assert t.sigma_a.tolist() == a and t.sigma_b.tolist() == b
            assert t.disagreement.tolist() == disagree
            assert t.exploration_order == visited


def test_sweep_rejects_non_positive_trials():
    inst = IsingInstance(path_graph(6), 1.0, np.zeros(6), {0: 1})
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            coupled_exploration_sweep(inst, {0: 1}, {0: -1}, trials, seed=0)


def test_sweep_enumerates_each_conditional_once(monkeypatch):
    # with eta = xi both sides reveal the same spins, so they share every
    # conditional marginal
    inst = IsingInstance(path_graph(6), 0.7, np.linspace(-0.5, 0.5, 6), {0: 1})
    calls = []

    def counted(inst, v):
        calls.append((v, tuple(sorted(inst.boundary.items()))))
        return exact_marginal(inst, v)

    monkeypatch.setattr(P, "exact_marginal", counted)
    coupled_exploration_sweep(inst, {0: 1}, {0: 1}, 200, seed=3)
    assert len(calls) == len(set(calls))


def test_tv_check_requires_eta_xi_on_the_boundary():
    inst = IsingInstance(path_graph(4), 1.0, np.zeros(4), {0: 1})
    for eta, xi in (({}, {}), ({0: 1, 1: 1}, {0: -1, 1: 1})):
        with pytest.raises(ValueError, match="exactly the boundary"):
            exact_tv_on_region(inst, [3], eta, xi)
        with pytest.raises(ValueError, match="exactly the boundary"):
            tv_domination_check(inst, [3], eta, xi, trials=100, seed=0)


def test_exploration_order_layered():
    g = path_graph(5)
    inst = IsingInstance(g, 1.0, np.zeros(5), {0: 1})
    t = coupled_exploration(inst, {0: 1}, {0: -1}, seed=0)
    assert t.exploration_order == [1, 2, 3, 4]


def test_coupling_marginal_correctness():
    g = path_graph(4)
    inst = IsingInstance(g, 0.8, np.array([0.0, 0.3, -0.2, 0.1]), {0: 1})
    eta, xi = {0: 1}, {0: -1}
    trials = 20000
    _, plus_a, plus_b = coupled_exploration_sweep(inst, eta, xi, trials, seed=6)
    for v in range(1, 4):
        for plus, bc in ((plus_a, eta), (plus_b, xi)):
            base = IsingInstance(g, inst.beta, inst.fields, bc)
            p = exact_marginal(base, v)
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(plus[v] - p) <= 3 * se + 1e-12


def test_disagreement_dominated_by_percolation():
    # far-end disagreement frequency vs the percolation connection bound
    g = path_graph(6)
    inst = IsingInstance(g, 1.0, np.zeros(6), {0: 1})
    eta, xi = {0: 1}, {0: -1}
    trials = 20000
    s_freq, _, _ = coupled_exploration_sweep(inst, eta, xi, trials, seed=2)
    spec = domination_spec(inst, eta, xi)
    est = connection_probability(spec, {5}, trials, seed=3)
    slack = 3 * (est.stderr + math.sqrt(0.25 / trials))
    assert s_freq[5] <= est.p_hat + slack


def test_tv_equal_boundaries_zero():
    g = path_graph(4)
    inst = IsingInstance(g, 1.2, np.zeros(4), {0: 1})
    assert exact_tv_on_region(inst, [2, 3], {0: 1}, {0: 1}) == 0.0


def test_tv_two_spin_equality():
    # single edge, free far vertex: the TV distance equals the influence
    # bound M(1, 0, beta) and the percolation bound is the same number
    g = path_graph(2)
    for beta in (0.3, 1.0, 2.5):
        inst = IsingInstance(g, beta, np.zeros(2), {0: 1})
        tv = exact_tv_on_region(inst, [1], {0: 1}, {0: -1})
        m = influence_bound(1, 0.0, beta)
        assert tv == pytest.approx(m, abs=1e-10)
        spec = domination_spec(inst, {0: 1}, {0: -1})
        assert spec.probabilities[1] == pytest.approx(m, abs=1e-12)


def test_tv_domination_random_sweep(rng):
    for _ in range(10):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1.5, 1.5))
        h = rng.uniform(-2, 2, n)
        b = int(rng.integers(n))
        inst = IsingInstance(g, beta, h, {b: 1})
        region = [v for v in range(n) if v != b][: int(rng.integers(1, 3))]
        report = tv_domination_check(inst, region, {b: 1}, {b: -1}, 4000, seed=7)
        assert report.holds


def test_percolation_monotone_under_coupled_seeds():
    # on the path from the source 0 the search decides site k with the k-th
    # draw, so one seed couples lo and hi and the open sets nest
    g = path_graph(6)
    lo = SitePercolationSpec(g, np.full(6, 0.4), frozenset({0}))
    hi = SitePercolationSpec(g, np.full(6, 0.7), frozenset({0}))
    for s in range(200):
        if connection_probability(lo, {5}, 1, s).successes:
            assert connection_probability(hi, {5}, 1, s).successes


def test_averaged_decay_beta_zero():
    g = path_graph(6)
    prof = P.averaged_decay_profile(g, lambda r: np.zeros(6), 0.0, 0, 200, seed=0)
    assert all(est.p_hat == 0.0 for est in prof.values())


def test_averaged_decay_huge_fields_die_out():
    g = path_graph(6)
    prof = P.averaged_decay_profile(g, lambda r: np.full(6, 50.0), 1.0, 0, 200, seed=0)
    assert all(est.p_hat == 0.0 for d, est in prof.items() if d >= 1)


def test_averaged_decay_closed_source_reaches_nothing():
    # x never opens (M is 0.0 at |h| = 1000) while every other site is open
    # with probability near 1, so no trial may count a connection from x
    g = path_graph(6)
    h = np.zeros(6)
    h[0] = 1000.0
    prof = P.averaged_decay_profile(g, lambda r: h, 3.0, 0, 200, seed=0)
    assert sorted(prof) == [1, 2, 3, 4, 5]
    assert all(est.successes == 0 for est in prof.values())


def test_averaged_decay_equals_per_trial_breadth_first_search(rng):
    g = random_connected_graph(10, rng, extra_edges=3)
    x, beta, trials, seed = 2, 0.8, 300, 9
    prof = P.averaged_decay_profile(g, lambda r: r.normal(0.0, 0.5, 10), beta, x, trials, seed)
    dist = bfs_distances(g, x)
    r = np.random.default_rng(seed)
    hits = {d: 0 for d in prof}
    for _ in range(trials):
        h = r.normal(0.0, 0.5, 10)  # fields, x's uniform, the search's uniforms
        p = [influence_bound(g.degree(v), h[v], beta) for v in range(10)]
        if r.random() >= p[x]:
            continue  # x closed: no search, no hits
        decided, _ = replay_trial(g, p, [x], set(), r.random)
        opened = [decided.get(v, False) for v in range(10)]
        for y in reference_cluster(g, opened, [x]) - {x}:
            hits[dist[y]] += 1
    assert {d: est.successes for d, est in prof.items()} == hits


def test_averaged_decay_profile_decreases():
    g = path_graph(8)
    prof = P.averaged_decay_profile(
        g, lambda r: r.normal(0.0, 1.0, 8), 1.0, 0, 2000, seed=5
    )
    vals = [prof[d].p_hat for d in sorted(prof)]
    assert all(a >= b - 0.05 for a, b in zip(vals, vals[1:]))
