import math

import numpy as np
import pytest

from rfim import percolation as P
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_marginal, influence_bound
from rfim.percolation import (
    SitePercolationSpec,
    connection_probability,
    coupled_exploration,
    coupled_exploration_sweep,
    domination_spec,
    exact_tv_on_region,
    sample_site_percolation,
    tv_domination_check,
    wilson_interval,
)

from conftest import random_connected_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_sample_extreme_probabilities():
    g = path_graph(5)
    closed = SitePercolationSpec(g, np.zeros(5), frozenset({0}))
    open_ = sample_site_percolation(closed, 3)
    assert list(np.flatnonzero(open_)) == [0]
    everything = SitePercolationSpec(g, np.ones(5))
    assert np.all(sample_site_percolation(everything, 3))


def test_sample_open_fraction():
    g = path_graph(10)
    spec = SitePercolationSpec(g, np.full(10, 0.3))
    total = 0
    trials = 2000
    for s in range(trials):
        total += int(np.sum(sample_site_percolation(spec, s)))
    frac = total / (trials * 10)
    se = math.sqrt(0.3 * 0.7 / (trials * 10))
    assert abs(frac - 0.3) <= 3 * se


def test_spec_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        SitePercolationSpec(g, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SitePercolationSpec(g, np.array([0.5, 1.5, 0.5]))
    with pytest.raises(ValueError):
        SitePercolationSpec(g, np.zeros(3), frozenset({7}))


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


def test_wilson_interval_basics():
    est = wilson_interval(50, 100)
    assert est.low < 0.5 < est.high
    assert wilson_interval(0, 100).low == 0.0
    assert wilson_interval(100, 100).high == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


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
    big = IsingInstance(path_graph(25), 1.0, np.zeros(25), {0: 1})
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

    def counted(inst, v, **kwargs):
        calls.append((v, tuple(sorted(kwargs["extra"].items()))))
        return exact_marginal(inst, v, **kwargs)

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
    g = path_graph(6)
    lo = SitePercolationSpec(g, np.full(6, 0.4), frozenset({0}))
    hi = SitePercolationSpec(g, np.full(6, 0.7), frozenset({0}))
    for s in range(200):
        open_lo = sample_site_percolation(lo, s)
        open_hi = sample_site_percolation(hi, s)
        assert np.all(open_hi[open_lo])  # same uniforms: open sets nest
        if P._connects(lo, open_lo, {5}):
            assert P._connects(hi, open_hi, {5})


def test_averaged_decay_beta_zero():
    g = path_graph(6)
    prof = P.averaged_decay_profile(g, lambda r: np.zeros(6), 0.0, 0, 200, seed=0)
    assert all(est.p_hat == 0.0 for est in prof.values())


def test_averaged_decay_huge_fields_die_out():
    g = path_graph(6)
    prof = P.averaged_decay_profile(g, lambda r: np.full(6, 50.0), 1.0, 0, 200, seed=0)
    assert all(est.p_hat == 0.0 for d, est in prof.items() if d >= 1)


def test_averaged_decay_profile_decreases():
    g = path_graph(8)
    prof = P.averaged_decay_profile(
        g, lambda r: r.normal(0.0, 1.0, 8), 1.0, 0, 2000, seed=5
    )
    vals = [prof[d].p_hat for d in sorted(prof)]
    assert all(a >= b - 0.05 for a, b in zip(vals, vals[1:]))
