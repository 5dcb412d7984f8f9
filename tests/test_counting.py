import itertools
import json
import math
import re

import numpy as np
import pytest

from rfim import counting as C
from rfim import model as M
from rfim.counting import (
    approx_partition,
    approx_sample,
    check_instance,
    choose_depth,
    sample_many,
)
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_partition, exact_region_law, hamiltonian
from rfim.randgen import FieldSpec, gen_er_graph, gen_fields
from rfim.sawtree import SawWalker

from conftest import random_connected_graph


def test_choose_depth_examples():
    assert choose_depth(100, 0.1, 1.0, 0) == 9  # ceil(log 4000)
    assert choose_depth(100, 0.1, 1.0, 50) == 50
    assert choose_depth(2, 0.9, 10.0, 0) == 1


def test_choose_depth_errors():
    with pytest.raises(ValueError):
        choose_depth(10, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        choose_depth(10, 0.1, -1.0, 0)
    with pytest.raises(ValueError):
        choose_depth(10, 1.5, 1.0, 0)


def test_rate_constant_edge_cases():
    assert C.rate_constant(3, 0.0, 2.0) is None
    assert C.rate_constant(0, 0.0, 2.0) == math.inf
    assert C.rate_constant(3, 0.0, 0.0) == math.inf  # beta=0: zero influence
    r = C.rate_constant(3, C.default_h0(3, 1.0), 1.0)
    assert r is not None and r > 0


def test_single_vertex_exact():
    for h in (0.0, 1.3, -2.0):
        inst = IsingInstance(Graph.from_edges(1, []), 1.0, np.array([h]))
        res = approx_partition(inst, 0.5, depth_override=math.inf)
        assert res.log_z_estimate == pytest.approx(
            math.log(math.exp(h) + math.exp(-h)), abs=1e-12
        )
        assert res.total_certified_relative_error == 0.0


def test_untruncated_matches_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(n, rng)
        boundary = {0: -1} if rng.random() < 0.4 else {}
        inst = IsingInstance(g, float(rng.uniform(-2, 2)), rng.uniform(-3, 3, n), boundary)
        res = approx_partition(inst, 0.5, depth_override=math.inf)
        assert res.log_z_estimate == pytest.approx(exact_partition(inst), abs=1e-9)
        assert res.depth_used is None
        assert res.total_certified_relative_error == 0.0


def test_four_cycle_high_field_within_budget():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = IsingInstance(g, 0.5, np.full(4, 3.0))
    res = approx_partition(inst, 0.01)
    assert abs(res.log_z_estimate - exact_partition(inst)) <= 0.01
    assert res.total_certified_relative_error <= 0.01


def test_error_composition_soundness(rng):
    # wherever the checker accepts, the estimate really is within eps
    for _ in range(15):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1, 1))
        delta = max(len(a) for a in g.adjacency)
        h0 = C.default_h0(delta, beta)
        signs = rng.choice([-1, 1], n)
        h = signs * rng.uniform(h0, h0 + 2, n)
        inst = IsingInstance(g, beta, h)
        for eps in (0.1, 0.01):
            report = check_instance(inst, eps)
            if report.accepted:
                res = approx_partition(inst, eps)
                assert abs(res.log_z_estimate - exact_partition(inst)) <= eps


def test_greedy_sequence_has_mass(rng):
    # the telescoped configuration picks the majority branch at every step,
    # so its Gibbs probability is at least 2^-n
    for _ in range(8):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(n, rng)
        inst = IsingInstance(g, float(rng.uniform(-1.5, 1.5)), rng.uniform(-2, 2, n))
        done = C._telescoping_pass(inst, None)
        log_p = -hamiltonian(inst, done.config) - exact_partition(inst)
        assert log_p >= -n * math.log(2) - 1e-9


def test_abort_on_uncontrolled_error():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = IsingInstance(g, 2.0, np.zeros(3))
    with pytest.raises(C.CertifiedErrorTooLarge):
        approx_partition(inst, 0.1, depth_override=1)


def record_count_attempts(monkeypatch):
    """[(tau, certified error)] of every telescoping pass the counter makes
    from now on; inf for a pass aborted by a step error of 1/4."""
    seen = []
    orig = C._telescoping_pass

    def spy(inst, cut_depth, tau=0.0, budget=None):
        try:
            done = orig(inst, cut_depth, tau, budget)
        except C.CertifiedErrorTooLarge:
            seen.append((tau, math.inf))
            raise
        seen.append((tau, sum(done.step_errs)))
        return done

    monkeypatch.setattr(C, "_telescoping_pass", spy)
    return seen


def assert_tau_falls_until_fit(seen, n, eps, kept):
    """The attempts are eps/(4n), divided by TAU_STEP each time, every one
    but the last fails eps, and the last, which fits, is the kept tau."""
    taus = [t for t, _ in seen]
    assert taus == [eps / (4 * n) / C.TAU_STEP**k for k in range(len(seen))]
    assert all(e > eps for _, e in seen[:-1])
    assert seen[-1][1] <= eps
    assert kept == taus[-1]


def test_tau_schedule_zero_fields_reaches_exact(monkeypatch):
    # zero fields defeat the certificate, but at beta 2 every influence
    # factor is tanh(4), so the first tau prunes nothing: the pass is exact
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = IsingInstance(g, 2.0, np.zeros(4))
    seen = record_count_attempts(monkeypatch)
    res = approx_partition(inst, 0.1)
    assert_tau_falls_until_fit(seen, 4, 0.1, res.tau)
    assert len(seen) == 1
    assert res.depth_used == 4  # a SAW of the 4-cycle has at most 3 edges
    assert res.log_z_estimate == pytest.approx(exact_partition(inst), abs=1e-9)
    assert res.total_certified_relative_error == 0.0


def test_tau_schedule_falls_until_error_fits(monkeypatch):
    # on the 10-cycle the first tau already fits, for the counter's
    # sequential pass and for the sampler's original-boundary budget
    n = 10
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    inst = IsingInstance(g, 0.4, np.full(n, 1.2))
    seen = record_count_attempts(monkeypatch)
    res = approx_partition(inst, 0.1)
    assert_tau_falls_until_fit(seen, n, 0.1, res.tau)
    assert res.total_certified_relative_error <= 0.1
    assert abs(res.log_z_estimate - exact_partition(inst)) <= res.total_certified_relative_error

    walker = SawWalker(inst)
    tau = 0.1 / (4 * n)
    walks = [walker.walk(v, {}, None, tau) for v in range(n)]
    assert sum(w.error for w in walks) <= 0.1
    sample = approx_sample(inst, 0.1, 0)
    assert sample.tau == tau and sample.depth_used == max(w.depth for w in walks)
    assert sum(sample.per_vertex_certified_error) <= 0.1

    # on ER(16, 3) at zero fields the first pass certifies 0.124 > 0.1, and
    # tau falls once, to a pass that prunes nothing
    g = gen_er_graph(16, 3.0, 0)
    inst = IsingInstance(g, 0.2, np.zeros(16))
    seen.clear()
    res = approx_partition(inst, 0.1)
    assert_tau_falls_until_fit(seen, 16, 0.1, res.tau)
    assert len(seen) == 2
    assert res.log_z_estimate == pytest.approx(exact_partition(inst), abs=1e-9)
    assert res.total_certified_relative_error <= 0.1

    # the sampler's original-boundary budget falls the same way
    walker = SawWalker(inst)
    taus = [t for t, _ in seen]
    budget = [sum(walker.walk(v, {}, None, t).error for v in range(16)) for t in taus]
    assert budget[0] > 0.1 and budget[1] <= 0.1
    sample = approx_sample(inst, 0.1, 0)
    assert sample.tau == taus[1]
    assert sum(sample.per_vertex_certified_error) <= 0.1


def test_sampler_product_measure(rng):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = np.array([0.0, 0.8, -0.5, 1.5])
    inst = IsingInstance(g, 0.0, h)
    count = 40000
    samples = sample_many(inst, 0.1, 7, count)
    from scipy.special import expit

    for v in range(4):
        p = expit(2 * h[v])
        freq = np.mean(samples[:, v] == 1)
        se = math.sqrt(p * (1 - p) / count)
        assert abs(freq - p) <= 3 * se + 1e-12


def test_sampler_triangle_tv(rng):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = IsingInstance(g, 1.0, np.array([0.2, -0.3, 0.4]))
    law = exact_region_law(inst, [0, 1, 2])
    count = 100000
    samples = sample_many(inst, 0.1, 11, count, depth_override=math.inf)
    counts = {}
    for row in samples:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(cfg, 0) / count - law.get(cfg, 0.0))
        for cfg in itertools.product([-1, 1], repeat=3)
    )
    assert tv <= 0.01


def test_sample_all_fixed():
    g = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(g, 1.0, np.zeros(2), {0: 1, 1: -1})
    res = approx_sample(inst, 0.1, 0)
    assert list(res.config) == [1, -1]
    assert res.per_vertex_certified_error == []


def test_sampler_determinism(rng):
    g = random_connected_graph(6, rng)
    inst = IsingInstance(g, 0.7, rng.uniform(-2, 2, 6))
    a = approx_sample(inst, 0.1, 42, depth_override=math.inf)
    b = approx_sample(inst, 0.1, 42, depth_override=math.inf)
    assert np.array_equal(a.config, b.config)
    c = approx_partition(inst, 0.1, depth_override=math.inf)
    d = approx_partition(inst, 0.1, depth_override=math.inf)
    assert c.log_z_estimate == d.log_z_estimate


def test_sample_many_matches_individual_draws(rng):
    g = random_connected_graph(5, rng)
    inst = IsingInstance(g, 0.5, rng.uniform(-1, 1, 5))
    batch = sample_many(inst, 0.1, 3, 5, depth_override=math.inf)
    rng2 = np.random.default_rng(3)
    walker = SawWalker(inst)
    frontier = C._sample_frontier(inst, 0.1, walker, math.inf)
    for i in range(5):
        res = C._draw(inst, walker, frontier, rng2, {})
        assert np.array_equal(batch[i], res.config)


def test_approx_sample_is_first_draw_of_sample_many(rng):
    g = random_connected_graph(7, rng)
    inst = IsingInstance(g, 0.6, rng.uniform(-1.5, 1.5, 7), {2: -1})
    for depth in (None, math.inf, 2):
        res = approx_sample(inst, 0.1, 5, depth_override=depth)
        first = sample_many(inst, 0.1, 5, 1, depth_override=depth)[0]
        assert np.array_equal(res.config, first)
        walker = SawWalker(inst)
        frontier = C._sample_frontier(inst, 0.1, walker, depth)
        again = C._draw(inst, walker, frontier, np.random.default_rng(5), {})
        assert np.array_equal(again.config, first)
        assert again.per_vertex_certified_error == res.per_vertex_certified_error


def test_sample_many_memory_is_linear():
    # the marginal cache is a trie over the spins fixed so far, so each draw
    # stores O(n) entries; keying it by whole prefixes stored O(n^2)
    import tracemalloc

    n = 2000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    inst = IsingInstance(g, 0.3, gen_fields(n, FieldSpec("gaussian", variance=1.0), 1))
    tracemalloc.start()
    try:
        out = sample_many(inst, 0.1, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (5, n)
    assert peak < 16e6, peak


def test_check_accepts_high_fields(rng):
    for _ in range(5):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1.5, 1.5))
        delta = max(len(a) for a in g.adjacency)
        h0 = C.default_h0(delta, beta)
        h = rng.choice([-1, 1], n) * (h0 + rng.uniform(0, 1, n))
        report = check_instance(IsingInstance(g, beta, h), 0.1)
        assert report.accepted, report.reason


def test_check_rejects_zero_field():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = IsingInstance(g, 2.0, np.zeros(4))
    report = check_instance(inst, 0.1, h0=0.0)
    assert not report.accepted
    assert not report.influence_ok


def test_check_path_untruncated_zero_error(rng):
    n = 6
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    inst = IsingInstance(g, 1.0, rng.uniform(-1, 1, n))
    # h0=3 gives a small positive rate, so the scheduled depth exceeds n and
    # every tree is untruncated
    report = check_instance(inst, 0.1, h0=3.0)
    assert report.accepted
    assert report.certified_rel_err == 0.0


def test_check_all_fixed_reports_float_zero():
    g = Graph.from_edges(2, [(0, 1)])
    report = check_instance(IsingInstance(g, 1.0, np.zeros(2), {0: 1, 1: -1}), 0.1)
    assert report.accepted
    assert type(report.certified_rel_err) is float and report.certified_rel_err == 0.0


def test_count_result_fields_consistent():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = IsingInstance(g, 0.3, np.array([4.0, 4.0, 4.0]))
    res = approx_partition(inst, 0.05)
    assert len(res.per_vertex_certified_error) == 3
    assert res.total_certified_relative_error == pytest.approx(
        sum(res.per_vertex_certified_error), rel=1e-9
    )


def variance_25_instance():
    g = gen_er_graph(200, 3.0, seed=9000)
    h = gen_fields(200, FieldSpec("gaussian", variance=25.0), seed=9500)
    return IsingInstance(g, 0.3, h)


def test_variance_25_certifies_under_the_node_budget():
    # the uniform-depth schedule of earlier versions did not finish here
    inst = variance_25_instance()
    res = approx_partition(inst, 0.01)
    assert res.total_certified_relative_error <= 0.01
    assert res.tau is not None and res.depth_used > 0
    sample = approx_sample(inst, 0.01, 0)
    assert sum(sample.per_vertex_certified_error) <= 0.01


def test_node_budget_exhaustion_raises(monkeypatch, tmp_path, capsys):
    inst = variance_25_instance()
    monkeypatch.setattr(C, "NODE_BUDGET", 5000)
    with pytest.raises(C.CertifiedErrorTooLarge, match="node budget"):
        approx_partition(inst, 0.01)
    with pytest.raises(C.CertifiedErrorTooLarge, match="node budget"):
        approx_sample(inst, 0.01, 0)
    with pytest.raises(C.CertifiedErrorTooLarge, match="node budget"):
        sample_many(inst, 0.01, 0, 3)
    # a forced depth walks one pass without a budget
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    square = IsingInstance(g, 0.5, np.full(4, 0.5))
    monkeypatch.setattr(C, "NODE_BUDGET", 1)
    res = approx_partition(square, 0.1, depth_override=math.inf)
    assert res.tau is None and res.depth_used is None
    assert res.log_z_estimate == pytest.approx(exact_partition(square), abs=1e-9)

    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    capsys.readouterr()
    assert cli_dispatch(["count", "--instance", str(path), "--eps", "0.01"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: node budget")


def test_budget_message_says_how_the_schedule_failed(monkeypatch):
    # the budget runs out inside the first tau pass
    monkeypatch.setattr(C, "NODE_BUDGET", 300)
    with pytest.raises(C.CertifiedErrorTooLarge) as info:
        approx_partition(variance_25_instance(), 0.01)
    msg = str(info.value)
    assert "no tau pass finished" in msg and "inf" not in msg
    # K6 at beta 0.05: the first pass stops at a step error of 1/4 after
    # 106 nodes, and the exact pass after it needs more than the budget
    k6 = Graph.from_edges(6, list(itertools.combinations(range(6), 2)))
    inst = IsingInstance(k6, 0.05, np.full(6, 0.1))
    monkeypatch.setattr(C, "NODE_BUDGET", 500)
    with pytest.raises(C.CertifiedErrorTooLarge) as info:
        approx_partition(inst, 0.5)
    msg = str(info.value)
    assert "the pass at tau=0.0208 stopped at a step error >= 0.25" in msg
    assert "inf" not in msg


def test_check_rejects_when_node_budget_runs_out(monkeypatch, tmp_path, capsys):
    inst = variance_25_instance()
    monkeypatch.setattr(C, "NODE_BUDGET", 500)
    report = check_instance(inst, 0.01)
    assert not report.accepted and report.influence_ok
    assert report.paths_ok is False and report.certified_rel_err is None
    assert report.depth == 4
    assert re.fullmatch(r"node budget ran out after \d+ walker nodes at depth 4", report.reason)

    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    capsys.readouterr()
    assert cli_dispatch(["check", "--instance", str(path), "--eps", "0.01"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["accepted"] is False and obj["reason"] == report.reason
    assert obj["certified_rel_err"] is None and obj["depth"] == 4
    assert obj["tau"] == report.tau and obj["nodes"] == report.nodes > 500


def test_check_walks_the_pruned_frontier():
    # paper regime; the uniform cut at depth 4 alone walks 23,246 nodes here
    g = gen_er_graph(200, 3.0, seed=9000)
    h = gen_fields(200, FieldSpec("gaussian", variance=46656.0), seed=9500)
    inst = IsingInstance(g, 1.0, h)
    report = check_instance(inst, 0.01)
    assert report.accepted and report.depth == 4
    assert report.tau == C._first_tau(inst, 0.01) / C.TAU_STEP
    assert report.nodes <= 2000


def test_check_rejection_names_the_worst_vertex(tmp_path, capsys):
    g = gen_er_graph(200, 3.0, seed=9000)
    h = gen_fields(200, FieldSpec("gaussian", variance=100.0), seed=9500)
    inst = IsingInstance(g, 0.3, h)
    report = check_instance(inst, 0.01)
    assert not report.accepted
    walker = SawWalker(inst, report.h0)
    walks = {v: walker.walk(v, inst.boundary, report.depth, report.tau) for v in inst.free_vertices}
    assert report.nodes == sum(w.node_count for w in walks.values())
    worst = max(walks, key=lambda v: walks[v].error)
    assert report.reason == (
        f"aggregated certified error inf > 0.01; "
        f"largest at vertex {worst}, certified error {walks[worst].error:.3g}"
    )

    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    capsys.readouterr()
    assert cli_dispatch(["check", "--instance", str(path), "--eps", "0.01"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["reason"] == report.reason
    assert obj["tau"] == report.tau and obj["nodes"] == report.nodes
