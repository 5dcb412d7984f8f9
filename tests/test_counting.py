import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from rfim import counting as C
from rfim import model as M
from rfim import sawtree
from rfim.counting import (
    approx_partition,
    approx_sample,
    check_instance,
    choose_depth,
    sample_many,
)
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_partition, exact_region_law, hamiltonian
from rfim.randgen import FieldSpec, gen_er_graph, gen_fields, neighborhood_growth
from rfim.sawtree import NodeBudgetExhausted, SawWalker

from conftest import random_connected_graph


def test_choose_depth_examples():
    assert choose_depth(100, 0.1, 1.0) == 9  # ceil(log 4000)
    assert choose_depth(2, 0.9, 10.0) == 1


def test_choose_depth_errors():
    with pytest.raises(ValueError):
        choose_depth(10, 0.1, 0.0)
    with pytest.raises(ValueError):
        choose_depth(10, 0.1, -1.0)
    with pytest.raises(ValueError):
        choose_depth(10, 1.5, 1.0)


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
        frontier = C._frontier(inst, 0.1, math.inf)
        config, *_ = C._pass(inst, SawWalker(inst), frontier, greedy, True, {})
        log_p = -hamiltonian(inst, config) - exact_partition(inst)
        assert log_p >= -n * math.log(2) - 1e-9


def test_abort_on_uncontrolled_error():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = IsingInstance(g, 2.0, np.zeros(3))
    with pytest.raises(C.CertifiedErrorTooLarge):
        approx_partition(inst, 0.1, depth_override=1)


def replay(inst, eps, pick, relative, depth=None):
    """The per-step rule, replayed by hand with one walker: for each free
    vertex in `free_vertices` order, the (tau, certified error, walk) of
    every walk of its step, and the spin pick(marginal) it then fixes.  A
    step walks from tau = 10 eps/|free| down tenfold until its error (the
    bracket width, or for counting e/(p_hat - e), inf from e = 1/4 on) is at
    most eps/|free|.  A forced depth (math.inf = untruncated) walks once at
    its cut, with tau None.  Returns (steps, config)."""
    k = len(inst.free_vertices)
    cut = None if depth is None or math.isinf(depth) else depth
    walker = SawWalker(inst)
    boundary = dict(inst.boundary)
    steps = []
    for v in inst.free_vertices:
        tau = None if depth is not None else 10 * eps / k
        walks = []
        while True:
            res = walker.walk(v, boundary, cut, tau or 0.0)
            p, e = res.marginal, res.width
            if relative:
                e = e / (max(p, 1 - p) - e) if e < 0.25 else math.inf
            walks.append((tau, e, res))
            if tau is None or e <= eps / k:
                break
            tau /= 10
        boundary[v] = pick(p)
        steps.append(walks)
    return steps, [boundary[v] for v in range(inst.graph.n)]


def greedy(p):
    return 1 if p >= 0.5 else -1


def assert_count_replays(inst, eps):
    """approx_partition is the replayed per-step rule: every step's error
    fits eps/|free|, its tau falls tenfold from 10 eps/|free| until it
    does, and log Z and the total are math.fsum sums of the steps' terms.
    Returns (result, steps)."""
    res = approx_partition(inst, eps)
    steps, config = replay(inst, eps, greedy, True)
    k = len(inst.free_vertices)
    for walks in steps:
        taus = [t for t, _, _ in walks]
        assert taus == pytest.approx([10 * eps / k / 10**j for j in range(len(walks))], rel=1e-12)
        assert all(e > eps / k for _, e, _ in walks[:-1])
        assert walks[-1][1] <= eps / k
    kept = [walks[-1] for walks in steps]
    assert res.per_vertex_certified_error == [e for _, e, _ in kept]
    assert res.tau == min(t for t, _, _ in kept)
    assert res.depth_used == max(w.depth for _, _, w in kept)
    log_r = [-math.log(max(w.marginal, 1 - w.marginal)) for _, _, w in kept]
    assert res.log_z_estimate == -hamiltonian(inst, config) + math.fsum(log_r)
    assert res.total_certified_relative_error == math.fsum(res.per_vertex_certified_error)
    assert res.total_certified_relative_error <= eps
    return res, steps


def test_step_tau_zero_fields_reaches_exact():
    # zero fields defeat the certificate, but at beta 2 every influence
    # factor is tanh(4), so the first tau prunes nothing: every step is exact
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = IsingInstance(g, 2.0, np.zeros(4))
    res, steps = assert_count_replays(inst, 0.1)
    assert all(len(walks) == 1 for walks in steps)
    assert res.tau == 10 * 0.1 / 4
    assert res.depth_used == 4  # a SAW of the 4-cycle has at most 3 edges
    assert res.log_z_estimate == pytest.approx(exact_partition(inst), abs=1e-9)
    assert res.total_certified_relative_error == 0.0


def test_step_tau_falls_until_error_fits():
    # on the 10-cycle the first step re-walks once, at a tenth of the first
    # tau, and the later steps, with a neighbour already fixed, fit at once;
    # on ER(16, 3) at zero fields the first two steps re-walk once
    n = 10
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    cycle = IsingInstance(g, 0.4, np.full(n, 1.2))
    res, steps = assert_count_replays(cycle, 0.1)
    assert [len(walks) for walks in steps] == [2] + [1] * (n - 1)
    assert res.tau == pytest.approx(10 * 0.1 / n / 10, rel=1e-12)
    assert abs(res.log_z_estimate - exact_partition(cycle)) <= res.total_certified_relative_error

    er = IsingInstance(gen_er_graph(16, 3.0, 0), 0.2, np.zeros(16))
    res, steps = assert_count_replays(er, 0.1)
    assert [len(walks) for walks in steps] == [2, 2] + [1] * 14
    assert res.tau == pytest.approx(10 * 0.1 / 16 / 10, rel=1e-12)
    assert abs(res.log_z_estimate - exact_partition(er)) <= res.total_certified_relative_error

    # a draw's steps fit the same way, by their bracket widths
    for inst in (cycle, er):
        k = len(inst.free_vertices)
        sample = approx_sample(inst, 0.1, 0)
        steps, config = replay(inst, 0.1, stream_pick(random.Random(0)), False)
        assert sample.config == config
        assert sample.per_vertex_certified_error == [walks[-1][1] for walks in steps]
        assert all(e <= 0.1 / k for e in sample.per_vertex_certified_error)
        assert sample.tau == min(walks[-1][0] for walks in steps)
        assert sample.depth_used == max(walks[-1][2].depth for walks in steps)


def test_totals_are_fsum_of_their_steps(tmp_path, capsys):
    # on this instance the plain left-to-right sum differs from math.fsum
    # in the last bit for all three totals, so the totals printed do not
    # depend on how a Python version's sum() rounds
    g = gen_er_graph(60, 3.0, seed=9000)
    inst = IsingInstance(g, 0.3, gen_fields(60, FieldSpec("gaussian", variance=100.0), seed=9500))
    res = approx_partition(inst, 0.01)
    assert res.total_certified_relative_error == math.fsum(res.per_vertex_certified_error)
    report = check_instance(inst, 0.01)
    walker = SawWalker(inst, report.h0)
    errs = [walker.walk(v, inst.boundary, report.depth, report.tau).error
            for v in inst.free_vertices]
    assert report.certified_rel_err == math.fsum(e / (0.5 - e) for e in errs)

    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    capsys.readouterr()
    assert cli_dispatch(["sample", "--instance", str(path), "--eps", "0.01", "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    errs = approx_sample(inst, 0.01, 3).per_vertex_certified_error
    assert obj["tv_budget"] == math.fsum(errs)
    assert cli_dispatch(["count", "--instance", str(path), "--eps", "0.01"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["certified_rel_err"] == math.fsum(obj["per_vertex_err"])


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


def stream_pick(rng):
    return lambda p: 1 if rng.random() < p else -1


def test_sample_many_matches_individual_draws(rng):
    # consecutive draws take consecutive uniforms of one stream
    g = random_connected_graph(5, rng)
    inst = IsingInstance(g, 0.5, rng.uniform(-1, 1, 5))
    for depth in (None, math.inf):
        batch = sample_many(inst, 0.1, 3, 5, depth_override=depth)
        pick = stream_pick(random.Random(3))
        for i in range(5):
            _, config = replay(inst, 0.1, pick, False, depth)
            assert np.array_equal(batch[i], config)


def test_approx_sample_is_first_draw_of_sample_many(rng):
    g = random_connected_graph(7, rng)
    inst = IsingInstance(g, 0.6, rng.uniform(-1.5, 1.5, 7), {2: -1})
    for depth in (None, math.inf, 2):
        res = approx_sample(inst, 0.1, 5, depth_override=depth)
        first = sample_many(inst, 0.1, 5, 1, depth_override=depth)[0]
        assert np.array_equal(res.config, first)
        steps, config = replay(inst, 0.1, stream_pick(random.Random(5)), False, depth)
        assert config == res.config
        assert res.per_vertex_certified_error == [walks[-1][1] for walks in steps]


def test_approx_sample_matches_reference_replay(rng):
    # the documented stream: one random.Random(seed).random() per free
    # vertex, in free_vertices order, against the step's certified marginal
    for _ in range(5):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, rng)
        inst = IsingInstance(g, float(rng.uniform(-1.5, 1.5)), rng.uniform(-2, 2, n), {0: 1})
        seed = int(rng.integers(1000))
        for depth in (None, 2):
            got = approx_sample(inst, 0.1, seed, depth_override=depth)
            _, config = replay(inst, 0.1, stream_pick(random.Random(seed)), False, depth)
            assert got.config == config


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


def test_check_rejects_negative_or_non_finite_h0():
    # the influence condition reads |h0| and the path rule h0 as given, so a
    # negative h0 would be read two ways
    inst = IsingInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), 1.0, np.full(3, 20.0))
    for h0 in (-13.08, -0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="h0 must be a non-negative finite number"):
            check_instance(inst, 0.1, h0=h0)
    assert check_instance(inst, 0.1, h0=0.0).h0 == 0.0


def test_depth_override_and_count_validation():
    inst = IsingInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), 0.5, np.array([0.3, -0.2, 0.1]))
    calls = (lambda d: approx_partition(inst, 0.1, depth_override=d),
             lambda d: approx_sample(inst, 0.1, 0, depth_override=d),
             lambda d: sample_many(inst, 0.1, 0, 2, depth_override=d))
    for bad in (-math.inf, math.nan, -2, 1.5, True, False, "3"):
        for call in calls:
            with pytest.raises(ValueError, match="depth_override must be None, math.inf or an"):
                call(bad)
    for depth in (0, 1, 2, 7, math.inf):
        res = approx_sample(inst, 0.1, 3, depth_override=depth)
        assert approx_sample(inst, 0.1, 3, depth_override=np.int64(min(depth, 7))) == res
        assert res.depth_used == (None if depth >= 3 else depth)
    with pytest.raises(ValueError, match="count must be an integer >= 0, got -1"):
        sample_many(inst, 0.1, 0, -1)
    assert sample_many(inst, 0.1, 0, 0).shape == (0, 3)


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


def test_no_free_vertex_walks_no_step():
    # no step walked, so there is no tau to report and no depth reached
    g = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(g, 1.0, np.zeros(2), {0: 1, 1: -1})
    for res in (approx_partition(inst, 0.1), approx_sample(inst, 0.1, 0)):
        assert res.tau is None and res.depth_used == 0
    # check_instance takes an empty graph's n as 1 for its depth
    assert check_instance(IsingInstance(Graph.from_edges(0, []), 1.0, []), 0.1).depth == 1


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


def test_variance_12_certifies_in_a_tenth_of_a_million_nodes(monkeypatch):
    # the global tau schedule of earlier versions walked 5.5M nodes for
    # this count, and its sampler ran out of the 10^7-node budget
    g = gen_er_graph(200, 3.0, seed=9000)
    h = gen_fields(200, FieldSpec("gaussian", variance=12.0), seed=9500)
    inst = IsingInstance(g, 0.3, h)
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 10**5)
    res = approx_partition(inst, 0.01)
    assert res.total_certified_relative_error <= 0.01
    sample = approx_sample(inst, 0.01, 0)
    assert math.fsum(sample.per_vertex_certified_error) <= 0.01


def test_node_budget_exhaustion_raises(monkeypatch, tmp_path, capsys):
    # the count and the draw here certify in about 4,800 nodes each
    inst = variance_25_instance()
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 2000)
    with pytest.raises(NodeBudgetExhausted, match="node budget"):
        approx_partition(inst, 0.01)
    with pytest.raises(NodeBudgetExhausted, match="node budget"):
        approx_sample(inst, 0.01, 0)
    with pytest.raises(NodeBudgetExhausted, match="node budget"):
        sample_many(inst, 0.01, 0, 3)
    # a forced depth walks its pass under a budget too
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    square = IsingInstance(g, 0.5, np.full(4, 0.5))
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 1)
    with pytest.raises(NodeBudgetExhausted, match="node budget ran out after 2 walker nodes"):
        approx_partition(square, 0.1, depth_override=math.inf)

    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    capsys.readouterr()
    assert cli_dispatch(["count", "--instance", str(path), "--eps", "0.01"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: node budget")


def test_sample_many_budget_is_per_draw(monkeypatch):
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    inst = IsingInstance(k4, 0.3, np.array([0.2, -0.1, 0.0, 0.3]))
    walked = []  # nodes each draw walks
    orig = C._pass

    def spy(inst, walker, *args):
        res = orig(inst, walker, *args)
        walked.append(walker.nodes)
        return res

    monkeypatch.setattr(C, "_pass", spy)
    draws = sample_many(inst, 0.1, 0, 20, depth_override=math.inf)
    # the call walks more than a budget that its largest draw fits
    assert sum(walked) > max(walked)
    monkeypatch.setattr(sawtree, "NODE_BUDGET", max(walked))
    assert (sample_many(inst, 0.1, 0, 20, depth_override=math.inf) == draws).all()
    monkeypatch.setattr(sawtree, "NODE_BUDGET", max(walked) // 2)
    with pytest.raises(NodeBudgetExhausted):
        sample_many(inst, 0.1, 0, 20, depth_override=math.inf)


def test_budget_message_names_the_vertex_and_tau(monkeypatch):
    # the budget runs out in a step's walk: the message names its vertex
    # and tau, a tenfold fall from 10 eps/|free|
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 300)
    inst = variance_25_instance()
    for run in (lambda: approx_partition(inst, 0.01), lambda: approx_sample(inst, 0.01, 0)):
        with pytest.raises(NodeBudgetExhausted) as info:
            run()
        m = re.fullmatch(r"node budget ran out after (\d+) walker nodes at vertex (\d+), tau=(.+)",
                         str(info.value))
        assert m and int(m[1]) > 300 and int(m[2]) in inst.free_vertices
        assert m[3] in {f"{10 * 0.01 / 200 / 10**j:.3g}" for j in range(4)}
    # at a forced depth a count step stops at a marginal error of 1/4
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = IsingInstance(g, 2.0, np.zeros(3))
    msg = r"certified marginal error 0.999 >= 0.25 at vertex 0"
    with pytest.raises(C.CertifiedErrorTooLarge, match=msg):
        approx_partition(inst, 0.1, depth_override=1)


# every path that walks under a node budget, and whether it prunes by tau
@pytest.mark.parametrize("prunes, run", [
    (True, lambda inst: approx_partition(inst, 0.01)),
    (False, lambda inst: approx_partition(inst, 0.01, depth_override=math.inf)),
    (True, lambda inst: approx_sample(inst, 0.01, 0)),
    (True, lambda inst: sample_many(inst, 0.01, 0, 2)),
    (False, lambda inst: neighborhood_growth(inst.graph, 7, 30, in_saw_tree=True)),
])
def test_every_spent_budget_raises_node_budget_exhausted(monkeypatch, prunes, run):
    inst = variance_25_instance()
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 300)
    with pytest.raises(NodeBudgetExhausted) as info:
        run(inst)
    e = info.value
    assert e.root in inst.free_vertices and e.nodes > 300 and (e.tau > 0) == prunes
    msg = f"node budget ran out after {e.nodes} walker nodes at vertex {e.root}"
    assert str(e) == (f"{msg}, tau={e.tau:.3g}" if prunes else msg)


def test_check_rejects_when_node_budget_runs_out(monkeypatch, tmp_path, capsys):
    inst = variance_25_instance()
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 500)
    report = check_instance(inst, 0.01)
    assert not report.accepted and report.influence_ok
    assert report.paths_ok is False and report.certified_rel_err is None
    assert report.depth == 4
    assert re.fullmatch(r"node budget ran out after \d+ walker nodes at vertex \d+, "
                        rf"tau={re.escape(f'{report.tau:.3g}')} at depth 4", report.reason)

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
    assert report.tau == 0.01 / (4 * 200) / 100
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
