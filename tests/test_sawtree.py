import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfim import sawtree
from rfim.counting import rate_constant
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_marginal, influence_bound
from rfim.sawtree import NodeBudgetExhausted, SawWalker
from rfim.sawtree_oracle import (
    SawTree,
    build_saw_tree,
    certified_truncation_error,
    dump,
    root_log_odds,
    root_marginal,
    ssm_certificate,
)

from conftest import random_connected_graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
FOUR_CYCLE = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

TRIANGLE_DUMP = """\
0 0 . 2
1 1 . 1
2 2 . 1
3 0 +1 0
1 2 . 1
2 1 . 1
3 0 -1 0"""


def zero_inst(g, beta=1.0):
    return IsingInstance(g, beta, np.zeros(g.n))


def collect(node):
    out = [node]
    for c in node.children:
        out.extend(collect(c))
    return out


def test_tree_graph_gives_isomorphic_tree(rng):
    g = random_connected_graph(8, rng, extra_edges=0)  # spanning tree only
    tree = build_saw_tree(zero_inst(g), 2)
    assert tree.node_count == g.n
    assert all(n.fixed_spin is None for n in collect(tree.root))


def test_triangle_structure_golden():
    tree = build_saw_tree(zero_inst(TRIANGLE), 0)
    assert tree.node_count == 7
    assert dump(tree) == TRIANGLE_DUMP


def test_four_cycle_structure():
    tree = build_saw_tree(zero_inst(FOUR_CYCLE), 0)
    assert tree.node_count == 9
    leaves = [n for n in collect(tree.root) if n.fixed_spin is not None]
    assert len(leaves) == 2
    assert {n.depth for n in leaves} == {4}
    assert sorted(n.fixed_spin for n in leaves) == [-1, 1]


def test_self_avoidance_structural(rng):
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(4, 9)), rng, extra_edges=3)
        tree = build_saw_tree(zero_inst(g), 0)

        def walk(node, path):
            if node.fixed_spin is None:
                assert node.graph_vertex not in path
                for c in node.children:
                    walk(c, path | {node.graph_vertex})

        walk(tree.root, set())


def test_boundary_vertices_become_fixed_leaves():
    inst = IsingInstance(FOUR_CYCLE, 1.0, np.zeros(4), {2: -1})
    tree = build_saw_tree(inst, 0)
    for n in collect(tree.root):
        if n.graph_vertex == 2:
            assert n.fixed_spin == -1
            assert not n.children


def test_root_marginal_leaf_cases():
    lone = Graph.from_edges(1, [])
    for h in (0.0, 0.7, -2.0):
        inst = IsingInstance(lone, 1.0, np.array([h]))
        tree = build_saw_tree(inst, 0)
        assert root_marginal(tree, 1.0) == pytest.approx(1 / (1 + math.exp(-2 * h)), abs=1e-14)
    edge = Graph.from_edges(2, [(0, 1)])
    beta, h = 0.9, 0.3
    inst = IsingInstance(edge, beta, np.array([h, 0.0]), {1: 1})
    tree = build_saw_tree(inst, 0)
    assert root_marginal(tree, beta) == pytest.approx(
        1 / (1 + math.exp(-2 * h - 2 * beta)), abs=1e-14
    )


def test_root_marginal_triangle_matches_oracle():
    inst = IsingInstance(TRIANGLE, 0.8, np.array([0.1, -0.4, 0.7]))
    tree = build_saw_tree(inst, 0)
    assert root_marginal(tree, 0.8) == pytest.approx(exact_marginal(inst, 0), abs=1e-12)


def test_root_marginal_equals_graph_marginal(rng):
    # the load-bearing exactness property, on random instances with boundaries
    for _ in range(40):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-2, 2))
        h = rng.uniform(-5, 5, n)
        k = int(rng.integers(0, n - 1))
        boundary = {
            int(v): int(rng.choice([-1, 1])) for v in rng.permutation(n)[:k]
        }
        inst = IsingInstance(g, beta, h, boundary)
        for v in inst.free_vertices:
            tree = build_saw_tree(inst, v)
            assert root_marginal(tree, beta) == pytest.approx(
                exact_marginal(inst, v), abs=1e-10
            )


def test_root_marginal_stable_under_huge_fields():
    edge = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(edge, 1.0, np.array([650.0, -700.0]))
    tree = build_saw_tree(inst, 0)
    p = root_marginal(tree, 1.0)
    assert p == pytest.approx(1.0)


def test_truncation_error_examples():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = zero_inst(path4)
    full = build_saw_tree(inst, 0, cut_depth=10)
    assert certified_truncation_error(full, 1.0) == 0.0

    cold = build_saw_tree(zero_inst(path4, beta=0.0), 0, cut_depth=2)
    assert certified_truncation_error(cold, 0.0) == 0.0

    cut = build_saw_tree(inst, 0, cut_depth=2)
    expected = influence_bound(1, 0, 1) * influence_bound(2, 0, 1)
    assert certified_truncation_error(cut, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(math.tanh(1.0) * math.tanh(2.0), abs=1e-12)


def test_truncation_error_monotone_on_paths(rng):
    # along a path each extra level multiplies the single frontier product by
    # an influence factor <= 1, so the certified bound can only shrink
    n = 9
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    for _ in range(10):
        beta = float(rng.uniform(-1.5, 1.5))
        inst = IsingInstance(g, beta, rng.uniform(-1, 1, n))
        errs = [
            certified_truncation_error(build_saw_tree(inst, 0, cut_depth=d), beta)
            for d in range(1, n + 1)
        ]
        assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] == 0.0


def test_frontier_bracketing(rng):
    # the certified bound dominates the swing between all-(+1) and all-(-1)
    # frontier spins
    for _ in range(30):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1.5, 1.5))
        inst = IsingInstance(g, beta, rng.uniform(-2, 2, n))
        cut = int(rng.integers(1, 4))
        plus = build_saw_tree(inst, 0, cut, frontier_spin=+1)
        minus = build_saw_tree(inst, 0, cut, frontier_spin=-1)
        gap = abs(root_marginal(plus, beta) - root_marginal(minus, beta))
        assert gap <= certified_truncation_error(plus, beta) + 1e-12


def test_free_frontier_policy():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = zero_inst(path3)
    tree = build_saw_tree(inst, 0, cut_depth=1, frontier_spin=None)
    # frontier node is free: marginal reduces to the cut two-vertex system
    sub = IsingInstance(Graph.from_edges(2, [(0, 1)]), 1.0, np.zeros(2))
    assert root_marginal(tree, 1.0) == pytest.approx(exact_marginal(sub, 0), abs=1e-12)


def test_ssm_certificate_accepts_uniformly_large_fields():
    g = FOUR_CYCLE
    inst = IsingInstance(g, 0.5, np.full(4, 4.0))
    tree = build_saw_tree(inst, 0, cut_depth=2)
    assert ssm_certificate(tree, h0=4.0) is True
    rate = rate_constant(2, 4.0, 0.5)  # the influence condition holds
    assert rate is not None and rate > 0


def test_ssm_certificate_rejects_zero_fields():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = IsingInstance(g, 2.0, np.zeros(4))
    tree = build_saw_tree(inst, 0, cut_depth=1)
    # every field reaches h0 = 0, so the path rule holds, but the influence
    # condition fails
    assert ssm_certificate(tree, h0=0.0) is True
    assert rate_constant(3, 0.0, 2.0) is None
    # at h0 = 1 no free vertex has |h| >= h0, so the path rule fails too
    assert ssm_certificate(tree, h0=1.0) is False


def test_ssm_certificate_half_rule():
    # binary tree cut at depth 2: each path has two free vertices and exactly
    # one of them is below h0, which the at-least-half rule still allows
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    g = Graph.from_edges(7, edges)
    h = np.full(7, 5.0)
    h[0] = 0.0  # one low-field vertex on every root-to-leaf path
    inst = IsingInstance(g, 0.3, h)
    tree = build_saw_tree(inst, 0, cut_depth=2)
    assert rate_constant(3, 5.0, 0.3) is not None  # the influence condition holds
    # 1 of 2 free path vertices is large: exactly half
    assert ssm_certificate(tree, h0=5.0) is True
    assert_walk_matches_tree(inst, 0, 2, 5.0)


def test_deep_path_no_recursion_limit():
    n = 600
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    inst = zero_inst(g, beta=0.5)
    tree = build_saw_tree(inst, 0)
    assert tree.node_count == n
    assert 0.0 < root_marginal(tree, 0.5) < 1.0


def assert_walk_matches_tree(inst, root, cut, h0):
    """The walker's one pass equals the reference tree's separate passes:
    the estimate walk's root log-odds and marginal, and the certificate
    walk's error, node count and path rule."""
    g, beta = inst.graph, inst.beta
    tree = build_saw_tree(inst, root, cut)
    res = SawWalker(inst, h0).walk(root, inst.boundary, cut)
    est = SawWalker(inst).walk(root, inst.boundary, cut)
    expected = root_log_odds(tree, beta)
    if math.isinf(expected):
        assert est.log_odds == expected
    else:
        assert est.log_odds == pytest.approx(expected, rel=0, abs=1e-12)
    assert est.marginal == pytest.approx(root_marginal(tree, beta), rel=0, abs=1e-12)
    # the same products summed in another order
    assert res.error == pytest.approx(certified_truncation_error(tree, beta), rel=1e-12, abs=0)
    assert res.node_count == tree.node_count
    assert res.paths_ok == ssm_certificate(tree, h0)
    # a certificate walker folds no log-odds and has no bracket; an
    # estimate walker walks the same +1 frontier, and its bracket holds both
    # uniform frontiers, exactly so for beta >= 0, where the root marginal
    # is monotone in every leaf
    assert res.log_odds is None and res.width is None
    assert (est.error, est.node_count, est.depth, est.paths_ok) == (
        res.error, res.node_count, res.depth, None)
    minus = build_saw_tree(inst, root, cut, frontier_spin=-1)
    gap = root_marginal(tree, beta) - root_marginal(minus, beta)
    assert abs(gap) <= est.width + 1e-12
    if beta >= 0:
        assert est.width == pytest.approx(gap, rel=0, abs=1e-12)


@st.composite
def walk_cases(draw):
    n = draw(st.integers(1, 9))
    # random spanning tree (vertex i hangs off an earlier vertex) plus extra edges
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=6)) if a != b}
    g = Graph.from_edges(n, edges)
    finite = {"allow_nan": False, "allow_infinity": False}
    beta = draw(st.floats(-2.0, 2.0, **finite))
    h = draw(st.lists(st.floats(-5.0, 5.0, **finite), min_size=n, max_size=n))
    spins = st.sampled_from([-1, 1])
    boundary = draw(st.dictionaries(st.integers(0, n - 1), spins, max_size=n // 2))
    inst = IsingInstance(g, beta, np.array(h), boundary)
    root = draw(st.integers(0, n - 1))
    cut = draw(st.integers(0, n))  # a cut at n truncates nothing, like None
    if cut == n and draw(st.booleans()):
        cut = None
    h0 = draw(st.sampled_from(sorted(abs(x) for x in h)))  # |h| = h0 counts as large
    return inst, root, cut, h0


@settings(max_examples=400, deadline=None)
@given(walk_cases())
def test_walker_matches_tree_oracle(case):
    assert_walk_matches_tree(*case)


def test_walker_untruncated_deep_path(rng):
    # an untruncated walk from the end of a path is n-1 levels deep, far past
    # Python's recursion limit
    n = 3000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    inst = IsingInstance(g, 0.5, rng.uniform(-1, 1, n))
    for root in (0, n // 3):
        assert_walk_matches_tree(inst, root, None, 0.5)


def prune_reference(inst, root, tau, cut=None):
    """The reference tree cut at `cut` (None: untruncated) with every free
    child whose expanded ancestors' influence product is below tau turned
    into a +1 frontier leaf: (tree, depth), depth being one more than the
    deepest expanded level.  Evaluated with `root_log_odds` and
    `certified_truncation_error`, it is the oracle for
    `SawWalker.walk(..., cut, tau)`."""
    beta = inst.beta
    tree = build_saw_tree(inst, root, cut)
    count, deepest = 1, 0
    stack = [(tree.root, 1.0)]  # expanded free nodes
    while stack:
        node, prod = stack.pop()
        deepest = max(deepest, node.depth)
        prod *= influence_bound(node.tree_degree(), node.field, beta)
        for c in node.children:
            count += 1
            if c.fixed_spin is not None:
                continue
            if prod < tau:
                c.fixed_spin, c.frontier, c.children = +1, True, []
            else:
                stack.append((c, prod))
    # any non-None cut makes certified_truncation_error sum the frontier
    return SawTree(tree.root, 0, count), deepest + 1


@st.composite
def pruned_cases(draw):
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=5)) if a != b}
    g = Graph.from_edges(n, edges)
    finite = {"allow_nan": False, "allow_infinity": False}
    beta = draw(st.floats(-2.0, 2.0, **finite))
    h = draw(st.lists(st.floats(-4.0, 4.0, **finite), min_size=n, max_size=n))
    root = draw(st.integers(0, n - 1))
    others = st.integers(0, n - 1).filter(lambda v: v != root)
    boundary = draw(st.dictionaries(others, st.sampled_from([-1, 1]), max_size=n // 2))
    cut = draw(st.integers(1, n))
    return IsingInstance(g, beta, np.array(h), boundary), root, cut


@settings(max_examples=150, deadline=None)
@given(pruned_cases())
def test_pruned_walk_is_sound(case):
    # the certified error and the bracket width, which is at most the error,
    # bound the marginal's distance from the exact one on any frontier; the
    # pruned frontier is the one the tau rule defines, alone or together
    # with a uniform cut (the frontier of check_instance)
    inst, root, cut = case
    exact = exact_marginal(inst, root)
    walker = SawWalker(inst)
    res = walker.walk(root, inst.boundary, cut)
    assert abs(res.marginal - exact) <= res.error + 1e-12
    assert abs(res.marginal - exact) <= res.width + 1e-12
    assert res.width <= res.error + 1e-12
    for tau_cut, tau in itertools.product((None, cut), (0.5, 0.1, 1e-3)):
        res = walker.walk(root, inst.boundary, tau_cut, tau)
        assert abs(res.marginal - exact) <= res.error + 1e-12
        assert abs(res.marginal - exact) <= res.width + 1e-12
        assert res.width <= res.error + 1e-12
        tree, depth = prune_reference(inst, root, tau, tau_cut)
        assert res.node_count == tree.node_count
        assert res.depth == depth
        assert res.log_odds == pytest.approx(root_log_odds(tree, inst.beta), rel=0, abs=1e-12)
        assert res.error == pytest.approx(
            min(certified_truncation_error(tree, inst.beta), 1.0), rel=1e-12, abs=0
        )


def test_walk_stops_past_max_nodes(monkeypatch):
    g = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    walker = SawWalker(zero_inst(g, beta=0.5))
    full = walker.walk(0, {}).node_count
    assert walker.nodes == full
    monkeypatch.setattr(sawtree, "NODE_BUDGET", full)
    walker.nodes = 0
    assert walker.walk(0, {}).node_count == full
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 100)
    walker.nodes = 0
    with pytest.raises(NodeBudgetExhausted) as info:
        walker.walk(0, {})
    # it stops at its first expansion past the limit; the leaves walked
    # since the last expansion are at most 5 per level of the walk stack
    assert 100 < info.value.nodes <= 100 + 5 * 6
    assert walker.nodes == info.value.nodes
    # the budget spans walks: one more walk stops at its first expansion
    with pytest.raises(NodeBudgetExhausted) as info:
        walker.walk(1, {})
    assert info.value.nodes == walker.nodes
    # the stopped walks leave nothing behind for the walker's next walks
    monkeypatch.undo()
    fresh = SawWalker(zero_inst(g, beta=0.5))
    for root in range(6):
        assert walker.walk(root, {}, cut_depth=4) == fresh.walk(root, {}, cut_depth=4)


def test_walk_memory_does_not_grow_with_n():
    import tracemalloc

    n = 200_000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    walker = SawWalker(IsingInstance(g, 0.3, np.ones(n)))
    tracemalloc.start()
    try:
        res = walker.walk(n // 2, {}, tau=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.node_count == 19
    assert peak < 64 * 1024
