import json
import math

import numpy as np
import pytest

from rfim import graph as G
from rfim import randgen as R
from rfim.graph import Graph
from rfim.model import IsingInstance
from rfim.randgen import (
    FieldSpec,
    gen_er_graph,
    gen_fields,
    neighborhood_growth,
)
from rfim.sawtree_oracle import build_saw_tree

from conftest import random_connected_graph


def test_er_extremes():
    assert gen_er_graph(6, 0.0, seed=0).edges() == []
    complete = gen_er_graph(5, 5.0, seed=0)
    assert len(complete.edges()) == 10


def test_er_matches_the_triu_mask_reference():
    # the reference draws all n(n-1)/2 uniforms in one call over the pairs
    # of np.triu_indices; the generator draws them row by row
    def reference(n, delta, seed):
        ii, jj = np.triu_indices(n, k=1)
        mask = np.random.default_rng(seed).random(len(ii)) < delta / n
        return Graph.from_edges(n, zip(ii[mask].tolist(), jj[mask].tolist()))

    for n in (4, 5, 20, 200, 2000):
        for delta in (0.5, 3.0):
            for seed in (0, 9000, 9200):
                assert gen_er_graph(n, delta, seed) == reference(n, delta, seed)


def test_er_input_errors():
    with pytest.raises(ValueError):
        gen_er_graph(0, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_er_graph(3, 4.0, seed=0)  # edge probability above 1


def test_er_edge_count_statistics():
    n, delta, seeds = 300, 3.0, 100
    p = delta / n
    pairs = n * (n - 1) // 2
    counts = [len(gen_er_graph(n, delta, seed=s).edges()) for s in range(seeds)]
    mean = sum(counts) / seeds
    se = math.sqrt(pairs * p * (1 - p) / seeds)
    assert abs(mean - pairs * p) <= 3 * se


def test_er_golden_determinism():
    g = gen_er_graph(8, 2.5, seed=1)
    assert g.edges() == [
        (0, 3), (0, 5), (1, 4), (2, 4), (2, 6), (3, 4), (3, 5), (3, 7), (6, 7)
    ]
    assert gen_er_graph(8, 2.5, seed=1) == g


def test_fields_golden_determinism():
    h = gen_fields(5, FieldSpec("gaussian", variance=4.0), seed=2)
    assert list(h) == [
        -1.2767663870266945,
        -1.0574901993760604,
        1.7871530212241378,
        -2.6580975159874636,
        0.5072146215590085,
    ]


def test_ndtri_equals_scipy_bit_for_bit():
    from scipy.special import ndtri as scipy_ndtri

    # the centre branch ends at exp(-2) and 1 - exp(-2); the tail switches
    # coefficients where sqrt(-2 log y) = 8, at y = exp(-32)
    edges = [R._EXPM2, 1.0 - R._EXPM2]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
    switch = math.exp(-32)
    tail = np.linspace(0.99 * switch, 1.01 * switch, 2001)
    tail = np.concatenate([tail, [switch + k * math.ulp(switch) for k in range(-3, 4)]])
    grid = np.concatenate([
        np.random.default_rng(11).random(100_000),
        [1e-17, 1.0 - 1e-16, 0.5, 1e-300, 5e-324, 0.0, 1.0],
        edges, near, tail, 1.0 - tail,
    ])
    ours = np.array([R.ndtri(x) for x in grid.tolist()])
    assert ours.view(np.int64).tolist() == scipy_ndtri(grid).view(np.int64).tolist()


def test_fields_zero_variance():
    assert np.all(gen_fields(20, FieldSpec("gaussian", variance=0.0), seed=0) == 0.0)


def test_fields_gaussian_variance():
    variance = 7.0
    h = gen_fields(10**6, FieldSpec("gaussian", variance=variance), seed=3)
    assert abs(h.var() - variance) <= 0.01 * variance
    assert abs(h.mean()) <= 3 * math.sqrt(variance / 10**6)


def test_fields_gaussian_small_ball_bound():
    # P(|h| < c) <= sqrt(2/pi) * c / sigma, up to Monte Carlo slack
    variance = 4.0
    sigma = math.sqrt(variance)
    n = 10**5
    h = gen_fields(n, FieldSpec("gaussian", variance=variance), seed=4)
    for c in (0.1, 0.5, 1.0, 2.0):
        frac = np.mean(np.abs(h) < c)
        bound = math.sqrt(2 / math.pi) * c / sigma
        assert frac <= bound + 3 * math.sqrt(bound * (1 - min(bound, 1.0)) / n) + 1e-9


def test_fields_two_point():
    spec = FieldSpec("two_point", magnitude=1.5)
    h = gen_fields(20000, spec, seed=5)
    assert set(np.unique(h)) == {-1.5, 1.5}
    frac = np.mean(h > 0)
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 20000)


def test_fields_file_round_trip(tmp_path):
    h = np.array([0.5, -1.0, 2.5])
    for spec, params in [
        (FieldSpec("gaussian", variance=1.0), {"variance": 1.0}),
        (FieldSpec("two_point", magnitude=2.0), {"magnitude": 2.0, "weights": [0.5, 0.5]}),
    ]:
        path = tmp_path / "h.json"
        path.write_text(json.dumps(R.fields_to_json_dict(h, spec, seed=9)))
        obj = json.loads(path.read_text())
        assert obj["format"] == R.FIELDS_FORMAT and obj["seed"] == 9
        assert obj["spec"] == {"kind": spec.kind, "generator": R.GENERATOR_VERSION, **params}
        assert np.array_equal(np.array(obj["h"]), h)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("exotic")
    with pytest.raises(ValueError):
        FieldSpec("gaussian", variance=-1.0)
    # the other kind's parameter must be 0, and a kind's own one finite and >= 0
    for kind, kwargs in (("gaussian", {"variance": 1.0, "magnitude": 3.0}),
                         ("two_point", {"variance": -5.0}),
                         ("two_point", {"magnitude": 1.0, "variance": 1.0}),
                         ("two_point", {"magnitude": -1.0}),
                         ("two_point", {"magnitude": math.inf}),
                         ("gaussian", {"variance": math.nan}),
                         # a bool is not a parameter, in either role
                         ("gaussian", {"variance": True}),
                         ("gaussian", {"variance": 1.0, "magnitude": False}),
                         ("two_point", {"magnitude": True}),
                         ("two_point", {"magnitude": 1.0, "variance": False})):
        with pytest.raises(ValueError, match=f"kind '{kind}' takes a finite"):
            FieldSpec(kind, **kwargs)
    assert FieldSpec("two_point", variance=0.0, magnitude=0.0).magnitude == 0.0
    assert FieldSpec("gaussian", magnitude=-0.0).variance == 0.0


def test_growth_path():
    g = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
    for v in range(7):
        counts = neighborhood_growth(g, v, 6)
        assert all(c <= 2 for c in counts)
    assert neighborhood_growth(g, 0, 3) == [1, 1, 1]


def test_growth_regular_tree():
    # root with 3 children, inner vertices with 2 children each: the sphere
    # sizes are 3 * 2^(d-1)
    edges = [(0, 1), (0, 2), (0, 3)]
    nxt = 4
    for u in (1, 2, 3):
        edges += [(u, nxt), (u, nxt + 1)]
        nxt += 2
    g = Graph.from_edges(nxt, edges)
    assert neighborhood_growth(g, 0, 2) == [3, 6]
    assert neighborhood_growth(g, 0, 2, in_saw_tree=True) == [3, 6]


def test_growth_four_cycle_saw():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert neighborhood_growth(g, 0, 4) == [2, 1, 0, 0]
    assert neighborhood_growth(g, 0, 4, in_saw_tree=True) == [2, 2, 2, 2]


def test_saw_counts_dominate_spheres(rng):
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(n, rng, extra_edges=3)
        v = int(rng.integers(n))
        graph_counts = neighborhood_growth(g, v, n)
        saw_counts = neighborhood_growth(g, v, n, in_saw_tree=True)
        assert all(s >= c for s, c in zip(saw_counts, graph_counts))


def test_saw_levels_match_tree_depths(rng):
    for _ in range(10):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(n, rng, extra_edges=4)
        v = int(rng.integers(n))
        ell = int(rng.integers(1, n + 2))
        tree = build_saw_tree(IsingInstance(g, 0.0, np.zeros(n)), v, cut_depth=ell)
        depths = [0] * (ell + 1)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            depths[node.depth] += 1
            stack.extend(node.children)
        assert neighborhood_growth(g, v, ell, in_saw_tree=True) == depths[1:]


def test_growth_input_error():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        neighborhood_growth(g, 0, 0)
