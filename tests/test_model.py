import itertools
import json
import math
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

from rfim import elimination, model as M
from rfim.counting import approx_sample
from rfim.glauber import glauber_sample
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_marginal, exact_partition, hamiltonian, influence_bound

from conftest import random_connected_graph


def edge_instance(beta=1.0, h=(0.0, 0.0), boundary=None):
    return IsingInstance(Graph.from_edges(2, [(0, 1)]), beta, np.array(h), boundary or {})


def test_instance_rejects_non_finite_inputs():
    g = Graph.from_edges(2, [(0, 1)])
    for beta, h in (
        (math.nan, [0.0, 0.0]),
        (math.inf, [0.0, 0.0]),
        (-math.inf, [0.0, 0.0]),
        (1.0, [0.0, math.nan]),
        (1.0, [math.inf, 0.0]),
        (1.0, [0.0, -math.inf]),
    ):
        with pytest.raises(ValueError, match="finite"):
            IsingInstance(g, beta, np.array(h))


def brute_log_z(inst):
    """Independent oracle: direct sum over configurations in linear space."""
    n = inst.graph.n
    total = 0.0
    for spins in itertools.product([-1, 1], repeat=n):
        if any(spins[v] != s for v, s in inst.boundary.items()):
            continue
        e = inst.beta * sum(spins[a] * spins[b] for a, b in inst.graph.edges())
        e += sum(inst.fields[v] * spins[v] for v in range(n))
        total += math.exp(e)
    return math.log(total)


def test_hamiltonian_examples():
    inst = edge_instance()
    assert hamiltonian(inst, np.array([1, 1])) == -1.0
    assert hamiltonian(inst, np.array([1, -1])) == 1.0
    lone = IsingInstance(Graph.from_edges(1, []), 0.5, np.array([2.0]))
    assert hamiltonian(lone, np.array([1])) == -2.0


def test_hamiltonian_rejects_bad_config():
    inst = edge_instance(boundary={0: 1})
    with pytest.raises(M.IncompleteConfiguration):
        hamiltonian(inst, np.array([-1, 1]))
    with pytest.raises(M.IncompleteConfiguration):
        hamiltonian(inst, np.array([1, 0]))


def test_exact_partition_examples():
    lone = IsingInstance(Graph.from_edges(1, []), 1.0, np.zeros(1))
    assert exact_partition(lone) == pytest.approx(math.log(2), abs=1e-12)
    for beta in (0.3, -1.2, 2.0):
        inst = edge_instance(beta=beta)
        expected = math.log(2 * math.exp(beta) + 2 * math.exp(-beta))
        assert exact_partition(inst) == pytest.approx(expected, abs=1e-12)


def test_exact_partition_beta_zero_factorizes(rng):
    g = random_connected_graph(7, rng)
    h = rng.uniform(-3, 3, 7)
    inst = IsingInstance(g, 0.0, h)
    expected = sum(math.log(2 * math.cosh(x)) for x in h)
    assert exact_partition(inst) == pytest.approx(expected, abs=1e-10)


def test_exact_partition_matches_linear_space_oracle(rng, monkeypatch):
    # the frontier elimination against direct sums over every configuration:
    # log Z, the joint law of a region of 0-3 vertices (in a random order, so
    # the table's bits are reordered) and a conditional marginal; with
    # _TABLE_BITS 2 the wider plans are split by conditioning
    for table_bits in (elimination._TABLE_BITS, 2):
        monkeypatch.setattr(elimination, "_TABLE_BITS", table_bits)
        for i in range(16):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, 5)))
            boundary = [{}, {0: 1}, {0: 1, n - 1: -1}][i % 3]
            beta = float(rng.uniform(0.1, 2)) * (-1) ** i
            inst = IsingInstance(g, beta, rng.uniform(-2, 2, n), boundary)
            log_z = brute_log_z(inst)
            assert exact_partition(inst) == pytest.approx(log_z, abs=1e-10)
            free = inst.free_vertices
            region = [int(v) for v in rng.permutation(free)[:i % 4]]
            law = M.exact_region_law(inst, region)
            assert list(law) == list(itertools.product((-1, 1), repeat=len(region)))
            for key, p in law.items():
                fixed = inst.with_extra_boundary(dict(zip(region, key)))
                assert p == pytest.approx(math.exp(brute_log_z(fixed) - log_z), abs=1e-12)
            if region:
                v, extra = region[0], {u: 1 for u in region[1:]}
                cond = inst.with_extra_boundary(extra)
                plus = brute_log_z(cond.with_extra_boundary({v: 1}))
                expected = 1 / (1 + math.exp(brute_log_z(cond.with_extra_boundary({v: -1})) - plus))
                assert exact_marginal(inst, v, extra) == pytest.approx(expected, abs=1e-12)


def test_exact_partition_cap():
    g = Graph.from_edges(30, [])
    inst = IsingInstance(g, 0.0, np.zeros(30))
    with pytest.raises(M.EnumerationTooLarge):
        exact_partition(inst)
    small = IsingInstance(Graph.from_edges(10, []), 0.0, np.zeros(10))
    with pytest.raises(M.EnumerationTooLarge):
        exact_partition(small, max_free=5)
    assert exact_partition(small, max_free=10) == pytest.approx(10 * math.log(2))


def test_exact_partition_relabeling_invariance(rng):
    n = 7
    g = random_connected_graph(n, rng)
    h = rng.uniform(-2, 2, n)
    inst = IsingInstance(g, 0.8, h)
    perm = rng.permutation(n)
    g2 = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in g.edges()])
    inst2 = IsingInstance(g2, 0.8, h[np.argsort(perm)])
    assert exact_partition(inst) == pytest.approx(exact_partition(inst2), abs=1e-10)


def test_global_spin_flip_symmetry(rng):
    n = 6
    g = random_connected_graph(n, rng)
    h = rng.uniform(-2, 2, n)
    inst = IsingInstance(g, 1.1, h, {0: 1})
    flipped = IsingInstance(g, 1.1, -h, {0: -1})
    assert exact_partition(inst) == pytest.approx(exact_partition(flipped), abs=1e-10)


def test_exact_marginal_examples():
    lone = IsingInstance(Graph.from_edges(1, []), 1.0, np.array([0.7]))
    assert exact_marginal(lone, 0) == pytest.approx(1 / (1 + math.exp(-1.4)), abs=1e-12)
    zero = IsingInstance(Graph.from_edges(1, []), 1.0, np.zeros(1))
    assert exact_marginal(zero, 0) == pytest.approx(0.5, abs=1e-12)
    beta, hv = 0.9, 0.2
    inst = edge_instance(beta=beta, h=(hv, 0.0), boundary={1: 1})
    assert exact_marginal(inst, 0) == pytest.approx(
        1 / (1 + math.exp(-2 * beta - 2 * hv)), abs=1e-12
    )


def test_exact_marginal_path3_frozen():
    # brute force over the 8 configurations of the path 0-1-2,
    # beta=1, h=(0.3,-0.2,0.5), computed independently and frozen
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = IsingInstance(g, 1.0, np.array([0.3, -0.2, 0.5]))
    assert exact_marginal(inst, 1) == pytest.approx(0.6870907024716225, abs=1e-12)


def test_exact_marginal_rejects_fixed_vertex():
    inst = edge_instance(boundary={0: 1})
    with pytest.raises(ValueError):
        exact_marginal(inst, 0)


def test_influence_bound_examples():
    for delta in range(5):
        for h in (-3.0, 0.0, 2.5):
            assert influence_bound(delta, h, 0.0) == 0.0
    assert influence_bound(1, 0.0, 1.0) == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert influence_bound(2, 5.0, 1.0) == pytest.approx(0.0024717916286068897, abs=1e-12)


def test_influence_bound_extreme_fields_stable():
    assert influence_bound(3, 700.0, 1.0) == 0.0
    assert influence_bound(3, -700.0, 1.0) == 0.0
    assert influence_bound(3, 1e6, 1.0) == 0.0
    assert influence_bound(3, -1e6, 1.0) == 0.0
    assert 0.0 <= influence_bound(8, 350.0, 3.0) < 1.0


def test_expit_equals_scipy_bit_for_bit():
    from scipy.special import expit as scipy_expit

    # e^-x overflows just below -log(max float); 1 + e^-x rounds to 1 near 37
    edges = [-math.log(sys.float_info.max), -745.2, -708.4, 36.7, 37.5, 0.0]
    near = [e + k * math.ulp(e) for e in edges for k in range(-3, 4)]
    normal = np.random.default_rng(7).normal(size=(5, 20_000)) * [[0.01], [1], [30], [300], [1000]]
    grid = np.concatenate(
        [np.linspace(-800, 800, 160_001), near, [-np.inf, np.inf, -0.0], normal.ravel()]
    )
    ours = np.array([M.expit(x) for x in grid.tolist()])
    assert ours.view(np.int64).tolist() == scipy_expit(grid).view(np.int64).tolist()


def test_influence_bound_even_in_h_matches_closed_form():
    # M = sinh(c) / (cosh 2h + cosh c) with c = 2|beta|delta; a sigmoid
    # difference taken at large positive h cancels to 0 instead
    for delta in range(1, 9):
        for beta in (0.3, 1.0, 3.0):
            c = 2.0 * beta * delta
            for h in np.linspace(0.0, 300.0, 601):
                ref = math.sinh(c) / (math.cosh(2.0 * h) + math.cosh(c))
                for b in (beta, -beta):
                    m = influence_bound(delta, h, b)
                    assert m == influence_bound(delta, -h, b), (delta, h, b)
                    assert abs(m - ref) <= 1e-12 * ref, (delta, h, b, m, ref)


def test_influence_threshold_guarantee():
    # |h| >= |beta|*delta + 0.5*log(1/eps)  implies  M < eps
    for delta in range(9):
        for beta in np.arange(-3, 3.01, 0.5):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                h = abs(beta) * delta + 0.5 * math.log(1 / eps)
                assert influence_bound(delta, h, beta) < eps
                assert influence_bound(delta, -h, beta) < eps


def test_influence_monotone_in_degree():
    for beta in np.arange(-3, 3.01, 0.75):
        for h in np.arange(-4, 4.01, 0.8):
            vals = [influence_bound(d, h, beta) for d in range(9)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_boundary_influence_bounded_by_M(rng):
    # |marginal under sigma_L - marginal under tau_L| <= M(deg(v), h_v, beta),
    # over every conditioning set and every pair of conditionings.  The
    # conditional marginals come from one joint enumeration per instance.
    for _ in range(12):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-2, 2))
        h = rng.uniform(-2, 2, n)
        inst = IsingInstance(g, beta, h)
        v = int(rng.integers(n))
        others = [w for w in range(n) if w != v]
        k = int(rng.integers(1, min(len(others), 4) + 1))
        lam = sorted(int(others[i]) for i in rng.permutation(len(others))[:k])
        joint = M.exact_region_law(inst, [v] + lam)
        bound = influence_bound(g.degree(v), h[v], beta)
        conds = []
        for cond in itertools.product([-1, 1], repeat=k):
            p_plus = joint.get((1,) + cond, 0.0)
            p_minus = joint.get((-1,) + cond, 0.0)
            if p_plus + p_minus > 0:
                conds.append(p_plus / (p_plus + p_minus))
        assert max(conds) - min(conds) <= bound + 1e-12


def test_region_law_over_all_free_vertices(rng):
    n = 14
    g = random_connected_graph(n, rng, extra_edges=6)
    inst = IsingInstance(g, 0.7, rng.uniform(-1.5, 1.5, n), {4: 1, 9: -1})
    region = [int(v) for v in rng.permutation(inst.free_vertices)]
    assert len(region) == 12
    law = M.exact_region_law(inst, region)
    log_z = exact_partition(inst)
    assert len(law) == 2**12
    for key, p in law.items():
        assert type(key) is tuple and all(type(s) is int for s in key)
        spins = np.empty(n, dtype=int)
        spins[region] = key
        spins[[4, 9]] = [1, -1]
        assert p == pytest.approx(math.exp(-hamiltonian(inst, spins) - log_z), abs=1e-12)


def test_region_law_rejects_repeated_vertex():
    inst = IsingInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), 1.0, np.zeros(3))
    with pytest.raises(ValueError, match="repeats"):
        M.exact_region_law(inst, [2, 2])


def test_exact_partition_past_one_table_memory_bounded(rng):
    # 20 free vertices on a 22-vertex path: no table is wider than two
    # vertices, checked against the transfer-matrix product
    n = 22
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    h = rng.uniform(-1.5, 1.5, n)
    inst = IsingInstance(g, 0.6, h, {0: 1, n - 1: -1})
    spins = np.array([-1.0, 1.0])
    pair = np.exp(inst.beta * np.outer(spins, spins))
    z = np.exp((inst.beta + h[1]) * spins)  # spin 1 next to the fixed +1 at 0
    for v in range(2, n - 1):
        z = (z @ pair) * np.exp(h[v] * spins)
    expected = math.log(z @ np.exp(-inst.beta * spins)) + h[0] - h[n - 1]
    tracemalloc.start()
    try:
        log_z = exact_partition(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log_z == pytest.approx(expected, rel=1e-12)
    assert peak < 8 * 2**20


def test_instance_json_round_trip(tmp_path, rng):
    g = random_connected_graph(5, rng)
    inst = IsingInstance(g, -0.4, rng.uniform(-1, 1, 5), {2: -1})
    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    inst2 = M.load(str(path))
    assert inst2.graph == inst.graph
    assert inst2.beta == inst.beta
    assert np.allclose(inst2.fields, inst.fields)
    assert inst2.boundary == inst.boundary


def test_records_are_immutable():
    from rfim.counting import check_instance
    from rfim.percolation import SitePercolationSpec
    from rfim.randgen import FieldSpec

    g = Graph.from_edges(2, [(0, 1)])
    inst = IsingInstance(g, 1.0, np.zeros(2))
    for record, name, value in (
        (g, "n", 3),
        (inst, "beta", 2.0),
        (check_instance(inst, 0.1), "accepted", True),
        (FieldSpec("gaussian", variance=2.0), "variance", 3.0),
        (SitePercolationSpec(g, np.full(2, 0.5)), "boundary_open", frozenset({0})),
    ):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == before


def test_instance_validation():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        IsingInstance(g, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        IsingInstance(g, 1.0, np.zeros(2), {5: 1})
    with pytest.raises(ValueError):
        IsingInstance(g, 1.0, np.zeros(2), {0: 2})


def test_boundary_spins_are_integers():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    for bad in (True, False, 1.0, -1.0, np.float64(1.0), np.bool_(True), "1", None, 2, np.int64(0)):
        with pytest.raises(ValueError, match="boundary spin at 0"):
            IsingInstance(path3, 0.1, [4.0] * 3, {0: bad, 2: 1})
    inst = IsingInstance(path3, 0.1, [4.0] * 3, {0: np.int64(1), 2: np.int8(-1)})
    assert glauber_sample(inst, 0.1, 0) in ([1, s, -1] for s in (-1, 1))


def test_numpy_boundary_is_stored_as_python_ints():
    # numpy spins used to leak into results, which json.dumps then rejected
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = IsingInstance(path3, 0.1, [4.0, -4.0, 4.0], {np.int64(1): np.int64(-1)})
    assert inst.boundary == {1: -1}
    assert all(type(x) is int for x in [*inst.boundary, *inst.boundary.values()])
    for got in (glauber_sample(inst, 0.1, 0), approx_sample(inst, 0.1, 0).config):
        assert type(got) is list and all(type(s) is int for s in got)
        assert json.loads(json.dumps(got)) == got
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match="boundary vertex"):
            IsingInstance(path3, 0.1, [4.0] * 3, {bad: 1})


def test_instance_fields_any_finite_sequence_stored_as_given():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for h in ([0.5, -1.0, 2], (0.5, -1.0, 2), array("d", [0.5, -1.0, 2.0]),
              np.array([0.5, -1.0, 2.0])):
        inst = IsingInstance(g, 0.7, h)
        assert inst.fields is h
    # an array stays an array, so fancy indexing (the sub-instance of
    # criterion 9, the benchmark's ball instances) still works
    arr = np.array([0.5, -1.0, 2.0])
    assert list(IsingInstance(g, 0.7, arr).fields[[0, 2]]) == [0.5, 2.0]
    for bad in ([0.0, 0.0], [0.0] * 4, np.zeros((3, 1)), 1.0, [0.0, math.nan, 0.0],
                (math.inf, 0.0, 0.0), np.array([0.0, 0.0, -math.inf]), [0.0, "1", 0.0]):
        with pytest.raises(ValueError):
            IsingInstance(g, 0.7, bad)


def test_with_extra_boundary_revalidates_fields():
    # fields are stored as given, so a list changed after construction is
    # caught when the next instance is derived from it
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for change in (lambda h: h.__setitem__(1, math.nan),
                   lambda h: h.__setitem__(2, math.inf),
                   lambda h: h.append(0.0)):
        h = [0.1, 0.2, 0.3]
        inst = IsingInstance(g, 0.7, h)
        change(h)
        with pytest.raises(ValueError):
            inst.with_extra_boundary({0: 1})


def test_hamiltonian_list_and_array_fields_agree(rng):
    g = random_connected_graph(9, rng)
    h = rng.normal(0.0, 30.0, 9)
    as_array = IsingInstance(g, 0.8, h)
    as_list = IsingInstance(g, 0.8, h.tolist())
    for _ in range(20):
        spins = rng.choice([-1, 1], 9)
        a = hamiltonian(as_array, spins)
        b = hamiltonian(as_list, spins.tolist())
        assert type(a) is float and type(b) is float
        assert abs(a - b) <= 1e-12
