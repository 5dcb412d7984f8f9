"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS line with its measured numbers; run with -s to
see them for passing tests.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rfim import counting as C
from rfim import model as M
from rfim import percolation as P
from rfim.counting import approx_partition, check_instance, default_h0, sample_many
from rfim.glauber import coupled_drift_estimate, mixing_time_bound, run_chains
from rfim.graph import Graph, max_degree
from rfim.model import (
    IsingInstance,
    exact_marginal,
    exact_partition,
    exact_region_law,
    influence_bound,
)
from rfim.randgen import FieldSpec, gen_er_graph, gen_fields
from rfim.sawtree_oracle import build_saw_tree, root_marginal

from conftest import random_connected_graph


def random_instance(rng, n_lo, n_hi, beta_range=2.0, field_range=5.0, with_boundary=True):
    n = int(rng.integers(n_lo, n_hi + 1))
    g = random_connected_graph(n, rng)
    beta = float(rng.uniform(-beta_range, beta_range))
    h = rng.uniform(-field_range, field_range, n)
    boundary = {}
    if with_boundary and rng.random() < 0.6:
        k = int(rng.integers(1, n))
        boundary = {int(v): int(rng.choice([-1, 1])) for v in rng.permutation(n)[:k]}
        if len(boundary) == n:
            boundary.pop(next(iter(boundary)))
    return IsingInstance(g, beta, h, boundary)


def empirical_tv(samples, law, n):
    counts = {}
    for row in samples:
        key = tuple(int(s) for s in row)
        counts[key] = counts.get(key, 0) + 1
    total = len(samples)
    return 0.5 * sum(
        abs(counts.get(cfg, 0) / total - law.get(cfg, 0.0))
        for cfg in itertools.product([-1, 1], repeat=n)
    )


def tv_noise_slack(law, total):
    """Three standard errors of the empirical-TV statistic."""
    se = 0.5 * sum(math.sqrt(p * (1 - p) / total) for p in law.values())
    return 3.0 * se


def test_criterion_01_saw_tree_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        inst = random_instance(rng, 3, 10)
        for v in inst.free_vertices:
            tree = build_saw_tree(inst, v)
            gap = abs(root_marginal(tree, inst.beta) - exact_marginal(inst, v))
            worst = max(worst, gap)
    assert worst <= 1e-10
    print(f"criterion 1 PASS: saw-tree marginal exactness, worst gap {worst:.2e}")


def test_criterion_02_telescoping_exactness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        inst = random_instance(rng, 3, 10)
        res = approx_partition(inst, 0.5, depth_override=math.inf)
        worst = max(worst, abs(res.log_z_estimate - exact_partition(inst)))
    assert worst <= 1e-9
    print(f"criterion 2 PASS: telescoping log Z exactness, worst gap {worst:.2e}")


def test_criterion_03_certified_fptas_soundness():
    rng = np.random.default_rng(103)
    accepted = 0
    sound = 0
    for _ in range(150):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1.5, 1.5))
        h0 = default_h0(max_degree(g), beta)
        h = rng.choice([-1, 1], n) * (h0 + rng.uniform(0, 2, n))
        inst = IsingInstance(g, beta, h)
        log_z = exact_partition(inst)
        for eps in (0.1, 0.01):
            if not check_instance(inst, eps).accepted:
                continue
            accepted += 1
            res = approx_partition(inst, eps)
            if abs(res.log_z_estimate - log_z) <= eps:
                sound += 1
    assert accepted >= 200
    assert sound == accepted
    print(f"criterion 3 PASS: certified FPTAS sound on {sound}/{accepted} accepted runs")


def test_criterion_04_sampler_accuracy():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1, 1))
        h = rng.choice([-1, 1], n) * rng.uniform(1.2, 3.0, n)
        inst = IsingInstance(g, beta, h)
        law = exact_region_law(inst, list(range(n)))
        samples = sample_many(inst, 0.1, 1000 + i, 100000, depth_override=math.inf)
        worst = max(worst, empirical_tv(samples, law, n))
    assert worst <= 0.015
    print(f"criterion 4 PASS: sampler TV over 20 instances, worst {worst:.4f}")


def test_criterion_05_tv_domination():
    rng = np.random.default_rng(105)
    held = 0
    for i in range(50):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-1.5, 1.5))
        h = rng.uniform(-2, 2, n)
        b = int(rng.integers(n))
        inst = IsingInstance(g, beta, h, {b: 1})
        others = [v for v in range(n) if v != b]
        region = others[: int(rng.integers(1, 3))]
        report = P.tv_domination_check(inst, region, {b: 1}, {b: -1}, 3000, seed=i)
        held += report.holds
    assert held == 50

    # two-spin equality case: TV equals the influence probability exactly
    g = Graph.from_edges(2, [(0, 1)])
    worst = 0.0
    for beta in (0.4, 1.0, 2.0):
        inst = IsingInstance(g, beta, np.zeros(2), {0: 1})
        tv = P.exact_tv_on_region(inst, [1], {0: 1}, {0: -1})
        worst = max(worst, abs(tv - influence_bound(1, 0.0, beta)))
    assert worst <= 1e-10
    print(f"criterion 5 PASS: domination held 50/50, equality gap {worst:.2e}")


def test_criterion_06_glauber_threshold():
    rng = np.random.default_rng(106)
    n, beta = 6, 0.5
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    delta = 2
    h_thresh = delta * abs(beta) + 0.5 * math.log(delta)
    h = rng.choice([-1, 1], n) * (h_thresh + rng.uniform(0, 0.3, n))
    inst = IsingInstance(g, beta, h)
    steps = mixing_time_bound(n, delta, beta, float(np.min(np.abs(h))), 0.05)
    assert steps is not None
    finals = run_chains(inst, steps, 100000, seed=61)
    law = exact_region_law(inst, list(range(n)))
    tv = empirical_tv(finals, law, n)
    slack = tv_noise_slack(law, 100000)
    assert tv <= 0.05 + slack

    mean, se = coupled_drift_estimate(inst, 10000, seed=62)
    assert mean <= 3 * se
    print(
        f"criterion 6 PASS: tv {tv:.4f} <= 0.05+{slack:.4f} after {steps} steps, "
        f"drift {mean:.4f} (se {se:.4f})"
    )


def test_criterion_07_influence_properties():
    violations = 0
    # threshold: |h| >= |beta|*delta + 0.5 log(1/eps) forces M < eps
    for delta in range(9):
        for beta in np.arange(-3, 3.01, 0.5):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                h = abs(beta) * delta + 0.5 * math.log(1 / eps)
                violations += influence_bound(delta, h, beta) >= eps
                violations += influence_bound(delta, -h, beta) >= eps
    # monotonicity in degree
    for beta in np.arange(-3, 3.01, 0.75):
        for h in np.arange(-4, 4.01, 0.8):
            vals = [influence_bound(d, h, beta) for d in range(9)]
            violations += sum(a > b + 1e-15 for a, b in zip(vals, vals[1:]))
    # conditional-marginal swing bounded by M
    rng = np.random.default_rng(107)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(n, rng)
        beta = float(rng.uniform(-2, 2))
        h = rng.uniform(-2, 2, n)
        inst = IsingInstance(g, beta, h)
        v = int(rng.integers(n))
        others = [w for w in range(n) if w != v]
        lam = sorted(int(others[i]) for i in rng.permutation(len(others))[:3])
        joint = exact_region_law(inst, [v] + lam)
        bound = influence_bound(g.degree(v), h[v], beta)
        conds = []
        for cond in itertools.product([-1, 1], repeat=len(lam)):
            pp = joint.get((1,) + cond, 0.0)
            pm = joint.get((-1,) + cond, 0.0)
            if pp + pm > 0:
                conds.append(pp / (pp + pm))
        violations += (max(conds) - min(conds)) > bound + 1e-12
    assert violations == 0
    print("criterion 7 PASS: influence-function property grids, zero violations")


def three_regular_tree(depth):
    edges = []
    level = [0]
    next_id = 1
    for d in range(depth):
        new = []
        for u in level:
            for _ in range(3 if u == 0 else 2):
                edges.append((u, next_id))
                new.append(next_id)
                next_id += 1
        level = new
    return Graph.from_edges(next_id, edges)


def test_criterion_08_decay_rate_envelope():
    beta, delta = 1.0, 3
    g = three_regular_tree(10)
    variance = 64.0 * beta * beta * delta**6
    h0 = default_h0(delta, beta)
    c1 = C.rate_constant(delta, h0, beta)
    assert c1 is not None and math.isfinite(c1)
    seeds, failures = 100, 0
    for s in range(seeds):
        h = gen_fields(g.n, FieldSpec("gaussian", variance=variance), seed=8000 + s)
        inst = IsingInstance(g, beta, h)
        pts = []
        for ell in range(1, 9):
            plus = build_saw_tree(inst, 0, cut_depth=ell, frontier_spin=+1)
            minus = build_saw_tree(inst, 0, cut_depth=ell, frontier_spin=-1)
            d = abs(root_marginal(plus, beta) - root_marginal(minus, beta))
            if d > 0.0:
                pts.append((ell, math.log(d)))
        if len(pts) < 2:
            continue  # perturbation already below floating point: rate is infinite
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.array([p[1] for p in pts], dtype=float)
        slope = np.polyfit(xs, ys, 1)[0]
        if -slope < 0.8 * c1:
            failures += 1
    assert failures <= 0.05 * seeds
    print(
        f"criterion 8 PASS: decay rate >= {0.8 * c1:.2f} with {failures}/{seeds} failures"
    )


def induced_ball(inst, center, max_size):
    """Instance induced on a BFS ball of at most max_size vertices."""
    g = inst.graph
    keep = [center]
    seen = {center}
    i = 0
    while i < len(keep) and len(keep) < max_size:
        for w in g.adjacency[keep[i]]:
            if w not in seen and len(keep) < max_size:
                seen.add(w)
                keep.append(w)
        i += 1
    index = {v: k for k, v in enumerate(keep)}
    edges = [
        (index[a], index[b]) for a, b in g.edges() if a in index and b in index
    ]
    sub = Graph.from_edges(len(keep), edges)
    return IsingInstance(sub, inst.beta, inst.fields[keep])


def test_criterion_09_er_pipeline():
    beta = 1.0
    variance = 64.0 * beta * beta * 3**6
    accepted = 0
    sub_checked = 0
    for s in range(100):
        g = gen_er_graph(200, 3.0, seed=9000 + s)
        h = gen_fields(200, FieldSpec("gaussian", variance=variance), seed=9500 + s)
        inst = IsingInstance(g, beta, h)
        if not check_instance(inst, 0.1).accepted:
            continue
        accepted += 1
        sub = induced_ball(inst, 0, 12)
        res = approx_partition(sub, 0.1)
        gap = abs(res.log_z_estimate - exact_partition(sub))
        assert gap <= res.total_certified_relative_error + 1e-9
        sub_checked += 1
    assert accepted >= 90
    print(
        f"criterion 9 PASS: checker accepted {accepted}/100 seeds, "
        f"certified bound held on {sub_checked} subinstances"
    )


def rebuild_argv(manifest):
    argv = [manifest["subcommand"]]
    for key, value in manifest["params"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


def test_criterion_10_cli_determinism(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst_path = tmp_path / "inst.json"
    M.save(IsingInstance(g, 0.4, np.array([2.0, -2.5, 3.0])), str(inst_path))
    gpath = tmp_path / "g.json"
    # perc reads its trials and seed from the config, so its manifest holds
    # the config path alone
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    M.save(IsingInstance(path4, 1.0, np.zeros(4), {0: 1}), str(tmp_path / "path.json"))
    perc_path = tmp_path / "perc.json"
    perc_path.write_text(json.dumps({"format": "rfim-perc-v1", "instance": "path.json",
                                     "A": [3], "eta": {"0": 1}, "xi": {"0": -1},
                                     "trials": 300, "seed": 5}))
    runs = [
        ["gen-graph", "--n", "10", "--delta", "3", "--seed", "2", "--out", str(gpath)],
        ["gen-fields", "--n", "6", "--variance", "2.5", "--seed", "3"],
        ["exact", "--instance", str(inst_path)],
        ["count", "--instance", str(inst_path), "--eps", "0.05"],
        ["sample", "--instance", str(inst_path), "--eps", "0.1", "--seed", "4"],
        ["check", "--instance", str(inst_path)],
        ["grow", "--graph", str(gpath), "--v", "0", "--lmax", "3", "--saw-tree"],
        ["perc", "--config", str(perc_path)],
    ]
    for args in runs:
        first = subprocess.run(
            [sys.executable, "-m", "rfim.cli", *args], capture_output=True
        )
        manifest = json.loads(first.stdout)["manifest"]
        replay = subprocess.run(
            [sys.executable, "-m", "rfim.cli", *rebuild_argv(manifest)],
            capture_output=True,
        )
        assert replay.returncode == first.returncode
        assert replay.stdout == first.stdout
    print(f"criterion 10 PASS: {len(runs)} CLI runs byte-identical when replayed")
