"""Set-up step of the benchmark: generate one workload's instances with
`rfim.randgen` and write them as rfim-instance-v1 files, plus a manifest
(`workload.json`) that tells the timed process what to run on them.

    python3 perfbench/gen.py --workload paper --seed 0 --out DIR [--trace 1]

Prints one JSON line: `setup_s` (import rfim + generate + write), and with
`--trace 1` also `gen_s` (time inside randgen) and `peak_mb` (tracemalloc
peak of a second, unwritten generation).

The base instances are fixed by the regime (graph seeds 9000+i, field seeds
9500+i, ...).  The workload seed relabels each base instance by a random
vertex permutation (seed 0 is the identity).  A relabelled instance is
isomorphic to its base, so log Z, the certificate verdict and the exact TV
distance stay the reference values recorded in `reference.json`, and the
amount of work stays close to the base instance's; only the vertex order,
which the SAW-tree cycle rule and the telescoping order depend on, changes.
The seed also draws the sampler, chain and percolation seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Regimes.  `paper` is the regime of acceptance criterion 9 (variance
# 64 beta^2 3^6 = 46656), `hard` the regime where the adaptive depth doubles.
PAPER = {"n": 200, "delta": 3.0, "beta": 1.0, "variance": 46656.0, "eps": 0.01,
         "instances": 20, "draws": 50, "ball": 12}
HARD = {"n": 200, "delta": 3.0, "beta": 0.3, "variance": 100.0, "eps": 0.01,
        "instances": 3, "ball": 12}
# mc: Glauber on ER(4000, 3) with +-5 fields (the smallest integer magnitude
# with a mixing guarantee at max degree 10), percolation on ER(2000, 3) from
# one site to its distance-4 sphere, enumeration on ER(20, 3) (2^19 per side).
MC = {"beta": 0.3, "glauber_n": 4000, "glauber_h": 5.0, "glauber_eps": 0.05,
      "chains": 16, "perc_n": 2000, "perc_variance": 4.0, "perc_radius": 4,
      "perc_trials": 20000, "tv_n": 20, "tv_variance": 1.0, "tv_trials": 2000}
WORKLOADS = ("paper", "hard", "mc")


def _rng(seed: int, *stream: int):
    import numpy as np

    return np.random.default_rng([seed % 2**64, *stream])


def _permutation(rng, n: int, seed: int):
    """perm[old] = new vertex label; the identity for workload seed 0."""
    import numpy as np

    return np.arange(n) if seed == 0 else rng.permutation(n)


def relabel(inst, perm, boundary=None):
    """The instance with vertex v renamed perm[v]."""
    import numpy as np
    from rfim.graph import Graph
    from rfim.model import IsingInstance

    g = inst.graph
    edges = [(int(perm[a]), int(perm[b])) for a, b in g.edges()]
    h = np.empty(g.n)
    h[perm] = inst.fields
    bnd = {int(perm[v]): s for v, s in (boundary or {}).items()}
    return IsingInstance(Graph.from_edges(g.n, edges), inst.beta, h, bnd)


def induced_ball(inst, center: int, max_size: int):
    """Instance induced on a BFS ball of at most max_size vertices (the
    sub-instance of acceptance criterion 9)."""
    from rfim.graph import Graph
    from rfim.model import IsingInstance

    g = inst.graph
    keep, seen, i = [center], {center}, 0
    while i < len(keep) and len(keep) < max_size:
        for w in g.adjacency[keep[i]]:
            if w not in seen and len(keep) < max_size:
                seen.add(w)
                keep.append(w)
        i += 1
    index = {v: k for k, v in enumerate(keep)}
    edges = [(index[a], index[b]) for a, b in g.edges() if a in index and b in index]
    return IsingInstance(Graph.from_edges(len(keep), edges), inst.beta, inst.fields[keep])


def base_instances(workload: str) -> dict:
    """The unrelabelled instances of a workload, by name."""
    from rfim.model import IsingInstance
    from rfim.randgen import FieldSpec, gen_er_graph, gen_fields

    if workload in ("paper", "hard"):
        p = PAPER if workload == "paper" else HARD
        spec = FieldSpec("gaussian", variance=p["variance"])
        return {
            f"{workload}-{i}": IsingInstance(
                gen_er_graph(p["n"], p["delta"], 9000 + i),
                p["beta"],
                gen_fields(p["n"], spec, 9500 + i),
            )
            for i in range(p["instances"])
        }
    beta = MC["beta"]
    return {
        "glauber": IsingInstance(
            gen_er_graph(MC["glauber_n"], 3.0, 9100),
            beta,
            gen_fields(MC["glauber_n"], FieldSpec("two_point", magnitude=MC["glauber_h"]), 9600),
        ),
        "perc": IsingInstance(
            gen_er_graph(MC["perc_n"], 3.0, 9200),
            beta,
            gen_fields(MC["perc_n"], FieldSpec("gaussian", variance=MC["perc_variance"]), 9700),
        ),
        "tv": IsingInstance(
            gen_er_graph(MC["tv_n"], 3.0, 9300),
            beta,
            gen_fields(MC["tv_n"], FieldSpec("gaussian", variance=MC["tv_variance"]), 9800),
        ),
    }


def tv_region_vertex(g) -> int:
    """The vertex farthest from vertex 0 (lowest label on ties)."""
    from rfim.graph import bfs_distances

    dist = bfs_distances(g, 0)
    return max(range(g.n), key=lambda v: (dist[v], -v))


def generate(workload: str, seed: int, out: str | None) -> dict:
    """Generate (and, when `out` is set, write) the workload's instances;
    returns the manifest."""
    from rfim import model
    from rfim.graph import sphere

    rng = _rng(seed, WORKLOADS.index(workload))
    seeds = [int(x) for x in _rng(seed, 99).integers(2**31, size=64)]
    base = base_instances(workload)
    files: dict = {}

    def write(name, inst):
        if out is not None:
            model.save(inst, os.path.join(out, name + ".json"))
        files[name] = name + ".json"

    if workload in ("paper", "hard"):
        p = PAPER if workload == "paper" else HARD
        instances = []
        for i, (name, inst) in enumerate(base.items()):
            perm = _permutation(rng, inst.graph.n, seed)
            moved = relabel(inst, perm)
            write(name, moved)
            write(name + "-ball", induced_ball(moved, int(perm[0]), p["ball"]))
            instances.append({"name": name, "ref": i, "sample_seed": seeds[i]})
        manifest = {"eps": p["eps"], "instances": instances,
                    "draws": p.get("draws", 0), "sample_many_seed": seeds[40],
                    "cli_seed": seeds[41]}
    else:
        perms = {name: _permutation(rng, inst.graph.n, seed) for name, inst in base.items()}
        write("glauber", relabel(base["glauber"], perms["glauber"]))
        g = base["perc"].graph
        p0 = perms["perc"]
        write("perc", relabel(base["perc"], p0, {0: 1}))
        tv = base["tv"]
        t0 = perms["tv"]
        write("tv", relabel(tv, t0, {0: 1}))
        b = int(t0[0])
        region = [int(t0[tv_region_vertex(tv.graph)])]
        perc_cfg = {"format": "rfim-perc-v1", "instance": files["tv"], "A": region,
                    "eta": {str(b): 1}, "xi": {str(b): -1},
                    "trials": MC["tv_trials"], "seed": seeds[5]}
        if out is not None:
            with open(os.path.join(out, "tv-perc.json"), "w") as f:
                json.dump(perc_cfg, f)
        manifest = {
            "glauber": {"eps": MC["glauber_eps"], "seed": seeds[0], "chains": MC["chains"],
                        "chain_steps": MC["glauber_n"], "chain_seed": seeds[1]},
            "perc": {"source": int(p0[0]),
                     "targets": sorted(int(p0[v]) for v in sphere(g, 0, MC["perc_radius"])),
                     "trials": MC["perc_trials"], "seed": seeds[2]},
            "tv": {"boundary": b, "region": region, "trials": MC["tv_trials"],
                   "seed": seeds[3]},
            "cli_seed": seeds[4],
        }
    manifest.update({"workload": workload, "seed": seed, "files": files})
    if out is not None:
        with open(os.path.join(out, "workload.json"), "w") as f:
            json.dump(manifest, f, indent=1)
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import rfim  # noqa: F401  (part of the timed set-up)

    os.makedirs(args.out, exist_ok=True)
    if not args.trace:
        generate(args.workload, args.seed, args.out)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    import tracemalloc

    from tracing import Tracer

    tracer = Tracer()
    tracer.install(
        [("rfim.randgen", "gen_er_graph", "randgen.gen_er_graph", None),
         ("rfim.randgen", "gen_fields", "randgen.gen_fields", None)],
        [],
    )
    generate(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - t0
    gen_s = sum(tracer.summary()["self_s"].values())
    tracer.uninstall()
    tracemalloc.start()
    generate(args.workload, args.seed, None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"setup_s": setup_s, "gen_s": gen_s, "peak_mb": peak / 2**20}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
