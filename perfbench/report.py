"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py run [--workloads paper,hard,mc] [--seeds 0-9]
                                    [--trace 0,1] [--baseline LABEL]
    python3 perfbench/report.py reference

`run` calls run.py once per (workload, trace, seed), one process at a time,
for the `run_seconds` of BENCHMARK.json, and prints every metric by name and
unit with its median over the seeds and the spread (third minus first
quartile, over the median) that the bounds in BENCHMARK.json are checked
against.  With --baseline it also records the medians and spreads, with the
seeds, in baseline.json under LABEL (one label per batch of runs), next to
the run context (Python, numpy and scipy versions, nproc, CPU model, git
commit), and prints how far each median lies from the same metric's median
in the other batches recorded there.

`reference` recomputes reference.json, the values the output checks compare
against: log Z with its certified error and the check verdict of every
paper and hard instance, the exact TV distance of the mc enumeration, and a
200000-trial estimate of the mc connection probability.  Run it only on the
commit whose outputs are to become the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"    {line}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def context() -> dict:
    import numpy
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit}


def cmd_run(args) -> None:
    seeds = parse_seeds(args.seeds)
    seconds = run_seconds()
    runs_by_key = {}
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            runs = []
            for seed in seeds:
                res = run_once(workload, seed, seconds, trace)
                runs.append(res)
                print(f"{workload} trace={trace} seed={seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", flush=True)
            print(f"{workload} trace={trace}: median over {len(runs)} seeds, spread = IQR/median")
            summary = {}
            for name, m in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                summary[name] = {"median": statistics.median(values), "spread": spread(values),
                                 "unit": m["unit"]}
                print(f"  {name:28s} {summary[name]['median']:14.6g} {m['unit']:6s} "
                      f"spread {summary[name]['spread']:.3f}  "
                      f"[{min(values):.6g} .. {max(values):.6g}]", flush=True)
            fails = sum(r["failed"] for r in runs)
            tries = sum(r["attempted"] for r in runs)
            print(f"  {'fail_frac':28s} {fails / tries:14.6g}", flush=True)
            runs_by_key[f"{workload}/trace{trace}"] = {
                "seeds": seeds, "seconds": seconds, "fail_frac": fails / tries,
                "metrics": summary}
    if args.baseline:
        path = os.path.join(HERE, "baseline.json")
        out = {"runs": {}}
        if os.path.exists(path):
            with open(path) as f:
                out = json.load(f)
        out["context"] = context()
        out["runs"].setdefault(args.baseline, {}).update(runs_by_key)
        compare(out["runs"], args.baseline, runs_by_key)
        with open(path, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


def compare(batches: dict, label: str, runs_by_key: dict) -> None:
    """Print each new median's relative difference from the same metric's
    median in every other batch."""
    for other, runs in sorted(batches.items()):
        if other == label:
            continue
        for key, run in runs_by_key.items():
            for name, m in run["metrics"].items():
                old = runs.get(key, {}).get("metrics", {}).get(name)
                if old and old["median"]:
                    diff = m["median"] / old["median"] - 1.0
                    print(f"  {key} {name}: {label} vs {other} {diff:+.3f}")


def cmd_reference(args) -> None:
    sys.path.insert(0, SRC)
    from gen import HARD, MC, PAPER, base_instances, tv_region_vertex
    from rfim import counting, percolation
    from rfim.graph import sphere

    ref: dict = {}
    for workload, p in (("paper", PAPER), ("hard", HARD)):
        ref[workload] = []
        for name, inst in base_instances(workload).items():
            res = counting.approx_partition(inst, p["eps"])
            rep = counting.check_instance(inst, p["eps"])
            ref[workload].append({"name": name, "log_z": res.log_z_estimate,
                                  "err": res.total_certified_relative_error,
                                  "accepted": rep.accepted, "depth": rep.depth})
            print(name, ref[workload][-1], flush=True)
    base = base_instances("mc")
    tv = base["tv"]
    region = [tv_region_vertex(tv.graph)]
    perc = base["perc"].with_extra_boundary({0: 1})
    spec = percolation.domination_spec(perc, {0: 1}, {0: -1})
    est = percolation.connection_probability(
        spec, sphere(perc.graph, 0, MC["perc_radius"]), 200000, 1)
    ref["mc"] = {"tv_exact": percolation.exact_tv_on_region(
                     tv.with_extra_boundary({0: 1}), region, {0: 1}, {0: -1}),
                 "p_connect": est.p_hat}
    print("mc", ref["mc"])
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default="paper,hard,mc")
    p.add_argument("--seeds", default="0")
    p.add_argument("--trace", default="0,1")
    p.add_argument("--baseline", metavar="LABEL")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("reference")
    p.set_defaults(fn=cmd_reference)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
