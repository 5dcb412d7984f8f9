"""rfim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper|hard|mc --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up runs `gen.py` in fresh processes
(import rfim, generate the instances with randgen, write them); this process
then loads the files and repeats passes over the workload's operations for
about S seconds, checking every output.  Each operation runs under a timeout;
one that runs past it counts as failed ("exceeded") and the run goes on.

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
measured untraced:
  setup_s      median over SETUP_REPEATS set-ups of the set-up time over
               the reference import time just before it, times
               REF_NOMINAL_S (see reference_import_seconds)
  wall_s       time of one pass (library calls and CLI subprocesses): the
               sum of each operation's median time over the passes (at
               least two, also when a slow first pass leaves no room for a
               second in S seconds), each time divided by the host speed
               measured during it (HostSpeed)
  peak_rss_mb  peak RSS of this process (set-up runs elsewhere)
With --trace 1 they are the per-layer ones: half the time runs untraced
passes, the other half at least two traced passes (see tracing.py); counts
come from one traced pass and must repeat exactly in the others, times are
medians over traced passes.
Lines above the JSON list the host speed factor, wall_s before it, raw
pass, set-up and reference import times, per-phase sums (count_s, check_s,
sample_s, cli_s, ...), fail_frac and, traced, per-operation counts.  Spans
of the last traced pass go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper", "hard", "mc")
SETUP_REPEATS = 5
OP_TIMEOUT = 60.0
RUN_LIMIT = 150.0  # whole run, set-up included
REF_IMPORT = ("import time; t = time.perf_counter(); import numpy, scipy.special; "
              "print(time.perf_counter() - t)")
REF_NOMINAL_S = 0.5  # median reference import time on the reference host
SAMPLE_EVERY = 0.02  # seconds of this process's CPU time between speed samples
KERNEL_LOOPS = 1000
KERNEL_NOMINAL_S = 1e-4  # mean kernel time on the reference host
NEAR_SAMPLES = 20  # an operation's factor averages at least this many samples

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "randgen.gen_s": "s", "randgen.peak_mb": "MB", "graph.load_s": "s",
    "model.exact_configs": "count", "model.exact_ns_per_config": "ns",
    "model.influence_calls": "count",
    "sawtree.trees": "count", "sawtree.nodes": "count", "sawtree.build_s": "s",
    "sawtree.eval_s": "s", "sawtree.cert_s": "s", "sawtree.us_per_node": "us",
    "sawtree.count_share": "ratio",
    "counting.self_s": "s", "counting.trees_per_step": "ratio",
    "counting.trees_per_draw": "ratio",
    "glauber.chain_steps": "count", "glauber.us_per_step": "us",
    "percolation.trials": "count", "percolation.us_per_trial": "us",
    "cli.import_s": "s", "cli.dispatch_ratio": "ratio", "trace.overhead_ratio": "ratio",
}
# Work counts and their ratios: these must repeat exactly between passes.
DETERMINISTIC = {name for name, unit in PER_LAYER.items() if unit == "count"} | {
    "counting.trees_per_step", "counting.trees_per_draw"}
SAWTREE_SPANS = ("sawtree.build_saw_tree", "sawtree.root_marginal",
                 "sawtree.certified_truncation_error", "sawtree.ssm_certificate")


class Exceeded(BaseException):
    """Raised by the alarm in an operation that runs past its timeout; a
    BaseException so that no `except Exception` in rfim swallows it."""


def _alarm(signum, frame):
    raise Exceeded()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def reference_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.special,
    the bulk of `import rfim`.

    The host is shared: the same work takes 10-40 % more or less time from
    one minute to the next.  Timed just before each set-up, this import
    drifts with it, and the ratio of the two stays steady."""
    proc = subprocess.run([sys.executable, "-c", REF_IMPORT], capture_output=True, text=True,
                          check=True, timeout=OP_TIMEOUT)
    return float(proc.stdout)


class HostSpeed:
    """How fast the host runs Python while the operations run.

    The host is shared.  Its speed flips between a fast and a slow state
    (the slow one about 1.5-2 times slower) many times a second, and the
    share of slow time changes from second to second and from minute to
    minute, so the same pass takes 10-40 % more or less time.  Every
    SAMPLE_EVERY seconds of this process's CPU time a signal handler times a
    fixed pure-Python kernel.  An operation's time over the mean kernel time
    sampled during and around it, times KERNEL_NOMINAL_S, is its time at the
    reference host's usual speed; the kernel costs about 0.5 % of the run.
    A CLI subprocess runs while this process sleeps, on either CPU, so it
    is read against the whole run's mean, which follows the slow drift."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(KERNEL_LOOPS):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Mean kernel time over samples [lo, hi), widened on both sides to
        at least NEAR_SAMPLES samples, over KERNEL_NOMINAL_S."""
        hi = len(self.samples) if hi is None else hi
        pad = max(0, (NEAR_SAMPLES - (hi - lo) + 1) // 2)
        window = self.samples[max(0, lo - pad):hi + pad]
        return statistics.fmean(window) / KERNEL_NOMINAL_S if window else 1.0


def run_setup(workload: str, seed: int, workdir: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", workdir, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over a workload's operations and keeps what they took."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.speed = HostSpeed()

    def run_op(self, op) -> tuple[float, int, int]:
        """Run one operation under a timeout; returns its seconds and the
        range of host speed samples taken during it."""
        from workloads import CheckFailed

        self.attempted += 1
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            self.failures.append(f"{op.name}: exceeded (run time limit)")
            return 0.0, 0, 0
        timeout = min(OP_TIMEOUT, budget)
        err = None
        n0 = len(self.speed.samples)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            op.run(timeout)
        except (Exceeded, subprocess.TimeoutExpired):
            err = f"exceeded ({timeout:.0f} s)"
        except CheckFailed as e:
            err = f"check failed: {e}"
        except Exception as e:
            err = f"{type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        if err is not None:
            self.failures.append(f"{op.name}: {err}")
        return elapsed, n0, len(self.speed.samples)

    def run_pass(self, ops, tracer=None) -> dict:
        times = []
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            times.append(self.run_op(op))
        return {"wall": time.perf_counter() - t0, "times": [t[0] for t in times],
                "samples": [t[1:] for t in times]}

    def run_passes(self, ops, seconds: float, tracer=None, on_pass=None,
                   min_passes: int = 1) -> list[dict]:
        """At least `min_passes` passes; another only while it is expected to
        end within `seconds` of the first pass's start."""
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass(ops, tracer))
            if on_pass is not None:
                on_pass()
            elapsed = time.perf_counter() - t0
            typical = statistics.median(p["wall"] for p in passes)
            if time.monotonic() + typical > self.deadline or (
                    len(passes) >= min_passes and elapsed + typical > seconds):
                return passes


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def phase_seconds(ops, passes, speed: HostSpeed | None) -> Counter:
    """Per phase, the sum of its operations' median times over the passes,
    each time divided by its host speed factor (none without `speed`).  Summing
    per-operation medians drops a slow spell that hits one operation in one
    pass, which a median of pass totals keeps when spells hit different
    passes."""

    def factor(op, samples):
        if speed is None:
            return 1.0
        return speed.factor() if op.phase == "cli" else speed.factor(*samples)

    out: Counter = Counter()
    for i, op in enumerate(ops):
        out[op.phase] += statistics.median(
            p["times"][i] / factor(op, p["samples"][i]) for p in passes)
    return out


def end_to_end(phases: Counter, setups) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] / s["ref_s"] for s in setups) * REF_NOMINAL_S,
        "wall_s": sum(phases.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced pass from its tracer summary."""
    self_s, total = s["self_s"], s["counts"]["*"]
    counts = s["counts"]
    saw_s = sum(self_s[n] for n in SAWTREE_SPANS)
    count_span = "counting.approx_partition"
    # Trees per draw of the batched sampler where the workload runs it (paper),
    # of the single-draw sampler otherwise (hard).
    draw_span = "counting.sample_many" if counts["counting.sample_many"]["draws"] \
        else "counting.approx_sample"
    exact_s = self_s["model.exact_partition"] + self_s["model.exact_region_law"]
    return {
        "model.exact_configs": total["configs"],
        "model.exact_ns_per_config": _ratio(exact_s, total["configs"]) * 1e9,
        "model.influence_calls": total["influence_calls"],
        "sawtree.trees": total["trees"],
        "sawtree.nodes": total["nodes"],
        "sawtree.build_s": self_s["sawtree.build_saw_tree"],
        "sawtree.eval_s": self_s["sawtree.root_marginal"],
        "sawtree.cert_s": self_s["sawtree.certified_truncation_error"]
        + self_s["sawtree.ssm_certificate"],
        "sawtree.us_per_node": _ratio(saw_s, total["nodes"]) * 1e6,
        "sawtree.count_share": _ratio(sum(s["within"][count_span][n] for n in SAWTREE_SPANS),
                                      s["total_s"][count_span]),
        "counting.self_s": sum(v for n, v in self_s.items() if n.startswith("counting.")),
        "counting.trees_per_step": _ratio(counts[count_span]["trees"], counts[count_span]["steps"]),
        "counting.trees_per_draw": _ratio(counts[draw_span]["trees"],
                                          counts[draw_span]["draws"]),
        "glauber.chain_steps": total["chain_steps"],
        "glauber.us_per_step": _ratio(self_s["glauber.run_chains"], total["chain_steps"]) * 1e6,
        "percolation.trials": total["trials"],
        "percolation.us_per_trial": _ratio(self_s["percolation.connection_probability"],
                                           total["trials"]) * 1e6,
    }


def import_seconds(repeats: int = 3) -> float:
    """`import rfim.cli` in a fresh interpreter, minus a bare start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def start(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=OP_TIMEOUT)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return start("import rfim.cli") - start("pass")


def traced_run(wl, runner, seconds, setup, load_s, workdir) -> dict:
    from tracing import RFIM_COUNTERS, RFIM_SPANS, Tracer
    from workloads import dispatch_primary

    ops = wl.ops()
    plain = runner.run_passes(ops, seconds / 2)
    tracer = Tracer()
    tracer.install(RFIM_SPANS, RFIM_COUNTERS)
    summaries = []

    def keep():
        summaries.append(tracer.summary())
        tracer.write(os.path.join(workdir, "trace.jsonl"))
        tracer.reset()

    try:
        traced = runner.run_passes(ops, seconds / 2, tracer, keep, min_passes=2)
        tracer.op = "dispatch"
        runner.run_op(wl.dispatch_op())
        dispatch = tracer.summary()
    finally:
        tracer.uninstall()

    per_pass = [layer_metrics(s) for s in summaries]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    counts = [{k: v for k, v in p.items() if k in DETERMINISTIC} for p in per_pass]
    runner.attempted += 1
    if len(counts) < 2 or any(c != counts[0] for c in counts):
        runner.failures.append(
            f"counts differ between traced passes (or fewer than two): {counts}")
    metrics.update(counts[0])
    primary = dispatch_primary(wl.manifest["workload"])
    metrics["cli.dispatch_ratio"] = _ratio(dispatch["total_s"]["cli.cli_dispatch"],
                                           dispatch["within"]["cli.cli_dispatch"][primary])
    metrics["randgen.gen_s"] = setup["gen_s"]
    metrics["randgen.peak_mb"] = setup["peak_mb"]
    metrics["graph.load_s"] = load_s
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_ratio"] = _ratio(median_of(traced, lambda p: p["wall"]),
                                             median_of(plain, lambda p: p["wall"]))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    print("counts per operation (one traced pass):")
    for op, c in summaries[0]["ops"].items():
        if c:
            print(f"  {op}: " + " ".join(f"{k}={v}" for k, v in sorted(c.items())))
    with open(os.path.join(workdir, "trace-summary.json"), "w") as f:
        json.dump({"metrics": metrics, "ops": summaries[0]["ops"],
                   "self_s": summaries[0]["self_s"], "calls": summaries[0]["calls"]},
                  f, indent=1, sort_keys=True)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rfim", "__init__.py")):
        print(f"perfbench: no rfim sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}")
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        ref_s = reference_import_seconds()
        setups.append(run_setup(args.workload, args.seed, workdir, args.trace))
        setups[-1]["ref_s"] = ref_s

    sys.path.insert(0, SRC)
    from workloads import Workload

    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    wl = Workload(workdir)
    load_s = time.perf_counter() - t0
    runner = Runner(deadline)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        metrics = traced_run(wl, runner, args.seconds, setups[0], load_s, workdir)
        units = PER_LAYER
    else:
        ops = wl.ops()
        runner.speed.start()
        try:
            passes = runner.run_passes(ops, args.seconds, min_passes=2)
        finally:
            runner.speed.stop()
        phases = phase_seconds(ops, passes, runner.speed)
        metrics = end_to_end(phases, setups)
        units = END_TO_END
        raw_wall = sum(phase_seconds(ops, passes, None).values())
        print(f"host speed factor {runner.speed.factor():.3f} "
              f"({len(runner.speed.samples)} samples); wall_s before it {raw_wall:.3f} s")
        print("raw seconds: passes " + " ".join(f"{p['wall']:.3f}" for p in passes)
              + "; set-ups " + " ".join(f"{s['setup_s']:.3f}" for s in setups)
              + "; reference imports " + " ".join(f"{s['ref_s']:.3f}" for s in setups))
        for phase, seconds in sorted(phases.items()):
            print(f"  {phase}_s {seconds:.6g} s")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    failed = len(runner.failures)
    print(f"  fail_frac {failed / max(runner.attempted, 1):.4g} ({failed}/{runner.attempted})")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
