"""The operations of each workload and the checks on their outputs.

An operation runs one public rfim call (or one CLI subprocess) on the loaded
instances and raises `CheckFailed` when its output is wrong.  Every rfim call
goes through the module attribute (`counting.approx_partition`, ...) so that
the tracer's wrappers see it.

Checks, none looser than the test suite:
- every log Z lies within e_ref + e_new + 1e-9 of the reference recorded at
  the seed commit (the instances are relabellings of the reference ones, so
  the true log Z is the same), and every certified error is <= eps;
- the induced 12-vertex ball around the relabelled vertex 0 is counted
  within its certified error of `exact_partition` (criterion 9);
- check verdicts and depths equal the reference (they depend only on the
  graph up to isomorphism and on |h|);
- every sample and Glauber configuration is +-1, has n entries and respects
  the boundary; every `tv_budget` is <= eps;
- `tv_domination_check.holds` is true and `tv_exact` matches the reference to
  1e-9; the percolation estimate lies within 5 standard errors of the
  reference probability;
- CLI subcommands exit with their documented codes (`check` may reject with
  2, `glauber` may report no guarantee with 3) and print the same results.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rfim import cli, counting, glauber, model, percolation

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    phase: str  # count, check, sample, ball, glauber, perc, cli or dispatch
    run: Callable[[float], None]  # argument: timeout in seconds (CLI only)


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_log_z(log_z: float, err: float, ref: dict, eps: float) -> None:
    gap = abs(log_z - ref["log_z"])
    expect(gap <= ref["err"] + err + 1e-9,
           f"log Z {log_z!r} is {gap:.3g} from reference {ref['log_z']!r}")
    expect(err <= eps, f"certified error {err:.3g} > eps {eps}")


def check_config(config, inst) -> None:
    c = np.asarray(config)
    expect(c.shape == (inst.graph.n,), f"configuration shape {c.shape}")
    expect(bool(np.all(np.abs(c) == 1)), "configuration has a spin other than +-1")
    for v, s in inst.boundary.items():
        expect(c[v] == s, f"configuration disagrees with the boundary at {v}")


class Workload:
    """Loaded instances and manifest of one generated workload directory."""

    def __init__(self, workdir: str):
        self.dir = workdir
        with open(os.path.join(workdir, "workload.json")) as f:
            self.manifest = json.load(f)
        with open(REFERENCE) as f:
            self.ref = json.load(f)[self.manifest["workload"]]
        self.inst = {name: model.load(self.path(name)) for name in self.manifest["files"]}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, self.manifest["files"][name])

    def ops(self) -> list[Op]:
        """The operations of one pass of the workload."""
        return self._mc_ops() if self.manifest["workload"] == "mc" else self._saw_ops()

    def dispatch_op(self) -> Op:
        """`rfim count` (`rfim glauber` on mc) dispatched in-process; traced
        once, its span over the library call's gives `cli.dispatch_ratio`."""
        return Op("dispatch", "dispatch", self._dispatch)

    # -- paper and hard ----------------------------------------------------

    def _saw_ops(self) -> list[Op]:
        m = self.manifest
        eps = m["eps"]
        ops = []
        for spec in m["instances"]:
            name, ref = spec["name"], self.ref[spec["ref"]]
            inst = self.inst[name]
            ops += [
                Op(f"check[{name}]", "check", lambda t, i=inst, r=ref: self._check(i, r, eps)),
                Op(f"count[{name}]", "count", lambda t, i=inst, r=ref: self._count(i, r, eps)),
                Op(f"ball[{name}]", "ball", lambda t, i=self.inst[name + "-ball"]: self._ball(i, eps)),
            ]
            if m["workload"] == "paper" or spec is m["instances"][0]:
                ops.append(Op(f"sample[{name}]", "sample",
                              lambda t, i=inst, s=spec["sample_seed"]: self._sample(i, eps, s)))
        first = m["instances"][0]["name"]
        inst0, ref0 = self.inst[first], self.ref[m["instances"][0]["ref"]]
        if m["draws"]:
            ops.append(Op(f"sample_many[{first}]", "sample", lambda t: self._sample_many(inst0, eps)))
        path = self.path(first)
        seed = str(m["cli_seed"])
        # On hard, `rfim count` (which also runs the check) alone keeps a pass
        # (11-15 s, about half of it the one `approx_sample`) short enough for
        # two passes in a 30 s run.
        cmds = [["count", "--instance", path, "--eps", str(eps)]]
        if m["workload"] == "paper":
            cmds += [["check", "--instance", path, "--eps", str(eps)],
                     ["sample", "--instance", path, "--eps", str(eps), "--seed", seed],
                     ["glauber", "--instance", path, "--eps", str(eps), "--seed", seed]]
        for argv in cmds:
            ops.append(Op(f"cli_{argv[0]}[{first}]", "cli",
                          lambda t, a=argv: self._cli_saw(a, inst0, ref0, eps, t)))
        return ops

    def _check(self, inst, ref, eps):
        rep = counting.check_instance(inst, eps)
        expect(rep.accepted == ref["accepted"] and rep.depth == ref["depth"],
               f"check gave accepted={rep.accepted} depth={rep.depth}, reference "
               f"accepted={ref['accepted']} depth={ref['depth']}")

    def _count(self, inst, ref, eps):
        res = counting.approx_partition(inst, eps)
        check_log_z(res.log_z_estimate, res.total_certified_relative_error, ref, eps)

    def _ball(self, inst, eps):
        res = counting.approx_partition(inst, eps)
        exact = model.exact_partition(inst)
        gap = abs(res.log_z_estimate - exact)
        expect(gap <= res.total_certified_relative_error + 1e-9,
               f"ball log Z off by {gap:.3g} > certified {res.total_certified_relative_error:.3g}")

    def _sample(self, inst, eps, seed):
        res = counting.approx_sample(inst, eps, seed)
        check_config(res.config, inst)
        budget = float(sum(res.per_vertex_certified_error))
        expect(budget <= eps, f"tv_budget {budget:.3g} > eps {eps}")

    def _sample_many(self, inst, eps):
        m = self.manifest
        out = counting.sample_many(inst, eps, m["sample_many_seed"], m["draws"])
        expect(out.shape == (m["draws"], inst.graph.n), f"sample_many shape {out.shape}")
        for row in out:
            check_config(row, inst)

    def _cli_saw(self, argv, inst, ref, eps, timeout):
        code, out = run_cli(argv, timeout)
        sub = argv[0]
        if sub == "count":
            expect(code == 0, f"count exited {code}")
            check_log_z(out["log_z"], out["certified_rel_err"], ref, eps)
            expect(out["accepted"] == ref["accepted"], "count: accepted differs from reference")
        elif sub == "check":
            expect(code == (0 if ref["accepted"] else 2), f"check exited {code}")
            expect(out["accepted"] == ref["accepted"], "check: accepted differs from reference")
        elif sub == "sample":
            expect(code == 0, f"sample exited {code}")
            check_config(out["config"], inst)
            expect(out["tv_budget"] <= eps, f"tv_budget {out['tv_budget']:.3g} > eps {eps}")
        else:
            expect(code in (0, 3), f"glauber exited {code}")
            if code == 0:
                check_config(out["config"], inst)
            else:
                expect(out.get("no_guarantee") is True, "glauber exit 3 without no_guarantee")

    # -- mc ----------------------------------------------------------------

    def _mc_ops(self) -> list[Op]:
        m = self.manifest
        ops = [
            Op("glauber_sample", "glauber", lambda t: self._glauber_sample()),
            Op("run_chains", "glauber", lambda t: self._run_chains()),
            Op("connection_probability", "perc", lambda t: self._connection()),
            Op("tv_domination_check", "perc", lambda t: self._tv()),
        ]
        g = m["glauber"]
        argv = ["glauber", "--instance", self.path("glauber"), "--eps", str(g["eps"]),
                "--seed", str(m["cli_seed"])]
        ops.append(Op("cli_glauber", "cli", lambda t: self._cli_glauber(argv, t)))
        argv2 = ["perc", "--config", os.path.join(self.dir, "tv-perc.json")]
        ops.append(Op("cli_perc", "cli", lambda t: self._cli_perc(argv2, t)))
        return ops

    def _glauber_sample(self):
        g = self.manifest["glauber"]
        inst = self.inst["glauber"]
        config = glauber.glauber_sample(inst, g["eps"], g["seed"])
        expect(config is not None, "glauber_sample found no mixing guarantee")
        check_config(config, inst)

    def _run_chains(self):
        g = self.manifest["glauber"]
        inst = self.inst["glauber"]
        out = glauber.run_chains(inst, g["chain_steps"], g["chains"], g["chain_seed"])
        expect(out.shape == (g["chains"], inst.graph.n), f"run_chains shape {out.shape}")
        for row in out:
            check_config(row, inst)

    def _connection(self):
        p = self.manifest["perc"]
        inst = self.inst["perc"]
        b = p["source"]
        spec = percolation.domination_spec(inst, {b: 1}, {b: -1})
        est = percolation.connection_probability(spec, p["targets"], p["trials"], p["seed"])
        ref = self.ref["p_connect"]
        tol = 5.0 * math.sqrt(ref * (1.0 - ref) / p["trials"])
        expect(est.trials == p["trials"] and est.low <= est.p_hat <= est.high,
               "malformed percolation estimate")
        expect(abs(est.p_hat - ref) <= tol,
               f"connection probability {est.p_hat} differs from reference {ref} by more than {tol:.3g}")

    def _tv(self):
        t = self.manifest["tv"]
        b = t["boundary"]
        rep = percolation.tv_domination_check(
            self.inst["tv"], t["region"], {b: 1}, {b: -1}, t["trials"], t["seed"])
        self._check_tv(rep.tv_exact, rep.holds)

    def _check_tv(self, tv_exact, holds):
        expect(holds is True, "tv_domination_check does not hold")
        gap = abs(tv_exact - self.ref["tv_exact"])
        expect(gap <= 1e-9, f"tv_exact {tv_exact!r} is {gap:.3g} from the reference")

    def _cli_glauber(self, argv, timeout):
        code, out = run_cli(argv, timeout)
        expect(code == 0, f"glauber exited {code}")
        check_config(out["config"], self.inst["glauber"])

    def _cli_perc(self, argv, timeout):
        code, out = run_cli(argv, timeout)
        expect(code == 0, f"perc exited {code}")
        self._check_tv(out["tv_exact"], out["holds"])

    def _dispatch(self, timeout):
        m = self.manifest
        if m["workload"] == "mc":
            argv = ["glauber", "--instance", self.path("glauber"),
                    "--eps", str(m["glauber"]["eps"]), "--seed", str(m["cli_seed"])]
        else:
            argv = ["count", "--instance", self.path(m["instances"][0]["name"]),
                    "--eps", str(m["eps"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.cli_dispatch(argv)
        expect(code == 0, f"in-process {argv[0]} returned {code}")
        json.loads(buf.getvalue())


def run_cli(argv: list[str], timeout: float) -> tuple[int, dict]:
    """Run `python -m rfim.cli ARGV` on the benchmark's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "rfim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)
    try:
        return proc.returncode, json.loads(proc.stdout)
    except ValueError:
        raise CheckFailed(f"{argv[0]} exited {proc.returncode} without JSON: "
                          f"{proc.stderr.strip()[-300:]}")


def dispatch_primary(workload: str) -> str:
    """The library call that the traced in-process dispatch wraps."""
    return "glauber.glauber_sample" if workload == "mc" else "counting.approx_partition"
