"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 input error, 2 rejection by `check`, 3 no mixing
guarantee from `glauber`.  Every output embeds the run manifest; re-running
the same manifest reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from . import counting, glauber, graph as graphmod, model, percolation, randgen

FORMATS = [
    "rfim-graph-v1",
    "rfim-fields-v1",
    "rfim-instance-v1",
    "rfim-count-v1",
    "rfim-perc-v1",
]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2
EXIT_NO_GUARANTEE = 3


class InputError(Exception):
    pass


def _manifest(subcommand: str, params: dict) -> dict:
    return {
        "subcommand": subcommand,
        "params": {k: v for k, v in sorted(params.items()) if v is not None},
        "version": __version__,
        "formats": FORMATS,
    }


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    sys.stdout.write(text)


def _load_instance(path: str) -> model.IsingInstance:
    try:
        return model.load(path)
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}")
    except (ValueError, KeyError) as e:
        raise InputError(f"malformed instance {path}: {e}")


def _parse_depth(text: str | None):
    if text is None:
        return None
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--depth must be an integer or 'inf', got {text!r}")


def cmd_gen_graph(args) -> int:
    g = randgen.gen_er_graph(args.n, args.delta, args.seed)
    obj = graphmod.to_json_dict(g)
    obj["manifest"] = _manifest(
        "gen-graph", {"n": args.n, "delta": args.delta, "seed": args.seed}
    )
    _emit(obj, args.out)
    return EXIT_OK


def cmd_gen_fields(args) -> int:
    spec = randgen.FieldSpec(
        kind=args.kind, variance=args.variance, magnitude=args.magnitude
    )
    h = randgen.gen_fields(args.n, spec, args.seed)
    obj = randgen.fields_to_json_dict(h, spec, args.seed)
    obj["manifest"] = _manifest(
        "gen-fields",
        {
            "n": args.n,
            "kind": args.kind,
            "variance": args.variance,
            "magnitude": args.magnitude,
            "seed": args.seed,
        },
    )
    _emit(obj, args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    try:
        log_z = model.exact_partition(inst, max_free=args.max_free)
    except model.EnumerationTooLarge as e:
        raise InputError(str(e))
    obj = {
        "log_z": log_z,
        "manifest": _manifest(
            "exact", {"instance": args.instance, "max_free": args.max_free}
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    inst = _load_instance(args.instance)
    depth = _parse_depth(args.depth)
    res = counting.approx_partition(inst, args.eps, depth_override=depth, h0=args.h0)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {
        "format": "rfim-count-v1",
        "log_z": res.log_z_estimate,
        "certified_rel_err": res.total_certified_relative_error,
        "depth": -1 if res.depth_used is None else res.depth_used,
        "accepted": bool(report.accepted),
        "per_vertex_err": res.per_vertex_certified_error,
        "manifest": _manifest(
            "count",
            {
                "instance": args.instance,
                "eps": args.eps,
                "depth": args.depth,
                "h0": args.h0,
            },
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    inst = _load_instance(args.instance)
    depth = _parse_depth(args.depth)
    res = counting.approx_sample(
        inst, args.eps, args.seed, depth_override=depth, h0=args.h0
    )
    obj = {
        "config": [int(s) for s in res.config],
        "depth": -1 if res.depth_used is None else res.depth_used,
        "tv_budget": float(sum(res.per_vertex_certified_error)),
        "manifest": _manifest(
            "sample",
            {
                "instance": args.instance,
                "eps": args.eps,
                "seed": args.seed,
                "depth": args.depth,
                "h0": args.h0,
            },
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK


def cmd_glauber(args) -> int:
    inst = _load_instance(args.instance)
    config = glauber.glauber_sample(inst, args.eps, args.seed)
    manifest = _manifest(
        "glauber", {"instance": args.instance, "eps": args.eps, "seed": args.seed}
    )
    if config is None:
        _emit({"no_guarantee": True, "manifest": manifest}, args.out)
        return EXIT_NO_GUARANTEE
    _emit({"config": [int(s) for s in config], "manifest": manifest}, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {
        "accepted": bool(report.accepted),
        "reason": report.reason,
        "influence_ok": report.influence_ok,
        "paths_ok": report.paths_ok,
        "rate": report.rate,
        "h0": report.h0,
        "certified_rel_err": _json_num(report.certified_rel_err),
        "depth": report.depth,
        "manifest": _manifest(
            "check", {"instance": args.instance, "eps": args.eps, "h0": args.h0}
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK if report.accepted else EXIT_REJECTED


def _json_num(x):
    if x is None:
        return None
    return x if math.isfinite(x) else "inf"


def cmd_perc(args) -> int:
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise InputError(f"config file not found: {args.config}")
    except ValueError as e:
        raise InputError(f"malformed JSON in {args.config}: {e}")
    if cfg.get("format") != "rfim-perc-v1":
        raise InputError("expected format 'rfim-perc-v1'")
    base = os.path.dirname(args.config) or "."
    inst = _load_instance(os.path.join(base, cfg["instance"]))
    region = [int(v) for v in cfg["A"]]
    eta = {int(v): int(s) for v, s in cfg["eta"].items()}
    xi = {int(v): int(s) for v, s in cfg["xi"].items()}
    trials = int(cfg.get("trials", args.trials))
    seed = int(cfg.get("seed", args.seed))
    report = percolation.tv_domination_check(inst, region, eta, xi, trials, seed)
    obj = {
        "tv_exact": report.tv_exact,
        "percolation": {
            "p_hat": report.percolation.p_hat,
            "low": report.percolation.low,
            "high": report.percolation.high,
            "trials": report.percolation.trials,
        },
        "holds": report.holds,
        "manifest": _manifest(
            "perc", {"config": args.config, "trials": trials, "seed": seed}
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK


def cmd_grow(args) -> int:
    try:
        g = graphmod.load(args.graph)
    except FileNotFoundError:
        raise InputError(f"graph file not found: {args.graph}")
    except ValueError as e:
        raise InputError(f"malformed graph {args.graph}: {e}")
    counts = randgen.neighborhood_growth(g, args.v, args.lmax, in_saw_tree=args.saw_tree)
    obj = {
        "counts": counts,
        "manifest": _manifest(
            "grow",
            {"graph": args.graph, "v": args.v, "lmax": args.lmax, "saw_tree": args.saw_tree},
        ),
    }
    _emit(obj, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rfim")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None)
        return p

    p = add("gen-graph", cmd_gen_graph)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("gen-fields", cmd_gen_fields)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["gaussian", "two_point"], default="gaussian")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("exact", cmd_exact)
    p.add_argument("--instance", required=True)
    p.add_argument("--max-free", type=int, default=model.DEFAULT_ENUMERATION_CAP)

    p = add("count", cmd_count)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--depth", default=None)
    p.add_argument("--h0", type=float, default=None)

    p = add("sample", cmd_sample)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", default=None)
    p.add_argument("--h0", type=float, default=None)

    p = add("glauber", cmd_glauber)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = add("check", cmd_check)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--h0", type=float, default=None)

    p = add("perc", cmd_perc)
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = add("grow", cmd_grow)
    p.add_argument("--graph", required=True)
    p.add_argument("--v", type=int, default=0)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--saw-tree", action="store_true")

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, model.EnumerationTooLarge, counting.CertifiedErrorTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
