"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 input error, 2 rejection by `check` (certified
error above eps, or its walks ran out of `counting.NODE_BUDGET` nodes), 3 no
mixing guarantee from `glauber`, 4 certified error too large (`count` cannot
certify its estimate at a forced `--depth`, or the tau schedule of `count`
or `sample` walked `counting.NODE_BUDGET` SAW-tree nodes without its
certified error fitting eps).

A forced `--depth` gives no eps guarantee: `count` and `sample` only report
their bound, and `count` exits 4 only once a step's error reaches 1/4.

Each `cmd_*` returns its output object and exit code.  `cli_dispatch` alone
attaches the run manifest, writes the JSON to stdout (and to `--out`) and
turns errors into exit codes, so every output embeds the manifest, the
exit-2 object of `check` and the exit-3 object of `glauber` included.
Re-running the same manifest reproduces the output byte for byte.
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
EXIT_ERROR_TOO_LARGE = 4


def _manifest(args) -> dict:
    """The run manifest: the parsed arguments, as the run used them."""
    params = {k: v for k, v in vars(args).items() if k not in ("fn", "out", "subcommand")}
    return {
        "subcommand": args.subcommand,
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
        raise ValueError(f"instance file not found: {path}")
    except (ValueError, KeyError) as e:
        raise ValueError(f"malformed instance {path}: {e}")


def _parse_depth(text: str | None):
    if text is None:
        return None
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--depth must be an integer or 'inf', got {text!r}")


def _finite(text: str) -> float:
    try:
        x = float(text)
        if math.isfinite(x):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def cmd_gen_graph(args) -> tuple[dict, int]:
    g = randgen.gen_er_graph(args.n, args.delta, args.seed)
    return graphmod.to_json_dict(g), EXIT_OK


def cmd_gen_fields(args) -> tuple[dict, int]:
    spec = randgen.FieldSpec(
        kind=args.kind, variance=args.variance, magnitude=args.magnitude
    )
    h = randgen.gen_fields(args.n, spec, args.seed)
    return randgen.fields_to_json_dict(h, spec, args.seed), EXIT_OK


def cmd_exact(args) -> tuple[dict, int]:
    inst = _load_instance(args.instance)
    return {"log_z": model.exact_partition(inst, max_free=args.max_free)}, EXIT_OK


def cmd_count(args) -> tuple[dict, int]:
    inst = _load_instance(args.instance)
    depth = _parse_depth(args.depth)
    res = counting.approx_partition(inst, args.eps, depth_override=depth)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {
        "format": "rfim-count-v1",
        "log_z": res.log_z_estimate,
        "certified_rel_err": res.total_certified_relative_error,
        "depth": -1 if res.depth_used is None else res.depth_used,
        "tau": res.tau,
        "accepted": bool(report.accepted),
        "per_vertex_err": res.per_vertex_certified_error,
    }
    return obj, EXIT_OK


def cmd_sample(args) -> tuple[dict, int]:
    inst = _load_instance(args.instance)
    depth = _parse_depth(args.depth)
    res = counting.approx_sample(inst, args.eps, args.seed, depth_override=depth)
    obj = {
        "config": [int(s) for s in res.config],
        "depth": -1 if res.depth_used is None else res.depth_used,
        "tau": res.tau,
        "tv_budget": float(sum(res.per_vertex_certified_error)),
    }
    return obj, EXIT_OK


def cmd_glauber(args) -> tuple[dict, int]:
    inst = _load_instance(args.instance)
    config = glauber.glauber_sample(inst, args.eps, args.seed)
    if config is None:
        return {"no_guarantee": True}, EXIT_NO_GUARANTEE
    return {"config": [int(s) for s in config]}, EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    inst = _load_instance(args.instance)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {
        "accepted": bool(report.accepted),
        "reason": report.reason,
        "influence_ok": report.influence_ok,
        "paths_ok": report.paths_ok,
        "rate": _json_num(report.rate),
        "h0": report.h0,
        "certified_rel_err": _json_num(report.certified_rel_err),
        "depth": report.depth,
        "tau": report.tau,
        "nodes": report.nodes,
    }
    return obj, EXIT_OK if report.accepted else EXIT_REJECTED


def _json_num(x):
    if x is None:
        return None
    return x if math.isfinite(x) else "inf"


def _config_int(cfg: dict, key: str, default: int, path: str) -> int:
    """cfg[key] (default when absent) as an int; integral floats count."""
    x = cfg.get(key, default)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"malformed perc config {path}: {key!r} must be an integer, got {x!r}")


def cmd_perc(args) -> tuple[dict, int]:
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {args.config}")
    except ValueError as e:
        raise ValueError(f"malformed JSON in {args.config}: {e}")
    if not isinstance(cfg, dict) or cfg.get("format") != "rfim-perc-v1":
        raise ValueError("expected format 'rfim-perc-v1'")
    try:
        inst_path = cfg["instance"]
        region = [int(v) for v in cfg["A"]]
        eta = {int(v): int(s) for v, s in cfg["eta"].items()}
        xi = {int(v): int(s) for v, s in cfg["xi"].items()}
    except KeyError as e:
        raise ValueError(f"{args.config} has no {e} entry")
    except (AttributeError, TypeError) as e:
        raise ValueError(f"malformed perc config {args.config}: {e}")
    base = os.path.dirname(args.config) or "."
    inst = _load_instance(os.path.join(base, inst_path))
    # the config's values override the flags, and the manifest records them
    args.trials = _config_int(cfg, "trials", args.trials, args.config)
    args.seed = _config_int(cfg, "seed", args.seed, args.config)
    report = percolation.tv_domination_check(inst, region, eta, xi, args.trials, args.seed)
    obj = {
        "tv_exact": report.tv_exact,
        "percolation": {
            "p_hat": report.percolation.p_hat,
            "low": report.percolation.low,
            "high": report.percolation.high,
            "trials": report.percolation.trials,
        },
        "holds": report.holds,
    }
    return obj, EXIT_OK


def cmd_grow(args) -> tuple[dict, int]:
    try:
        g = graphmod.load(args.graph)
    except FileNotFoundError:
        raise ValueError(f"graph file not found: {args.graph}")
    except ValueError as e:
        raise ValueError(f"malformed graph {args.graph}: {e}")
    if not 0 <= args.v < g.n:
        raise ValueError(f"--v {args.v} is not a vertex of the {g.n}-vertex graph")
    counts = randgen.neighborhood_growth(g, args.v, args.lmax, in_saw_tree=args.saw_tree)
    return {"counts": counts}, EXIT_OK


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
    p.add_argument("--h0", type=_finite, default=None)

    p = add("sample", cmd_sample)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", default=None)

    p = add("glauber", cmd_glauber)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = add("check", cmd_check)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--h0", type=_finite, default=None)

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
        obj, code = args.fn(args)
    except ValueError as e:  # input errors, model.EnumerationTooLarge included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except counting.CertifiedErrorTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR_TOO_LARGE
    obj["manifest"] = _manifest(args)
    _emit(obj, args.out)
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
