"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 input error (a bad argument, or a malformed, missing
or unreadable file, `--out` included), 2 rejection by `check` (certified error
above eps, or its walks ran out of `sawtree.NODE_BUDGET` nodes), 3 no mixing
guarantee from `glauber` (the chain does not contract, or its certified step
count is above `glauber.STEP_BUDGET`), 4 `counting.CertifiedErrorTooLarge`
(a `count` step's error reaches 1/4 at a forced `--depth`) or
`sawtree.NodeBudgetExhausted` (any spent budget of `sawtree.NODE_BUDGET`
SAW-tree nodes, in `count`, `sample` or `grow --saw-tree`; the message
names the walk's vertex, and its tau when it prunes).  A forced `--depth`
gives no eps guarantee: `count` and `sample` only report their bound, `tau`
null and `depth` the forced one; otherwise `tau` is the smallest tau a step
walked at.

Each run parameter has one source.  `exact` caps at
`model.ENUMERATION_CAP` free vertices, which no option lifts; `perc` reads
its trials and seed from its config alone (defaults 10000 and 0), so its
manifest records the config path and nothing else.

Each `cmd_*` reads its files through `_read` and returns its output object
and exit code.  `cli_dispatch` alone attaches the run manifest, writes the
JSON to `--out` and stdout, and turns errors into exit codes (an OSError
names the file that failed), so every output embeds the manifest, the
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
# every subcommand needs graph and model; each cmd_* imports its own layer
# itself, so a run loads only that layer: only grow, gen-graph and
# gen-fields load numpy (randgen imports it), none loads scipy, and glauber,
# gen-graph and gen-fields load no SAW layer
from . import graph as graphmod, model

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


def _read(what: str, path: str, parse):
    """parse(path); a malformed file raises one ValueError naming it."""
    try:
        return parse(path)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed {what} {path}: {e}")


def _parse_depth(text: str | None):
    if text is None:
        return None
    if text == "inf":
        return math.inf
    if not text.isdecimal():
        raise ValueError(f"--depth must be a non-negative integer or 'inf', got {text!r}")
    return int(text)


def _h0(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0.0 <= x < math.inf:
        raise argparse.ArgumentTypeError(f"must be a non-negative finite number, got {text!r}")
    return x


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def cmd_gen_graph(args) -> tuple[dict, int]:
    from . import randgen

    g = randgen.gen_er_graph(args.n, args.delta, args.seed)
    return graphmod.to_json_dict(g), EXIT_OK


def cmd_gen_fields(args) -> tuple[dict, int]:
    from . import randgen

    # the kind's own option defaults to 1.0 and the other one is an error,
    # so the manifest records only what the run used
    used, unused = (("variance", "magnitude") if args.kind == "gaussian"
                    else ("magnitude", "variance"))
    if getattr(args, unused) is not None:
        raise ValueError(f"--{unused} does not apply to --kind {args.kind}")
    if getattr(args, used) is None:
        setattr(args, used, 1.0)
    spec = randgen.FieldSpec(args.kind, **{used: getattr(args, used)})
    h = randgen.gen_fields(args.n, spec, args.seed)
    return randgen.fields_to_json_dict(h, spec, args.seed), EXIT_OK


def cmd_exact(args) -> tuple[dict, int]:
    inst = _read("instance", args.instance, model.load)
    return {"log_z": model.exact_partition(inst)}, EXIT_OK


def cmd_count(args) -> tuple[dict, int]:
    from . import counting

    inst = _read("instance", args.instance, model.load)
    depth = _parse_depth(args.depth)
    res = counting.approx_partition(inst, args.eps, depth_override=depth)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {
        "format": "rfim-count-v1",
        "log_z": res.log_z_estimate,
        "certified_rel_err": res.total_certified_relative_error,
        "depth": -1 if res.depth_used is None else res.depth_used,
        "tau": res.tau,
        "accepted": report.accepted,
        "per_vertex_err": res.per_vertex_certified_error,
    }
    return obj, EXIT_OK


def cmd_sample(args) -> tuple[dict, int]:
    from . import counting

    inst = _read("instance", args.instance, model.load)
    depth = _parse_depth(args.depth)
    res = counting.approx_sample(inst, args.eps, args.seed, depth_override=depth)
    obj = {
        "config": res.config,
        "depth": -1 if res.depth_used is None else res.depth_used,
        "tau": res.tau,
        "tv_budget": math.fsum(res.per_vertex_certified_error),
    }
    return obj, EXIT_OK


def cmd_glauber(args) -> tuple[dict, int]:
    from . import glauber

    inst = _read("instance", args.instance, model.load)
    config = glauber.glauber_sample(inst, args.eps, args.seed)
    if config is None:
        return {"no_guarantee": True}, EXIT_NO_GUARANTEE
    return {"config": config}, EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    from . import counting

    inst = _read("instance", args.instance, model.load)
    report = counting.check_instance(inst, args.eps, h0=args.h0)
    obj = {k: "inf" if isinstance(x, float) and not math.isfinite(x) else x
           for k, x in report._asdict().items()}
    return obj, EXIT_OK if report.accepted else EXIT_REJECTED


def _config_int(cfg: dict, key: str, default: int) -> int:
    """cfg[key] (default when absent) as an int >= 0; integral floats count."""
    if key not in cfg:
        return default
    x = cfg[key]
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if not graphmod.is_int(x) or x < 0:
        raise ValueError(f"{key!r} must be a non-negative integer, got {x!r}")
    return x


def cmd_perc(args) -> tuple[dict, int]:
    from . import percolation

    def parse(path):
        with open(path) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict) or cfg.get("format") != "rfim-perc-v1":
            raise ValueError("expected format 'rfim-perc-v1'")
        trials = _config_int(cfg, "trials", 10000)
        seed = _config_int(cfg, "seed", 0)
        region = cfg["A"]
        eta, xi = ({model.vertex_key(v): s for v, s in cfg[k].items()} for k in ("eta", "xi"))
        if not all(map(graphmod.is_int, [*region, *eta.values(), *xi.values()])):
            raise ValueError("'A' and the 'eta' and 'xi' spins must be integers")
        inst_path = os.path.join(os.path.dirname(path) or ".", cfg["instance"])
        return inst_path, region, eta, xi, trials, seed

    inst_path, region, eta, xi, trials, seed = _read("perc config", args.config, parse)
    inst = _read("instance", inst_path, model.load)
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
    }
    return obj, EXIT_OK


def cmd_grow(args) -> tuple[dict, int]:
    from . import randgen

    g = _read("graph", args.graph, graphmod.load)
    counts = randgen.neighborhood_growth(g, args.v, args.lmax, in_saw_tree=args.saw_tree)
    return {"counts": counts}, EXIT_OK


_INSTANCE = ("--instance", {"required": True})
_EPS = ("--eps", {"type": float, "default": 0.1})
_SEED = ("--seed", {"type": _seed, "default": 0})
_DEPTH = ("--depth", {"default": None})
_H0 = ("--h0", {"type": _h0, "default": None})

#: Every subcommand, in help order: name -> (handler, its options after
#: `--out`, each a flag and its `add_argument` keywords).
SUBCOMMANDS = {
    "gen-graph": (cmd_gen_graph, [("--n", {"type": int, "required": True}),
                                  ("--delta", {"type": float, "required": True}), _SEED]),
    "gen-fields": (cmd_gen_fields, [
        ("--n", {"type": int, "required": True}),
        ("--kind", {"choices": ["gaussian", "two_point"], "default": "gaussian"}),
        ("--variance", {"type": float, "default": None}),
        ("--magnitude", {"type": float, "default": None}), _SEED]),
    "exact": (cmd_exact, [_INSTANCE]),
    "count": (cmd_count, [_INSTANCE, _EPS, _DEPTH, _H0]),
    "sample": (cmd_sample, [_INSTANCE, _EPS, _SEED, _DEPTH]),
    "glauber": (cmd_glauber, [_INSTANCE, _EPS, _SEED]),
    "check": (cmd_check, [_INSTANCE, _EPS, _H0]),
    "perc": (cmd_perc, [("--config", {"required": True})]),
    "grow": (cmd_grow, [("--graph", {"required": True}), ("--v", {"type": int, "default": 0}),
                        ("--lmax", {"type": int, "required": True}),
                        ("--saw-tree", {"action": "store_true"})]),
}


def _add_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    fn, options = SUBCOMMANDS[name]
    p.set_defaults(fn=fn)
    p.add_argument("--out", default=None)
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, which `rfim -h` prints."""
    parser = argparse.ArgumentParser(prog="rfim")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        _add_options(sub.add_parser(name), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, from the invoked subcommand's
    parser alone (same prog, so the same help and errors) unless argv has
    no subcommand first or leaves arguments over."""
    if argv and argv[0] in SUBCOMMANDS:
        p = _add_options(argparse.ArgumentParser(prog=f"rfim {argv[0]}"), argv[0])
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.subcommand = argv[0]
            return args
    return build_parser().parse_args(argv)


def cli_dispatch(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        obj, code = args.fn(args)
        obj["manifest"] = _manifest(args)
        _emit(obj, args.out)
    except (ValueError, OSError) as e:  # bad input or files; EnumerationTooLarge included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except model.CertificationFailed as e:  # CertifiedErrorTooLarge, NodeBudgetExhausted
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR_TOO_LARGE
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
