import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfim import graph as G
from rfim import model as M
from rfim.graph import Graph
from rfim.model import IsingInstance, exact_partition


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rfim.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def triangle_instance(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = IsingInstance(g, 0.8, np.array([0.4, -0.2, 0.3]))
    path = tmp_path / "inst.json"
    M.save(inst, str(path))
    return inst, str(path)


def test_gen_graph_round_trip(tmp_path):
    out = tmp_path / "g.json"
    res = run_cli("gen-graph", "--n", "12", "--delta", "3", "--seed", "5", "--out", str(out))
    assert res.returncode == 0
    g = G.load(str(out))
    from rfim.randgen import gen_er_graph

    assert g == gen_er_graph(12, 3.0, 5)
    stdout_obj = json.loads(res.stdout)
    assert stdout_obj["edges"] == [list(e) for e in g.edges()]
    assert stdout_obj["manifest"]["subcommand"] == "gen-graph"


def test_exact_matches_oracle(triangle_instance):
    inst, path = triangle_instance
    res = run_cli("exact", "--instance", path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["log_z"] == pytest.approx(
        exact_partition(inst), abs=1e-12
    )


def test_count_inf_depth_equals_exact(triangle_instance):
    inst, path = triangle_instance
    count = run_cli("count", "--instance", path, "--depth", "inf")
    exact = run_cli("exact", "--instance", path)
    assert count.returncode == 0
    a = json.loads(count.stdout)["log_z"]
    b = json.loads(exact.stdout)["log_z"]
    assert abs(a - b) <= 1e-9


def test_check_exit_codes(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    bad = tmp_path / "bad.json"
    M.save(IsingInstance(g, 2.0, np.zeros(4)), str(bad))
    res = run_cli("check", "--instance", str(bad))
    assert res.returncode == 2
    obj = json.loads(res.stdout)
    assert obj["accepted"] is False
    assert obj["reason"]

    good = tmp_path / "good.json"
    M.save(IsingInstance(g, 0.2, np.full(4, 8.0)), str(good))
    res = run_cli("check", "--instance", str(good))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["accepted"] is True
    # the output is the report, field for field
    del obj["manifest"]
    assert set(obj) == {"influence_ok", "paths_ok", "rate", "h0", "accepted", "reason",
                        "certified_rel_err", "depth", "tau", "nodes"}


def test_glauber_exit_codes(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    frozen = tmp_path / "frozen.json"
    M.save(IsingInstance(g, 2.0, np.full(4, 0.01)), str(frozen))
    res = run_cli("glauber", "--instance", str(frozen), "--seed", "1")
    assert res.returncode == 3
    assert json.loads(res.stdout)["no_guarantee"] is True

    warm = tmp_path / "warm.json"
    M.save(IsingInstance(g, 0.1, np.full(4, 3.0)), str(warm))
    res = run_cli("glauber", "--instance", str(warm), "--seed", "1")
    assert res.returncode == 0
    config = json.loads(res.stdout)["config"]
    assert len(config) == 4 and set(config) <= {-1, 1}

    # eps is checked before an all-fixed instance returns its configuration
    fixed = tmp_path / "fixed.json"
    M.save(IsingInstance(g, 0.5, np.zeros(4), {0: 1, 1: -1, 2: 1, 3: 1}), str(fixed))
    res = run_cli("glauber", "--instance", str(fixed))
    assert json.loads(res.stdout)["config"] == [1, -1, 1, 1]
    res = run_cli("glauber", "--instance", str(fixed), "--eps", "5")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "error: eps must lie in (0,1)\n"


# runs `rfim <argv>` and writes the imported module names to stderr at exit
MODULES_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))
sys.argv = ["rfim", *sys.argv[1:]]
runpy.run_module("rfim.cli", run_name="__main__")
"""


@pytest.fixture(scope="module")
def subcommand_modules(tmp_path_factory):
    """(argv, output, module names loaded) of a successful run of every
    subcommand, grow with and without --saw-tree."""
    tmp_path = tmp_path_factory.mktemp("subcommands")
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    path = tmp_path / "warm.json"
    M.save(IsingInstance(g, 0.1, np.array([3.0, -2.5, 4.0, 3.5])), str(path))
    G.save(g, str(tmp_path / "g.json"))
    M.save(IsingInstance(g, 0.5, np.zeros(4), {0: 1}), str(tmp_path / "bc.json"))
    (tmp_path / "perc.json").write_text(json.dumps(
        {"format": "rfim-perc-v1", "instance": "bc.json", "A": [3], "eta": {"0": 1},
         "xi": {"0": -1}, "trials": 200}))
    runs = [(sub, "--instance", str(path)) for sub in ("count", "check", "sample", "glauber", "exact")]
    runs += [("perc", "--config", str(tmp_path / "perc.json")),
             ("grow", "--graph", str(tmp_path / "g.json"), "--lmax", "2"),
             ("grow", "--graph", str(tmp_path / "g.json"), "--lmax", "2", "--saw-tree"),
             ("gen-graph", "--n", "10", "--delta", "2"),
             ("gen-fields", "--n", "5")]
    out = []
    for argv in runs:
        res = subprocess.run(
            [sys.executable, "-c", MODULES_AT_EXIT, *argv],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        obj = json.loads(res.stdout)
        assert obj["manifest"]["subcommand"] == argv[0]
        out.append((argv, obj, ast.literal_eval(res.stderr.splitlines()[-1])))
    return out


def test_saw_and_glauber_subcommands_do_not_import_scipy(subcommand_modules):
    # no subcommand loads scipy (randgen's ndtri is pure Python), and only
    # grow, gen-graph and gen-fields (randgen's generator) load numpy: exact
    # and perc enumerate in pure Python, and the warm instance has a mixing
    # guarantee, so glauber runs a chain.  Only count, check and sample load
    # the counting layer, glauber, gen-graph and gen-fields load no SAW layer,
    # and none of count, check, sample and glauber loads dataclasses or inspect
    for argv, obj, modules in subcommand_modules:
        sub = argv[0]
        assert ("rfim.counting" in modules) == (sub in ("count", "check", "sample")), sub
        assert ("numpy" in modules) == (sub in ("grow", "gen-graph", "gen-fields")), sub
        if sub in ("count", "check", "sample", "glauber"):
            assert "dataclasses" not in modules and "inspect" not in modules, sub
        if sub in ("glauber", "gen-graph", "gen-fields"):
            assert "rfim.sawtree" not in modules, sub
        if sub == "glauber":
            assert len(obj["config"]) == 4
        assert [m for m in modules if m.startswith("scipy")] == [], sub


def test_subcommands_load_only_the_kernels_they_run(subcommand_modules):
    # the walk-based subcommands load neither the in-memory SAW tree nor the
    # exact kernel, exact and perc load the kernel, and no subcommand loads
    # the tree, which only the tests use
    for argv, _, modules in subcommand_modules:
        sub = argv[0]
        assert "rfim.sawtree_oracle" not in modules, argv
        if sub in ("count", "check", "sample", "glauber"):
            assert "rfim.elimination" not in modules, sub
        if sub in ("exact", "perc"):
            assert "rfim.elimination" in modules, sub


def test_glauber_without_guarantee_loads_no_numpy(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    path = tmp_path / "frozen.json"
    M.save(IsingInstance(g, 2.0, np.full(4, 0.01)), str(path))
    res = subprocess.run(
        [sys.executable, "-c", MODULES_AT_EXIT, "glauber", "--instance", str(path)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 3, res.stderr
    assert json.loads(res.stdout)["no_guarantee"] is True
    modules = ast.literal_eval(res.stderr.splitlines()[-1])
    assert "rfim.glauber" in modules
    assert [m for m in modules if m.startswith(("numpy", "scipy"))] == []
    for name in ("rfim.counting", "rfim.sawtree", "dataclasses", "inspect"):
        assert name not in modules, name


def test_rfim_imports_no_dataclasses():
    # nor scipy: expit and ndtri are pure-Python ports
    banned = {"dataclasses", "scipy"}
    src = Path(__file__).resolve().parents[1] / "src" / "rfim"
    paths = sorted(src.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in banned for n in names), path.name


def _relative_imports(tree: ast.AST) -> set[str]:
    """The modules a parsed rfim module imports relatively, at module level
    or inside functions, outside `if TYPE_CHECKING:` blocks."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


def rfim_import_graph(src: Path) -> dict[str, set[str]]:
    """Each module of the package at `src` -> the package modules it imports."""
    imports = {p.stem: _relative_imports(ast.parse(p.read_text())) for p in src.glob("*.py")}
    return {m: names & imports.keys() for m, names in imports.items()}


def test_rfim_imports_are_acyclic():
    import graphlib

    graph = rfim_import_graph(Path(__file__).resolve().parents[1] / "src" / "rfim")
    assert {"cli", "model", "elimination", "counting", "sawtree_oracle"} <= graph.keys()
    assert "counting" in graph["cli"] and "elimination" in graph["model"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as e:
        pytest.fail(f"import cycle {' -> '.join(e.args[1])}")


def unread_parameters(src: Path) -> list[str]:
    """`module.[Class.]function(parameter)` for every parameter of a function
    or lambda in `src/*.py` that its body never reads; a method's `self` is
    not counted."""
    found = []
    for path in sorted(src.glob("*.py")):
        for parent in ast.walk(ast.parse(path.read_text())):
            owner = parent.name + "." if isinstance(parent, ast.ClassDef) else ""
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    continue
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for b in body for n in ast.walk(b)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                name = f"{path.stem}.{owner}{getattr(node, 'name', '<lambda>')}"
                found += [f"{name}({p.arg})" for p in params
                          if p.arg not in read and not (owner and p.arg == "self")]
    return found


def test_no_parameter_is_ignored():
    found = unread_parameters(Path(__file__).resolve().parents[1] / "src" / "rfim")
    # Frozen.__setattr__ rejects every assignment, whatever its value
    assert found == ["model.Frozen.__setattr__(value)"]


def bool_tests(src: Path) -> set[str]:
    """`module.function` (or `module.<module>`) of every `isinstance(x, bool)`,
    or `isinstance` with bool in a tuple, in `src/*.py`."""
    found = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))):
                continue
            while not isinstance(node, (ast.FunctionDef, ast.Module)):
                node = parent[node]
            found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def test_each_number_rule_has_one_home():
    # graph.whole decides what an integer argument is, model.finite what a
    # real one is; nothing else asks for __index__ or rules out a bool
    src = Path(__file__).resolve().parents[1] / "src" / "rfim"
    assert sorted(p.stem for p in src.glob("*.py") if "__index__" in p.read_text()) == ["graph"]
    assert bool_tests(src) == {"graph.whole", "model.finite"}


def test_import_cli_loads_no_numpy():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, rfim.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_count_error_too_large_exits_four(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "hot.json"
    M.save(IsingInstance(g, 2.0, np.zeros(3)), str(path))
    res = run_cli("count", "--instance", str(path), "--depth", "1")
    assert res.returncode == 4
    assert res.stdout == "" and "certified" in res.stderr


@pytest.mark.parametrize("argv", [
    ["count", "--depth", "inf"],
    ["sample", "--depth", "inf"],
    ["grow", "--lmax", "3", "--saw-tree"],
])
def test_spent_node_budget_exits_four(triangle_instance, tmp_path, monkeypatch, capsys, argv):
    from rfim import sawtree
    from rfim.cli import cli_dispatch

    inst, path = triangle_instance
    gpath = tmp_path / "g.json"
    G.save(inst.graph, str(gpath))
    # each walk of the triangle's tree expands past 3 nodes
    monkeypatch.setattr(sawtree, "NODE_BUDGET", 3)
    argv = [*argv, "--graph", str(gpath)] if argv[0] == "grow" else [*argv, "--instance", path]
    capsys.readouterr()
    assert cli_dispatch(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: node budget ran out after"), err


def test_one_subcommand_parser_matches_the_full_parser(capsys):
    # cli_dispatch builds only the invoked subcommand's parser; its help is
    # the full parser's help of that subcommand
    import argparse

    from rfim import cli

    for name in cli.SUBCOMMANDS:
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args([name, "-h"])
        assert info.value.code == 0
        full = capsys.readouterr().out
        assert full.startswith(f"usage: rfim {name} [-h] [--out OUT]"), full
        one = cli._add_options(argparse.ArgumentParser(prog=f"rfim {name}"), name)
        assert one.format_help() == full
        assert cli.cli_dispatch([name, "-h"]) == 0
        assert capsys.readouterr() == (full, "")


def test_a_run_builds_the_parser_of_its_subcommand_alone(monkeypatch, capsys):
    from rfim import cli

    added = []
    add = cli._add_options
    monkeypatch.setattr(cli, "_add_options", lambda p, name: added.append(name) or add(p, name))
    # leftover arguments fail in the same parser, with the full usage line
    assert cli.cli_dispatch(["count", "--instance", "x", "bogus"]) == 1
    assert added == ["count"]
    usage = cli.build_parser().format_usage()
    assert capsys.readouterr().err == usage + "rfim: error: unrecognized arguments: bogus\n"
    added.clear()
    assert cli.cli_dispatch(["-h"]) == 0
    assert added == list(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv, code, last", [
    ([], 1, "rfim: error: the following arguments are required: subcommand"),
    (["-h"], 0, None),
    (["bogus"], 1, "rfim: error: argument subcommand: invalid choice: 'bogus'"),
    (["count"], 1, "rfim count: error: the following arguments are required: --instance"),
    (["count", "--eps"], 1, "rfim count: error: argument --eps: expected one argument"),
    # leftover arguments are the full parser's error, not the subcommand's
    (["count", "--instance", "x", "bogus"], 1, "rfim: error: unrecognized arguments: bogus"),
])
def test_argument_errors_keep_their_exit_code_and_message(capsys, argv, code, last):
    from rfim import cli

    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert cli.cli_dispatch(argv) == code == (1 if info.value.code else 0)
    assert capsys.readouterr() == full
    if last is None:
        assert full.out.startswith("usage: rfim [-h]") and full.err == ""
    else:
        assert full.out == "" and full.err.splitlines()[-1].startswith(last), full.err


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("sub", ["gen-graph", "gen-fields"])
def test_generators_reject_n_below_one(sub, n):
    # gen-fields --n 0 used to print an empty field list, and --n -2 numpy's
    # "negative dimensions are not allowed"
    argv = [sub, "--n", n, *(["--delta", "2"] if sub == "gen-graph" else [])]
    res = run_cli(*argv)
    assert (res.returncode, res.stdout, res.stderr) == (
        1, "", f"error: n must be an integer >= 1, got {n}\n")


def test_input_errors_exit_one(tmp_path):
    assert run_cli("exact", "--instance", str(tmp_path / "missing.json")).returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("exact", "--instance", str(bad)).returncode == 1
    assert run_cli("no-such-command").returncode == 1


def test_non_finite_field_exits_one(triangle_instance, tmp_path):
    inst, _ = triangle_instance
    obj = M.to_json_dict(inst)
    obj["fields"][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # json writes the NaN token, and reads it back
    res = run_cli("count", "--instance", str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "finite" in res.stderr


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_check_infinite_rate_is_valid_json(tmp_path):
    # beta = 0 gives zero influence, so the certified rate is infinite
    g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    path = tmp_path / "free.json"
    M.save(IsingInstance(g, 0.0, np.linspace(-1, 1, 6)), str(path))
    res = run_cli("check", "--instance", str(path))
    assert res.returncode == 0
    obj = json.loads(res.stdout, parse_constant=_no_constant)
    assert obj["rate"] == "inf"


def test_non_finite_arguments_exit_one(triangle_instance):
    _, path = triangle_instance
    # a negative h0 is rejected too: the path rule would read it as given,
    # the influence condition as |h0|
    for sub in ("count", "check"):
        for h0 in ("nan", "inf", "-1", "-13.08"):
            res = run_cli(sub, "--instance", path, "--h0", h0)
            assert res.returncode == 1, (sub, h0)
            assert res.stdout == ""
            assert "error:" in res.stderr and "--h0" in res.stderr and "finite" in res.stderr
    # a negative --depth is an argument error, named as the flag
    for sub in ("count", "sample"):
        res = run_cli(sub, "--instance", path, "--depth", "-2")
        assert (res.returncode, res.stdout) == (1, ""), sub
        assert res.stderr == ("error: --depth must be a non-negative integer or 'inf', "
                              "got '-2'\n")
    # sample has no --h0: its steps do not read a field threshold
    res = run_cli("sample", "--instance", path, "--h0", "1")
    assert res.returncode == 1
    assert res.stdout == "" and "--h0" in res.stderr
    for args in (["--variance=nan"], ["--variance=inf"], ["--variance=-inf"],
                 ["--kind=two_point", "--magnitude=nan"], ["--variance=-1"],
                 ["--kind=two_point", "--magnitude=-1"]):
        res = run_cli("gen-fields", "--n", "4", *args)
        assert res.returncode == 1, args
        assert res.stdout == ""
        assert "error:" in res.stderr and "finite" in res.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("beta", None),
        ("beta", [1]),
        ("beta", 10**400),
        ("boundary", [1]),
        ("fields", {"0": 1.0, "1": 2.0, "2": 3.0}),
        ("fields", [None, 1.0, 2.0]),
        ("fields", [[1.0], [2.0], [3.0]]),
        ("fields", [True, 1.0, 2.0]),
        ("fields", [10**400, 1.0, 2.0]),
        ("fields", "1.0"),
        ("beta", "0.3"),
        ("beta", True),
        ("boundary", {"0": 1.5}),
        ("boundary", {"0": True}),
        ("boundary", {"0": "1"}),
        ("boundary", {"0": 1, "00": -1}),
        ("boundary", {" 1": 1}),
        ("boundary", {"+0": 1}),
    ],
)
def test_malformed_instance_gives_one_error_line(triangle_instance, tmp_path, key, value):
    inst, _ = triangle_instance
    obj = M.to_json_dict(inst)
    obj[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for sub in ("check", "count"):
        res = run_cli(sub, "--instance", str(path))
        assert res.returncode == 1, (sub, res.stderr)
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed instance"), res.stderr


def test_bad_vertex_and_config_give_one_error_line(tmp_path):
    g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    gpath = tmp_path / "g.json"
    G.save(g, str(gpath))
    M.save(IsingInstance(g, 1.0, np.zeros(6)), str(tmp_path / "inst.json"))
    no_eta = tmp_path / "no_eta.json"
    no_eta.write_text(json.dumps({"format": "rfim-perc-v1", "instance": "inst.json",
                                  "A": [5], "xi": {"0": -1}}))
    list_eta = tmp_path / "list_eta.json"
    list_eta.write_text(json.dumps({"format": "rfim-perc-v1", "instance": "inst.json",
                                    "A": [5], "eta": [1], "xi": {"0": -1}}))
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    for args in (
        ["grow", "--graph", str(gpath), "--v", "9", "--lmax", "3"],
        ["grow", "--graph", str(gpath), "--v", "9", "--lmax", "3", "--saw-tree"],
        ["grow", "--graph", str(gpath), "--v", "-1", "--lmax", "3", "--saw-tree"],
        ["perc", "--config", str(no_eta)],
        ["perc", "--config", str(list_eta)],
        ["perc", "--config", str(not_object)],
    ):
        res = run_cli(*args)
        assert res.returncode == 1, args
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


@pytest.mark.parametrize(
    "case", ["dir-count", "dir-check", "dir-grow", "dir-perc", "missing-graph", "out-nodir",
             "perc-instance-int"])
def test_unreadable_files_give_one_error_line(tmp_path, case):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    G.save(g, str(tmp_path / "g.json"))
    inst = tmp_path / "inst.json"
    M.save(IsingInstance(g, 1.0, np.zeros(4), {0: 1}), str(inst))
    graph_path = str(tmp_path / "missing-g.json")
    no_graph = tmp_path / "no_graph.json"
    no_graph.write_text(json.dumps({"format": "rfim-instance-v1", "graph": "missing-g.json",
                                    "beta": 0.5, "fields": [1.0] * 4, "boundary": {}}))
    perc = tmp_path / "perc.json"
    perc.write_text(json.dumps({"format": "rfim-perc-v1", "instance": 5,
                                "A": [3], "eta": {"0": 1}, "xi": {"0": -1}}))
    out = tmp_path / "nodir" / "o.json"
    argv, named = {
        "dir-count": (["count", "--instance", str(tmp_path)], str(tmp_path)),
        "dir-check": (["check", "--instance", str(tmp_path)], str(tmp_path)),
        "dir-grow": (["grow", "--graph", str(tmp_path), "--lmax", "2"], str(tmp_path)),
        "dir-perc": (["perc", "--config", str(tmp_path)], str(tmp_path)),
        "missing-graph": (["count", "--instance", str(no_graph)], graph_path),
        "out-nodir": (["check", "--instance", str(inst), "--out", str(out)], str(out)),
        "perc-instance-int": (["perc", "--config", str(perc)], str(perc)),
    }[case]
    res = run_cli(*argv)
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], res.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("sub", ["gen-graph", "gen-fields", "sample", "glauber", "perc-config"])
def test_negative_seed_exits_one(triangle_instance, tmp_path, sub):
    _, path = triangle_instance
    cfg_path = tmp_path / "perc.json"
    cfg_path.write_text(json.dumps({"format": "rfim-perc-v1", "instance": path,
                                    "A": [2], "eta": {}, "xi": {}, "seed": -1}))
    argv = {
        "gen-graph": ["gen-graph", "--n", "4", "--delta", "2", "--seed", "-1"],
        "gen-fields": ["gen-fields", "--n", "4", "--seed", "-1"],
        "sample": ["sample", "--instance", path, "--seed", "-1"],
        "glauber": ["glauber", "--instance", path, "--seed", "-1"],
        "perc-config": ["perc", "--config", str(cfg_path)],
    }[sub]
    # random.Random seeds from |seed|, so -1 used to draw what 1 draws
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert ("'seed'" if sub == "perc-config" else "--seed") in res.stderr


def test_byte_determinism(triangle_instance):
    _, path = triangle_instance
    for args in (
        ["sample", "--instance", path, "--seed", "7"],
        ["count", "--instance", path, "--eps", "0.1"],
        ["gen-fields", "--n", "6", "--variance", "2.0", "--seed", "3"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_gen_fields_output(tmp_path):
    out = tmp_path / "h.json"
    res = run_cli(
        "gen-fields", "--n", "5", "--variance", "4.0", "--seed", "2", "--out", str(out)
    )
    assert res.returncode == 0
    from rfim.randgen import gen_fields, FieldSpec

    h = json.loads(out.read_text())["h"]
    assert h == gen_fields(5, FieldSpec("gaussian", variance=4.0), 2).tolist()


def test_gen_fields_rejects_the_other_kinds_option():
    for kind, own, other in (("gaussian", "--variance", "--magnitude"),
                             ("two_point", "--magnitude", "--variance")):
        res = run_cli("gen-fields", "--n", "4", "--seed", "1", "--kind", kind, other, "9")
        assert res.returncode == 1, kind
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and other in lines[0], res.stderr
        # the manifest records the kind's own option, at its default 1.0,
        # and nothing else
        default = json.loads(run_cli("gen-fields", "--n", "4", "--seed", "1", "--kind", kind).stdout)
        given = json.loads(run_cli("gen-fields", "--n", "4", "--seed", "1", "--kind", kind,
                                   own, "1.0").stdout)
        assert default == given
        assert default["manifest"]["params"] == {"kind": kind, "n": 4, "seed": 1, own[2:]: 1.0}


def test_perc_subcommand(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = IsingInstance(g, 1.0, np.zeros(4), {0: 1})
    M.save(inst, str(tmp_path / "inst.json"))
    cfg = {
        "format": "rfim-perc-v1",
        "instance": "inst.json",
        "A": [3],
        "eta": {"0": 1},
        "xi": {"0": -1},
        "trials": 2000,
        "seed": 4,
    }
    cfg_path = tmp_path / "perc.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run_cli("perc", "--config", str(cfg_path))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["holds"] is True
    assert 0.0 <= obj["tv_exact"] <= 1.0


def test_perc_manifest_records_config_trials_and_seed(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    M.save(IsingInstance(g, 1.0, np.zeros(4), {0: 1}), str(tmp_path / "inst.json"))
    cfg_path = tmp_path / "perc.json"
    cfg_path.write_text(json.dumps({"format": "rfim-perc-v1", "instance": "inst.json",
                                    "A": [3], "eta": {"0": 1}, "xi": {"0": -1},
                                    "trials": 500, "seed": 9}))
    # trials and seed come from the config alone: perc has no flags for them
    for flag in ("--trials", "--seed"):
        res = run_cli("perc", "--config", str(cfg_path), flag, "1")
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.splitlines()[-1] == f"rfim: error: unrecognized arguments: {flag} 1"
    res = run_cli("perc", "--config", str(cfg_path))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["percolation"]["trials"] == 500
    assert obj["manifest"]["params"] == {"config": str(cfg_path)}


def test_perc_rejects_repeated_region_and_off_boundary_eta_xi(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    M.save(IsingInstance(g, 1.0, np.zeros(4), {0: 1}), str(tmp_path / "inst.json"))
    for name, region, eta, xi in (
        ("repeat", [2, 2], {"0": 1}, {"0": -1}),
        ("empty", [3], {}, {}),
        ("extra", [3], {"0": 1, "1": 1}, {"0": -1, "1": 1}),
        # region vertices and spins are JSON integers, not truncated or cast
        ("float_a", [2.7], {"0": 1}, {"0": -1}),
        ("bool_a", [True], {"0": 1}, {"0": -1}),
        ("string_a", ["3"], {"0": 1}, {"0": -1}),
        ("float_eta", [3], {"0": 1.5}, {"0": -1}),
        ("bool_eta", [3], {"0": True}, {"0": -1}),
        ("string_xi", [3], {"0": 1}, {"0": "-1"}),
        # boundary keys are canonical decimals, so no two name one vertex
        ("padded_eta", [3], {"00": 1}, {"0": -1}),
        ("spaced_xi", [3], {"0": 1}, {" 0": -1}),
        ("signed_xi", [3], {"0": 1}, {"+0": -1}),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"format": "rfim-perc-v1", "instance": "inst.json",
                                        "A": region, "eta": eta, "xi": xi, "trials": 100}))
        res = run_cli("perc", "--config", str(cfg_path))
        assert res.returncode == 1, name
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


def test_perc_rejects_non_integer_trials_and_seed(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    M.save(IsingInstance(g, 1.0, np.zeros(4), {0: 1}), str(tmp_path / "inst.json"))
    base = {"format": "rfim-perc-v1", "instance": "inst.json",
            "A": [3], "eta": {"0": 1}, "xi": {"0": -1}}
    for i, extra in enumerate((
        {"trials": [5]},
        {"trials": "5"},
        {"trials": True},
        {"trials": 2.5},
        {"seed": {"a": 1}},
        {"seed": None},
        {"seed": 1.5},
    )):
        cfg_path = tmp_path / f"bad{i}.json"
        cfg_path.write_text(json.dumps({**base, **extra}))
        res = run_cli("perc", "--config", str(cfg_path))
        assert res.returncode == 1, extra
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed perc config"), res.stderr
    # an integral float is an integer
    cfg_path = tmp_path / "float.json"
    cfg_path.write_text(json.dumps({**base, "trials": 200.0, "seed": 3.0}))
    res = run_cli("perc", "--config", str(cfg_path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["percolation"]["trials"] == 200


def test_count_and_sample_report_tau(triangle_instance):
    _, path = triangle_instance
    for sub in ("count", "sample"):
        # every step fits at the first tau, 10 eps/|free|, which prunes nothing
        adaptive = json.loads(run_cli(sub, "--instance", path, "--eps", "0.05").stdout)
        assert adaptive["tau"] == pytest.approx(10 * 0.05 / 3) and adaptive["depth"] == 3
        forced = json.loads(run_cli(sub, "--instance", path, "--depth", "inf").stdout)
        assert forced["tau"] is None and forced["depth"] == -1
    # a forced depth gives no eps guarantee: sample only reports its budget
    res = run_cli("sample", "--instance", path, "--depth", "2")
    assert res.returncode == 0
    forced = json.loads(res.stdout)
    assert forced["tau"] is None and forced["depth"] == 2
    assert forced["tv_budget"] > 0.1  # the default eps


def test_count_and_sample_tau_is_null_without_free_vertices(tmp_path, capsys):
    from rfim.cli import cli_dispatch

    path = tmp_path / "inst.json"
    M.save(IsingInstance(Graph.from_edges(2, [(0, 1)]), 1.0, np.zeros(2), {0: 1, 1: -1}), str(path))
    for sub in ("count", "sample"):
        capsys.readouterr()
        assert cli_dispatch([sub, "--instance", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["tau"] is None and obj["depth"] == 0, (sub, obj)


def test_grow_subcommand(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gpath = tmp_path / "g.json"
    G.save(g, str(gpath))
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["counts"] == [2, 1, 0, 0]
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4", "--saw-tree")
    assert json.loads(res.stdout)["counts"] == [2, 2, 2, 2]


@pytest.mark.parametrize("bad", [{"n": 4, "edges": [[0.5, 1]]}, {"n": True, "edges": []}])
def test_non_integer_graph_entries_give_one_error_line(tmp_path, bad):
    # a float endpoint used to load truncated, and "n": true as n = 1
    gobj = {"format": G.GRAPH_FORMAT, **bad}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gobj))
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps({"format": "rfim-instance-v1", "graph": gobj, "beta": 0.5,
                                 "fields": [1.0] * int(bad["n"]), "boundary": {}}))
    for argv in (["grow", "--graph", str(gpath), "--lmax", "2"],
                 ["count", "--instance", str(ipath)]):
        res = run_cli(*argv)
        assert res.returncode == 1, (argv[0], res.stderr)
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed"), res.stderr


def test_duplicate_edge_file_gives_one_error_line(tmp_path):
    gobj = {"format": G.GRAPH_FORMAT, "n": 4, "edges": [[0, 1], [1, 2], [2, 1], [2, 3]]}
    (tmp_path / "g.json").write_text(json.dumps(gobj))
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps({"format": "rfim-instance-v1", "graph": "g.json", "beta": 0.5,
                                 "fields": [1.0] * 4, "boundary": {}}))
    res = run_cli("count", "--instance", str(ipath))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == f"error: malformed instance {ipath}: duplicate edge (1, 2)\n"
