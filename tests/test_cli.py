import json
import math
import subprocess
import sys

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
    assert json.loads(res.stdout)["accepted"] is True


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


def test_count_error_too_large_exits_four(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "hot.json"
    M.save(IsingInstance(g, 2.0, np.zeros(3)), str(path))
    res = run_cli("count", "--instance", str(path), "--depth", "1")
    assert res.returncode == 4
    assert res.stdout == "" and "certified" in res.stderr


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
    for sub in ("count", "check"):
        for h0 in ("nan", "inf"):
            res = run_cli(sub, "--instance", path, "--h0", h0)
            assert res.returncode == 1, (sub, h0)
            assert res.stdout == ""
            assert "error:" in res.stderr and "--h0" in res.stderr and "finite" in res.stderr
    # sample has no --h0: its tau schedule does not read a field threshold
    res = run_cli("sample", "--instance", path, "--h0", "1")
    assert res.returncode == 1
    assert res.stdout == "" and "--h0" in res.stderr
    for arg in ("--variance=nan", "--variance=inf", "--variance=-inf", "--magnitude=nan"):
        res = run_cli("gen-fields", "--n", "4", arg)
        assert res.returncode == 1, arg
        assert res.stdout == ""
        assert "error:" in res.stderr and "finite" in res.stderr


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
    from rfim.randgen import load_fields, gen_fields, FieldSpec

    h = load_fields(str(out))
    assert np.array_equal(h, gen_fields(5, FieldSpec("gaussian", variance=4.0), 2))


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
    res = run_cli("perc", "--config", str(cfg_path), "--trials", "20", "--seed", "1")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["percolation"]["trials"] == 500
    assert obj["manifest"]["params"] == {"config": str(cfg_path), "trials": 500, "seed": 9}


def test_perc_rejects_repeated_region_and_off_boundary_eta_xi(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    M.save(IsingInstance(g, 1.0, np.zeros(4), {0: 1}), str(tmp_path / "inst.json"))
    for name, region, eta, xi in (
        ("repeat", [2, 2], {"0": 1}, {"0": -1}),
        ("empty", [3], {}, {}),
        ("extra", [3], {"0": 1, "1": 1}, {"0": -1, "1": 1}),
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
    assert json.loads(res.stdout)["manifest"]["params"]["trials"] == 200


def test_count_and_sample_report_tau(triangle_instance):
    _, path = triangle_instance
    for sub in ("count", "sample"):
        scheduled = json.loads(run_cli(sub, "--instance", path, "--eps", "0.05").stdout)
        assert scheduled["tau"] == pytest.approx(0.05 / 12) and scheduled["depth"] == 3
        forced = json.loads(run_cli(sub, "--instance", path, "--depth", "inf").stdout)
        assert forced["tau"] is None and forced["depth"] == -1
    # a forced depth gives no eps guarantee: sample only reports its budget
    res = run_cli("sample", "--instance", path, "--depth", "2")
    assert res.returncode == 0
    forced = json.loads(res.stdout)
    assert forced["tau"] is None and forced["depth"] == 2
    assert forced["tv_budget"] > 0.1  # the default eps


def test_grow_subcommand(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gpath = tmp_path / "g.json"
    G.save(g, str(gpath))
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["counts"] == [2, 1, 0, 0]
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4", "--saw-tree")
    assert json.loads(res.stdout)["counts"] == [2, 2, 2, 2]
