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


def test_grow_subcommand(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gpath = tmp_path / "g.json"
    G.save(g, str(gpath))
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["counts"] == [2, 1, 0, 0]
    res = run_cli("grow", "--graph", str(gpath), "--v", "0", "--lmax", "4", "--saw-tree")
    assert json.loads(res.stdout)["counts"] == [2, 2, 2, 2]
