import dataclasses
import json

import pytest

from pcspan import density_lp
from pcspan import io as pio
from pcspan.cli import build_parser, main, make_config
from pcspan.config import DEFAULT_CONFIG, SolverConfig
from pcspan.generate import gen_pcs
from pcspan.model import Walk, is_feasible
from pcspan.product import build_product_graph
from pcspan.rcsp import verify_solution


def run(args):
    return main(args)


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["--mode", "gen", "--kind", "pcs", "--n", "5", "--k", "2", "--m", "1",
                "--tau", "1", "--seed", "11", "--out", str(a)]) == 0
    assert run(["--mode", "gen", "--kind", "pcs", "--n", "5", "--k", "2", "--m", "1",
                "--tau", "1", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_integer_regime_lengths(tmp_path):
    out = tmp_path / "g.json"
    run(["--mode", "gen", "--kind", "pcs", "--regime", "integer", "--seed", "4",
         "--out", str(out)])
    obj = json.loads(out.read_text())
    for e in obj["edges"]:
        v = e["res"][0]
        assert isinstance(v, int) and v >= 1


def test_generated_demands_pass_oracle():
    inst = gen_pcs(n=5, k=3, m=2, tau=1, regime="rational-negative", seed=9)
    from pcspan.rcsp import validate_demands

    validate_demands(inst)  # raises on any infeasible demand


def test_solve_and_report_round_trip(tri_instance, tmp_path):
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    report_path = tmp_path / "tri.report.json"
    code = run(["--mode", "pcs-int", str(inst_path), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["cost"] == 2
    # the emitted file verifies from disk
    results = verify_solution(tri_instance, [int(e) for e in report["edges"]])
    assert all(entry["feasible"] for entry in results.values())
    for di, wit in report["witnesses"].items():
        walk = Walk(tuple(wit))
        assert is_feasible(walk, tri_instance.demands[int(di)], tri_instance)
    assert run(["--mode", "verify", str(inst_path), "--report", str(report_path)]) == 0


def test_malformed_rational_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "m": 1, "tau": 1, "packing": 1, "covering": 0,
        "edges": [{"u": 0, "v": 1, "cost": "3/0", "res": [1, 0]}],
        "demands": [],
    }))
    assert run(["--mode", "pcs-int", str(bad)]) == 2


@pytest.mark.parametrize(
    "option",
    [
        ["--epsilon", "abc"],
        ["--epsilon", "0"],
        ["--theta", "-1"],
    ],
    ids=["epsilon-abc", "epsilon-0", "theta-negative"],
)
def test_solver_option_out_of_range_exits_2(tri_instance, tmp_path, option):
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    assert run(["--mode", "pcs-theta", str(inst_path), "--out", str(tmp_path / "r.json"), *option]) == 2


def test_each_solver_knob_has_one_flag_and_one_default():
    parser = build_parser()
    assert make_config(parser.parse_args(["--mode", "pcs-int"])) == DEFAULT_CONFIG
    dests = [action.dest for action in parser._actions]
    for field in dataclasses.fields(SolverConfig):
        assert dests.count(field.name) == 1, field.name


def test_unreadable_instance_or_report_exits_2(tri_instance, tmp_path, capsys):
    assert run(["--mode", "pcs-int", str(tmp_path / "missing.json")]) == 2
    assert run(["--mode", "pcs-int", str(tmp_path)]) == 2
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    assert run(["--mode", "verify", str(inst_path), "--report", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["--mode", "junction"], ["--mode", "verify", "--report", "x.json"]],
    ids=["junction", "verify"],
)
def test_missing_instance_path_exits_2(args, capsys):
    assert run(args) == 2
    assert "needs an instance file" in capsys.readouterr().err


RCS_OK = {
    "n": 2, "m": 1,
    "edges": [{"u": 0, "v": 1, "cost": 1, "len": 1}],
    "groups": [{"kind": "must_visit", "members": [1]}],
    "demands": [{"s": 0, "t": 1, "ctrl": [2, 1]}],
}
HOPSET_OK = {
    "n": 2, "beta": 2,
    "edges": [{"u": 0, "v": 1, "len": 1}],
    "demands": [{"s": 0, "t": 1, "dist": 1, "beta": 1}],
}
PCS_OK = {
    "n": 2, "m": 1, "tau": 1, "packing": 1, "covering": 0,
    "edges": [{"u": 0, "v": 1, "cost": 1, "res": [1, 0]}],
    "demands": [{"s": 0, "t": 1, "budget": [1, 1]}],
}


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("rcs", [RCS_OK]),
        ("hopset", [HOPSET_OK]),
        ("pcs-int", {**PCS_OK, "edges": [[0, 1]]}),
        ("rcs", {**RCS_OK, "edges": [[0, 1]]}),
        ("rcs", {**RCS_OK, "groups": [{"kind": "must_visit", "members": ["1"]}]}),
        ("rcs", {**RCS_OK, "demands": [{"s": 0, "t": 1, "ctrl": ["2", 1]}]}),
        ("hopset", {**HOPSET_OK, "demands": [{"s": 0, "t": 1, "dist": 1, "beta": "1"}]}),
        ("pcs-int", {**PCS_OK, "edges": 5}),
        ("rcs", {**RCS_OK, "groups": 3}),
        ("hopset", {**HOPSET_OK, "demands": 7}),
    ],
    ids=[
        "rcs-top-level-list", "hopset-top-level-list", "pcs-edge-list", "rcs-edge-list",
        "rcs-member-string", "rcs-ctrl-string", "hopset-beta-string",
        "pcs-edges-not-list", "rcs-groups-not-list", "hopset-demands-not-list",
    ],
)
def test_malformed_instance_exits_2(tmp_path, mode, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run(["--mode", mode, str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_unknown_log_level_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PCSPAN_LOG", "verbose")
    out = tmp_path / "g.json"
    assert run(["--mode", "gen", "--kind", "pcs", "--out", str(out)]) == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_infeasible_demand_exits_3(tmp_path):
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps({
        "n": 2, "m": 1, "tau": 1, "packing": 1, "covering": 0,
        "edges": [{"u": 0, "v": 1, "cost": 1, "res": [5, 0]}],
        "demands": [{"s": 0, "t": 1, "budget": [1, 1]}],
    }))
    assert run(["--mode", "pcs-int", str(bad)]) == 3


def test_empty_demand_list_solves_to_zero(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "n": 2, "m": 1, "tau": 1, "packing": 1, "covering": 0,
        "edges": [{"u": 0, "v": 1, "cost": 1, "res": [1, 0]}],
        "demands": [],
    }))
    report_path = tmp_path / "empty.report.json"
    assert run(["--mode", "pcs-int", str(empty), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["cost"] == 0 and report["edges"] == []


def test_junction_without_demands_exits_2(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert run(["--mode", "gen", "--kind", "pcs", "--n", "3", "--k", "1", "--m", "1",
                "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["demands"] = []
    path.write_text(json.dumps(payload))
    assert run(["--mode", "junction", str(path), "--out", str(tmp_path / "j.json")]) == 2
    assert "needs at least one demand" in capsys.readouterr().err
    assert run(["--mode", "pcs-int", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_wrong_regime_exits_2(tmp_path):
    rational = tmp_path / "rat.json"
    rational.write_text(json.dumps({
        "n": 2, "m": 1, "tau": 1, "packing": 1, "covering": 0,
        "edges": [{"u": 0, "v": 1, "cost": 1, "res": ["1/2", 0]}],
        "demands": [{"s": 0, "t": 1, "budget": [1, 1]}],
    }))
    assert run(["--mode", "pcs-int", str(rational)]) == 2


def test_verify_failure_exits_4(tri_instance, tmp_path):
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    report_path = tmp_path / "r.json"
    assert run(["--mode", "pcs-int", str(inst_path), "--out", str(report_path)]) == 0
    broken = json.loads(report_path.read_text())
    broken["edges"] = [2]  # the too-long direct edge cannot satisfy the demand
    broken["witnesses"] = {"0": [2]}
    report_path.write_text(json.dumps(broken))
    assert run(["--mode", "verify", str(inst_path), "--report", str(report_path)]) == 4


@pytest.mark.parametrize(
    "report",
    [
        [],
        {"edges": ["x"], "witnesses": {"0": [0, 1]}},
        {"edges": [0, 1], "witnesses": []},
        {"edges": [0, 1, 3], "witnesses": {"0": [0, 1]}},
        {"edges": [0, 1], "witnesses": {"0": [0, -1]}},
        {"edges": [0, 1], "witnesses": {"0": "01"}},
        {"edges": [0, 1], "witnesses": {"0": [0, 1]}, "theta": "-1/10"},
    ],
    ids=["list", "edge-not-int", "witnesses-list", "edge-outside", "witness-edge-outside",
         "witness-not-list", "theta-negative"],
)
def test_malformed_report_exits_2(tri_instance, tmp_path, capsys, report):
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps(report))
    assert run(["--mode", "verify", str(inst_path), "--report", str(report_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_path_cap_exits_5(tmp_path, monkeypatch):
    inst = gen_pcs(n=8, k=4, m=1, tau=1, regime="integer", seed=1, budget_slack=1)
    inst_path = tmp_path / "paths.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(inst))
    monkeypatch.setattr(density_lp, "MAX_PATHS_PER_TERMINAL", 1)
    assert run(["--mode", "pcs-int", str(inst_path)]) == 5


def test_closure_over_the_vertex_cap_exits_5(tmp_path, capsys):
    # the product graph fits under 500 vertices; a cost closure stores more
    # (source, target) pairs than that, so the same cap stops it
    inst = gen_pcs(n=5, k=1, m=1, tau=1, regime="integer", seed=4)
    cap = 500
    build_product_graph(inst, SolverConfig(max_product_vertices=cap))
    inst_path = tmp_path / "closure.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(inst))
    assert run(["--mode", "pcs-int", "--max-product-vertices", str(cap), str(inst_path)]) == 5
    assert "cost closure exceeded 500 stored pairs" in capsys.readouterr().err


def test_junction_mode(tri_instance, tmp_path):
    inst_path = tmp_path / "tri.json"
    pio.write_json(str(inst_path), pio.pcs_to_dict(tri_instance))
    out = tmp_path / "tri.junction.json"
    assert run(["--mode", "junction", str(inst_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["density"] == 2


def test_bench_summary_deterministic(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for seed in (1, 2):
        run(["--mode", "gen", "--kind", "pcs", "--n", "4", "--k", "1", "--m", "1",
             "--tau", "1", "--seed", str(seed), "--out", str(suite / f"i{seed}.json")])
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run(["--mode", "bench", str(suite), "--out", str(out1)]) == 0
    assert run(["--mode", "bench", str(suite), "--out", str(out2)]) == 0
    s1 = (out1 / "bench_summary.json").read_bytes()
    s2 = (out2 / "bench_summary.json").read_bytes()
    assert s1 == s2
    csv_text = (out1 / "bench_summary.csv").read_text()
    assert "ratio" in csv_text.splitlines()[0]
    # the oracle column is populated on these tiny instances
    body = csv_text.splitlines()[1:]
    assert all(line.split(",")[4] for line in body)


def test_solve_reports_are_byte_identical_across_runs(tmp_path):
    inst_path = tmp_path / "d.json"
    run(["--mode", "gen", "--kind", "pcs", "--n", "5", "--k", "2", "--m", "1",
         "--tau", "1", "--seed", "21", "--out", str(inst_path)])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["--mode", "pcs-int", str(inst_path), "--seed", "7", "--out", str(r1)]) == 0
    assert run(["--mode", "pcs-int", str(inst_path), "--seed", "7", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_bench_runtime_excludes_the_oracle(tmp_path, monkeypatch):
    import time

    import pcspan.cli

    suite = tmp_path / "suite"
    suite.mkdir()
    run(["--mode", "gen", "--kind", "pcs", "--n", "4", "--k", "1", "--m", "1",
         "--tau", "1", "--seed", "1", "--out", str(suite / "i1.json")])
    original = pcspan.cli.brute_force_opt

    def slow_opt(*args, **kwargs):
        time.sleep(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pcspan.cli, "brute_force_opt", slow_opt)
    out = tmp_path / "out"
    assert run(["--mode", "bench", str(suite), "--out", str(out)]) == 0
    header, row = (out / "bench_summary.csv").read_text().splitlines()
    assert header.split(",")[-1] == "runtime_s"
    assert row.split(",")[4]  # the oracle still ran
    assert float(row.split(",")[-1]) < 1.0


@pytest.mark.parametrize(
    "params",
    [
        ["--kind", "pcs", "--n", "0"],
        ["--kind", "pcs", "--m", "0"],
        ["--kind", "pcs", "--tau", "-1"],
        ["--kind", "rcs", "--m", "0"],
        ["--kind", "rcs", "--n", "0"],
        ["--kind", "hopset", "--n", "0"],
    ],
)
def test_gen_out_of_range_exits_2(tmp_path, params):
    out = tmp_path / "g.json"
    assert run(["--mode", "gen", *params, "--out", str(out)]) == 2
    assert not out.exists()
