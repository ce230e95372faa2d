from __future__ import annotations

import json

import numpy as np
import pytest

from chanjump import build_dot, serialize_network, twin_dot_spec
from chanjump.cli import main

from conftest import J_HEAT_TOTAL, TWIN_HEAT_DIFF


@pytest.fixture
def twin_model(tmp_path):
    path = tmp_path / "twin.json"
    path.write_text(serialize_network(build_dot(twin_dot_spec())))
    return str(path)


def run(args):
    return main(args)


def test_analyze_twin_dot(twin_model, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["analyze", twin_model, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["kernel"]["d_lost"] == 1
    assert report["kernel"]["dim_ker_P"] == 2
    assert not report["kernel"]["complete"]
    assert abs(report["cumulants_analytic"]["means"]["heat_total"] - J_HEAT_TOTAL) < 1e-12
    text = capsys.readouterr().out
    assert "d_lost=1" in text


def test_analyze_fd_flag(twin_model, tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", twin_model, "--fd", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    fd = report["cumulants_finite_difference"]
    an = report["cumulants_analytic"]
    assert fd["method"] == "finite_difference"
    for rec in an["records"]:
        assert abs(fd["means"][rec] - an["means"][rec]) < 1e-6


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["analyze", str(bad)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_analyze_negative_rate_names_channel(tmp_path, capsys):
    doc = {
        "states": ["a", "b"],
        "records": [],
        "channels": [{"from": "a", "to": "b", "reservoir": "r", "rate": -0.1}],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert run(["analyze", str(path)]) == 1
    assert "channel 0" in capsys.readouterr().err


def test_analyze_non_ergodic_exits_2(tmp_path, capsys):
    doc = {
        "states": ["a", "b", "c", "d"],
        "records": [],
        "channels": [
            {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0},
            {"from": "b", "to": "a", "reservoir": "r", "rate": 1.0},
            {"from": "c", "to": "d", "reservoir": "r", "rate": 1.0},
            {"from": "d", "to": "c", "reservoir": "r", "rate": 1.0},
        ],
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert run(["analyze", str(path)]) == 2
    assert "numerical error" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert run(["analyze", "/nonexistent/model.json"]) == 1


def test_bad_flag_exits_1(twin_model, capsys):
    assert run(["analyze", twin_model, "--bogus"]) == 1


def test_diagnose(twin_model, tmp_path):
    out = tmp_path / "d.json"
    assert run([
        "diagnose", twin_model,
        "--measured", "heat_L",
        "--target", "heat_R", "--target", "heat_total",
        "--json", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    d = report["diagnosis"]
    assert d["remaining_dim"] == 1
    verdicts = {t["record"]: t["predictable"] for t in d["targets"]}
    assert verdicts == {"heat_R": True, "heat_total": True}


def test_diagnose_nothing_measured(twin_model, tmp_path):
    out = tmp_path / "d.json"
    assert run(["diagnose", twin_model, "--target", "heat_R", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    target = report["diagnosis"]["targets"][0]
    assert not target["predictable"]
    assert target["witness"] is not None


def test_diagnose_target_equals_measured(twin_model, tmp_path):
    out = tmp_path / "d.json"
    assert run([
        "diagnose", twin_model, "--measured", "heat_L", "--target", "heat_L",
        "--json", str(out),
    ]) == 0
    assert json.loads(out.read_text())["diagnosis"]["targets"][0]["predictable"]


def test_diagnose_unknown_record(twin_model):
    assert run(["diagnose", twin_model, "--target", "zzz"]) == 1


def test_bounds_contains_both_twin_values(twin_model, tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", twin_model, "--direction", "heat_total=1", "--json", str(out)]) == 0
    iv = json.loads(out.read_text())["interval"]
    assert iv["lo"] <= J_HEAT_TOTAL <= iv["hi"]
    assert iv["lo"] <= J_HEAT_TOTAL + TWIN_HEAT_DIFF <= iv["hi"]
    assert iv["u_source"] == "stationary"


def test_bounds_with_explicit_u_file(twin_model, tmp_path):
    ufile = tmp_path / "u.json"
    ufile.write_text("[1.0, 0.0]")
    out = tmp_path / "b.json"
    assert run([
        "bounds", twin_model, "--direction", "heat_total=1",
        "--u-file", str(ufile), "--json", str(out),
    ]) == 0
    iv = json.loads(out.read_text())["interval"]
    assert iv["u"] == [1.0, 0.0]
    assert iv["lo"] == -1.5 and iv["hi"] == -0.5


def test_bounds_degenerate_single_channels(tmp_path):
    doc = {
        "states": ["a", "b"],
        "records": ["n"],
        "channels": [
            {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0, "increments": {"n": 1.0}},
            {"from": "b", "to": "a", "reservoir": "r", "rate": 1.0},
        ],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "b.json"
    assert run(["bounds", str(path), "--direction", "n=1", "--json", str(out)]) == 0
    iv = json.loads(out.read_text())["interval"]
    assert iv["lo"] == iv["hi"]


def test_bounds_direction_syntax(twin_model):
    assert run(["bounds", twin_model, "--direction", "heat_total"]) == 1
    assert run(["bounds", twin_model]) == 1


def test_twin_demo_defaults(tmp_path):
    out = tmp_path / "t.json"
    assert run(["twin-demo", "--json", str(out)]) == 0
    t = json.loads(out.read_text())["twin"]
    assert t["generators_bitwise_equal"] is True
    assert abs(t["heat_total_mean_difference"] - TWIN_HEAT_DIFF) < 1e-13
    assert t["heat_noise_difference_norm"] > 1e-3
    assert t["stationary_max_diff"] == 0.0


def test_twin_demo_zero_eta(tmp_path):
    out = tmp_path / "t.json"
    assert run(["twin-demo", "--eta", "0", "--json", str(out)]) == 0
    t = json.loads(out.read_text())["twin"]
    assert t["heat_total_mean_difference"] == 0.0
    assert t["heat_noise_difference_norm"] == 0.0
    assert t["entropy_resolved_difference"] == 0.0


def test_twin_demo_equal_potentials(tmp_path):
    # the combined heat record is complete here: its mean and noise are
    # twin-invariant even though per-reservoir ledgers still differ
    out = tmp_path / "t.json"
    assert run(["twin-demo", "--mu-l", "0.5", "--mu-r", "0.5", "--json", str(out)]) == 0
    t = json.loads(out.read_text())["twin"]
    assert t["generators_bitwise_equal"] is True
    assert abs(t["heat_total_mean_difference"]) < 1e-15
    assert abs(t["heat_total_noise_difference"]) < 1e-12


def test_twin_demo_eta_out_of_range(capsys):
    assert run(["twin-demo", "--eta", "0.9"]) == 1


def test_simulate_command(twin_model, tmp_path):
    out = tmp_path / "s.json"
    assert run([
        "simulate", twin_model, "--seed", "3", "--trajectories", "50",
        "--horizon", "50", "--json", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    s = report["simulation"]
    assert s["n_trajectories"] == 50
    assert s["absorbed_trajectories"] == 0
    mc = report["cumulants_monte_carlo"]
    an = report["cumulants_analytic"]
    for rec in an["records"]:
        se = mc["mean_standard_errors"][rec]
        assert abs(mc["means"][rec] - an["means"][rec]) <= 4 * se + 1e-9


def test_simulate_rejects_missing_horizon(twin_model):
    assert run(["simulate", twin_model, "--seed", "1", "--trajectories", "2"]) == 1


def test_simulate_reports_absorbed_trajectories(tmp_path, capsys):
    doc = {
        "states": ["a", "b"],
        "records": [],
        "channels": [{"from": "a", "to": "b", "reservoir": "r", "rate": 1.0}],
    }
    path = tmp_path / "absorbing.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "s.json"
    with pytest.warns(UserWarning, match="non-ergodic"):
        code = run([
            "simulate", str(path), "--seed", "4", "--trajectories", "5",
            "--horizon", "10", "--initial", "0", "--json", str(out),
        ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["simulation"]["absorbed_trajectories"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", None],
        ["analyze", None, "--fd"],
        ["diagnose", None, "--measured", "heat_L", "--target", "heat_R"],
        ["bounds", None, "--direction", "heat_total=1"],
        ["twin-demo"],
        ["simulate", None, "--seed", "5", "--trajectories", "20", "--horizon", "20"],
    ],
)
def test_reports_are_bitwise_deterministic(argv, twin_model, tmp_path):
    args = [a if a is not None else twin_model for a in argv]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(args + ["--json", str(out1)]) == 0
    assert run(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_jump_budget_reports_pooled_means(twin_model, tmp_path, capsys):
    out = tmp_path / "s.json"
    dump = tmp_path / "jumps.txt"
    assert run([
        "simulate", twin_model, "--seed", "8", "--trajectories", "40", "--jumps", "300",
        "--dump", str(dump), "--json", str(out),
    ]) == 0
    assert "noise matrix: not estimated" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["simulation"]["horizon_kind"] == "jumps"
    mc = report["cumulants_monte_carlo"]
    assert mc["noise"] is None and mc["noise_standard_errors"] is None
    assert "equal observation windows" in mc["note"]
    an = report["cumulants_analytic"]
    for rec in an["records"]:
        se = mc["mean_standard_errors"][rec]
        assert se > 0.0
        assert abs(mc["means"][rec] - an["means"][rec]) <= 5 * se
    assert sum(1 for line in dump.read_text().splitlines() if not line.startswith("#")) == 40 * 300


@pytest.mark.parametrize(
    "doc",
    [
        {"states": ["a", "b"], "records": ["n"],
         "channels": [{"from": "a", "to": "b", "reservoir": "r", "rate": 1.0, "increments": {"n": "oops"}}]},
        {"states": [["a"], "b"], "records": [],
         "channels": [{"from": "b", "to": "b", "reservoir": "r", "rate": 1.0}]},
        {"states": ["a", "b"], "records": [], "channels": 5},
    ],
    ids=["increment-not-a-number", "state-name-is-a-list", "channels-not-an-array"],
)
def test_malformed_documents_are_validation_errors(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "Traceback" not in err
