from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanjump import NumericalError, ValidationError, build_dot, cumulants_fd, serialize_network, twin_dot_spec
from chanjump.cli import main

from conftest import J_HEAT_TOTAL, TWIN_HEAT_DIFF, read_report


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


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_bounds_refuses_a_non_finite_direction_weight(weight, twin_model, capsys):
    # NaN and inf once reached the interval sums and exited 2 as a numerical error
    assert run(["bounds", twin_model, "--direction", f"heat_total={weight}"]) == 1
    err = capsys.readouterr().err
    assert f"validation error: bad weight in --direction 'heat_total={weight}'" in err and "Traceback" not in err


def test_bounds_refuses_a_record_given_twice(twin_model, capsys):
    # the second weight once replaced the first without a word
    assert run(["bounds", twin_model, "--direction", "heat_L=1", "--direction", "heat_L=2"]) == 1
    err = capsys.readouterr().err
    assert "validation error: --direction gives record 'heat_L' twice" in err and "Traceback" not in err


def test_twin_demo_refuses_a_nan_temperature(capsys):
    # the message once named "channel 0: rate" instead of the temperature
    assert run(["twin-demo", "--temp", "nan"]) == 1
    err = capsys.readouterr().err
    assert "validation error: reservoir 'L' needs a finite mu and temperature > 0" in err and "Traceback" not in err


def test_twin_demo_defaults(tmp_path):
    out = tmp_path / "t.json"
    assert run(["twin-demo", "--json", str(out)]) == 0
    t = json.loads(out.read_text())["twin"]
    assert t["generators_bitwise_equal"] is True
    assert abs(t["heat_total_mean_difference"] - TWIN_HEAT_DIFF) < 1e-13
    assert t["heat_noise_difference_norm"] > 1e-3
    assert t["stationary_max_diff"] == 0.0


@pytest.mark.parametrize(
    "flags", [[], ["--eta", "-0.2"], ["--gain", "R", "--lose", "L", "--eta", "0.15"]], ids=["defaults", "eta", "gain-R"]
)
def test_twin_networks_share_every_state_level_output(flags, tmp_path):
    out = tmp_path / "t.json"
    assert run(["twin-demo", *flags, "--json", str(out)]) == 0
    t = read_report(out)["twin"]
    assert t["generators_bitwise_equal"] is True
    assert t["stationary_max_diff"] == 0
    assert t["entropy_coarse_difference"] == 0.0
    assert t["entropy_resolved_difference"] != 0
    assert t["heat_noise_difference_norm"] > 0


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


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_twin_demo_non_finite_eta_is_an_input_error(eta, capsys):
    # NaN used to pass the range check and end in a traceback from Fraction
    assert run(["twin-demo", "--eta", eta]) == 1
    err = capsys.readouterr().err
    assert f"validation error: eta {eta} out of range" in err and "Traceback" not in err


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


@pytest.mark.parametrize("flags", [["--horizon", "10"], ["--jumps", "100"]], ids=["horizon", "jumps"])
def test_simulate_rejects_a_single_trajectory(flags, twin_model, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["simulate", twin_model, "--seed", "1", "--trajectories", "1", "--json", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert "validation error: need at least 2 trajectories to estimate cumulants" in err
    assert "Traceback" not in err and not out.exists()


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


@pytest.mark.filterwarnings("ignore:simulating a non-ergodic network")
def test_simulate_solves_a_non_ergodic_network_once(tmp_path, monkeypatch):
    # the work bound, the chunk rate and the analytic reference all meet the cached failure
    from chanjump import linalg

    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"states": ["a", "b", "c", "d"], "records": [], "channels": [
        _channel(i, j, "r", 1.0) for i, j in [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]]}))
    solves = []
    solve = linalg.stationary_state
    monkeypatch.setattr(linalg, "stationary_state", lambda L: solves.append(L) or solve(L))
    argv = ["simulate", str(path), "--seed", "1", "--trajectories", "2", "--horizon", "5", "--initial", "0"]
    assert run(argv) == 0
    assert len(solves) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", None],
        ["analyze", None, "--fd"],
        ["diagnose", None, "--measured", "heat_L", "--target", "heat_R"],
        ["bounds", None, "--direction", "heat_total=1"],
        ["twin-demo"],
        ["simulate", None, "--seed", "5", "--trajectories", "20", "--horizon", "20"],
        ["simulate", None, "--seed", "1", "--trajectories", "4", "--jumps", "50"],
    ],
)
def test_reports_are_bitwise_deterministic(argv, twin_model, tmp_path):
    args = [a if a is not None else twin_model for a in argv]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(args + ["--json", str(out1)]) == 0
    assert run(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    read_report(out1)


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


def _dot(**changes):
    """A two-level dot document; ``changes`` replace its top-level entries or, by name, its first coupling's."""
    dot = {"levels": [1.0, 0.3], "reservoirs": [{"name": "L", "mu": 0.5, "T": 1.0}, {"name": "R", "mu": -0.5, "T": 1.0}],
           "couplings": [{"level": 0, "reservoir": "L", "gamma": 1.0}, {"level": 1, "reservoir": "R", "gamma": 1.0}]}
    for key, value in changes.items():
        (dot if key in dot else dot["couplings"][0])[key] = value
    return {"dot": dot}


def _labelled(**labels):
    """A two-state document whose second channel has the given reservoir and filter labels."""
    return {"states": ["a", "b"], "records": [], "channels": [
        {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0}, {"from": "b", "to": "a", "rate": 1.0, **labels}]}


_DOT = "validation error: malformed 'dot' description: "


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"states": ["a", "b"], "records": ["n"], "channels": [
            {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0, "increments": {"n": "oops"}}]}, "validation error:"),
        ({"states": [["a"], "b"], "records": [],
          "channels": [{"from": "b", "to": "b", "reservoir": "r", "rate": 1.0}]}, "validation error:"),
        ({"states": ["a", "b"], "records": [], "channels": 5}, "validation error:"),
        (_dot(level=1.7), _DOT + "coupling references unknown level 1.7"),
        (_dot(levels="12"), _DOT + "'levels' must be an array"),
        (_dot(couplings=[{"level": 0, "reservoir": "L", "gamma": 1.0}] * 2), _DOT + "coupling (0, 'L', '') appears twice"),
        (_dot(reservoirs=[{"name": "L", "mu": 0.5, "T": math.nan}]), _DOT + "reservoir 'L' needs a finite mu and temperature > 0"),
        (_labelled(reservoir=5), "validation error: channel 1: reservoir must be a string, got 5"),
        (_labelled(filter=None), "validation error: channel 1: filter must be a string, got None"),
        (_dot(level=[0]), _DOT + "coupling 0: 'level' must not be an array or an object, got [0]"),
    ],
    ids=["increment-not-a-number", "state-name-is-a-list", "channels-not-an-array", "dot-level-1.7",
         "dot-levels-a-string", "dot-repeated-coupling", "dot-nan-temperature", "reservoir-a-number",
         "filter-null", "dot-level-an-array"],
)
def test_malformed_documents_are_validation_errors(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _channel(frm, to, reservoir, rate, **increments):
    return {"from": frm, "to": to, "reservoir": reservoir, "rate": rate, "increments": increments}


_HUGE = 10**400  # a JSON integer too large for a double

_COMMANDS = {
    "analyze": [],
    "bounds": ["--direction", "n=1"],
    "diagnose": ["--measured", "n", "--target", "n"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_huge_integer_rate_is_a_validation_error(command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "records": ["n"],
        "channels": [_channel("a", "b", "r", _HUGE, n=1.0), _channel("b", "a", "r", 1.0)],
    }))
    assert run([command, str(path)] + _COMMANDS[command]) == 1
    err = capsys.readouterr().err
    assert "validation error: channel 0: rate is too large" in err and "Traceback" not in err


def test_huge_integer_dot_coupling_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "huge_dot.json"
    path.write_text(json.dumps({"dot": {
        "levels": [1.0], "reservoirs": [{"name": "L", "mu": 0.0, "T": 1.0}],
        "couplings": [{"level": 0, "reservoir": "L", "gamma": _HUGE}],
    }}))
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "validation error: malformed 'dot' description" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "bounds"])
@pytest.mark.parametrize(
    "states, channels",
    [
        (["a", "b"], [_channel("a", "b", "r", 1e308), _channel("a", "b", "t", 1e308),
                      _channel("b", "a", "r", 1.0)]),
        # each transition total is finite, only the diagonal overflows
        (["a", "b", "c"], [_channel("a", "b", "r", 1e308), _channel("a", "c", "r", 1e308),
                           _channel("b", "a", "r", 1.0), _channel("c", "a", "r", 1.0)]),
    ],
    ids=["one-transition", "escape-only"],
)
def test_overflowing_escape_rate_is_a_validation_error(command, states, channels, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"states": states, "records": ["n"], "channels": channels}))
    assert run([command, str(path)] + _COMMANDS[command]) == 1
    err = capsys.readouterr().err
    assert "validation error: state 'a': total escape rate overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "channels, argv, code",
    [
        # resolved flux ratios of 1e-400 and 1e400 under- and overflow a double
        ([_channel("a", "b", "r", 1e-300), _channel("b", "a", "r", 1e100),
          _channel("a", "b", "t", 1e100), _channel("b", "a", "t", 1e-300)],
         ["analyze"], 0),
        # a transition's increments sum past the largest double while centring
        ([_channel("b", "a", "t", 1e-300, x=-1e308, y=1e308), _channel("a", "b", "t", 2, x=5e-324, y=0.0),
          _channel("a", "b", "r", 0.5, x=1e-10, y=0.5), _channel("b", "a", "r", 0, x=0, y=1e308)],
         ["diagnose", "--measured", "x", "--target", "y"], 2),
        # the interval's lower end sums past the largest double
        ([_channel("a", "b", "t", 1e308, x=2), _channel("b", "a", "t", 1e308, x=2)],
         ["bounds", "--direction", "x=1"], 2),
        # the direction's projected increment sums past the largest double
        ([_channel("a", "b", "t", 1.0, x=1e308, y=1e308), _channel("b", "a", "t", 1.0)],
         ["bounds", "--direction", "x=1", "--direction", "y=1"], 2),
    ],
    ids=["entropy-log-ratio", "centring-overflow", "interval-endpoint", "direction-overflow"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the inf it meets
def test_extreme_numbers_give_an_exit_code(channels, argv, code, tmp_path, capsys):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x", "y"], "channels": channels}))
    assert run([argv[0], str(path)] + argv[1:]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and (code == 0 or "numerical error:" in err)


@pytest.mark.parametrize("u", ["[Infinity, 1.0]", "[NaN, 1.0]"])
def test_bounds_rejects_non_finite_totals(u, twin_model, tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(u)
    assert run(["bounds", twin_model, "--direction", "heat_total=1", "--u-file", str(path)]) == 1
    assert "validation error: transition totals must be finite and nonnegative" in capsys.readouterr().err


def test_noise_past_the_largest_double_is_a_numerical_error(tmp_path, capsys):
    # increments near 1e308 used to give a NaN noise matrix, exit 0 and bare NaN in the JSON
    path = tmp_path / "huge_increments.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x", "y"], "channels": [
        _channel("b", "a", "r", 1, x=1, y=1e308), _channel("a", "b", "r", 1),
        _channel("b", "a", "t", 1, y=1e308),
    ]}))
    out = tmp_path / "report.json"
    assert run(["analyze", str(path), "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical error: noise matrix exceeds the largest double" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--fd-step", "0"], ["--fd-step", "nan"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "2"]],
    ids=["fd-step-zero", "fd-step-nan", "tol-zero", "tol-negative", "tol-nan", "tol-above-one"],
)
def test_out_of_range_step_and_tolerance_are_input_errors(flags, twin_model, capsys):
    assert run(["analyze", twin_model, "--fd"] + flags) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flags[0]}: expected a number in" in err and "Traceback" not in err


def test_step_whose_square_underflows_is_an_input_error(twin_model, capsys):
    # 1e-300 is finite and positive, but the stencil divides by its square
    assert run(["analyze", twin_model, "--fd", "--fd-step", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert "validation error: finite-difference step 1e-300 is too small" in err and "Traceback" not in err


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
def test_a_non_finite_step_is_refused_by_the_library(h):
    # the CLI refuses these through --fd-step; the library names the step, not a record weight
    with pytest.raises(ValidationError, match=f"^finite-difference step {h!r} must be finite$"):
        cumulants_fd(build_dot(twin_dot_spec()), h)


def test_step_whose_square_overflows_is_an_input_error(tmp_path, capsys):
    # zero increments keep every exponent at 0, so the stencil succeeds and only h**2 overflows
    path = tmp_path / "silent.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", 1.0), _channel("b", "a", "r", 1.0)]}))
    assert run(["analyze", str(path), "--fd", "--fd-step", "1e200"]) == 1
    err = capsys.readouterr().err
    assert "validation error: finite-difference step 1e+200 is too large: its square overflows" in err
    assert "Traceback" not in err


def test_step_whose_square_overflows_is_unused_without_records(tmp_path, capsys):
    # with no record the stencil is chi = 0 alone and nothing is divided by h**2
    path = tmp_path / "silent.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": [], "channels": [
        _channel("a", "b", "r", 1.0), _channel("b", "a", "r", 1.0)]}))
    out = tmp_path / "report.json"
    assert run(["analyze", str(path), "--fd", "--fd-step", "1e200", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["cumulants_finite_difference"]["means"] == {}
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one state solution per network


@pytest.mark.parametrize(
    "argv, generators, solves",
    [
        (["analyze", None], 1, 1),
        (["analyze", None, "--fd"], 1, 1),
        (["analyze", None, "--tol", "1e-10"], 1, 1),  # DEFAULT_TOL given explicitly
        (["analyze", None, "--tol", "1e-8"], 1, 2),  # the report's check, then the cached solve
        (["simulate", None, "--seed", "1", "--trajectories", "3", "--horizon", "2"], 1, 1),
        (["bounds", None, "--direction", "heat_total=1"], 1, 1),
        (["twin-demo"], 2, 2),
    ],
    ids=["analyze", "analyze-fd", "analyze-default-tol", "analyze-other-tol", "simulate", "bounds", "twin-demo"],
)
def test_each_network_is_assembled_and_solved_once(argv, generators, solves, twin_model, monkeypatch):
    from chanjump import cli, linalg, network

    calls = {"build_generator": 0, "stationary_state": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "build_generator", counted("build_generator", network.build_generator))
    solve = counted("stationary_state", linalg.stationary_state)
    monkeypatch.setattr(linalg, "stationary_state", solve)
    monkeypatch.setattr(cli, "stationary_state", solve)  # analyze's check at the user tolerance
    assert run([a if a is not None else twin_model for a in argv]) == 0
    assert calls == {"build_generator": generators, "stationary_state": solves}


# ---------------------------------------------------------------------------
# input errors exit 1 without a traceback


@pytest.mark.parametrize("argv", [
    ["bounds", None, "--direction", "heat_total=1"],
    ["twin-demo"],
    ["simulate", None, "--seed", "1", "--trajectories", "2", "--horizon", "1"],
])
def test_tol_is_only_taken_where_it_decides_a_rank(argv, twin_model, capsys):
    args = [a if a is not None else twin_model for a in argv]
    assert run(args + ["--tol", "0.5"]) == 1
    assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "u", ['"abc"', "[[1, 2], [3]]", '{"a": 1}', "[[1, 2]]", '["1", "2"]', "[true, 1]", "3", "null"],
    ids=["string", "ragged", "object", "nested", "strings", "bool", "scalar", "null"],
)
def test_bounds_u_file_must_be_a_flat_array_of_numbers(u, twin_model, tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(u)
    assert run(["bounds", twin_model, "--direction", "heat_total=1", "--u-file", str(path)]) == 1
    err = capsys.readouterr().err
    assert "validation error: u file must hold a flat JSON array of numbers" in err and "Traceback" not in err


def test_bounds_u_file_with_a_number_past_the_largest_double(twin_model, tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(f"[{10**400}, 1]")
    assert run(["bounds", twin_model, "--direction", "heat_total=1", "--u-file", str(path)]) == 1
    assert "validation error: u file holds a number too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--horizon", "inf"], "t_max must be finite"),
        (["--horizon", "1", "--burn-in", "inf"], "burn_in must be finite"),
        (["--horizon", "1", "--burn-in", "nan"], "burn_in must be finite"),
        (["--horizon", "1", "--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["horizon-inf", "burn-in-inf", "burn-in-nan", "seed-negative"],
)
def test_simulate_rejects_non_finite_windows_and_negative_seeds(flags, message, twin_model, tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "2", "--json", str(out)]
    assert run(argv + flags) == 1  # a later --seed overrides the first
    err = capsys.readouterr().err
    assert f"validation error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--horizon", "1e300"], ["--jumps", "1000000000000"]], ids=["horizon", "jumps"])
def test_simulate_refuses_a_run_past_the_jump_budget(flags, twin_model, tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "2", "--json", str(out)]
    assert run(argv + flags) == 1
    err = capsys.readouterr().err
    assert "validation error: the run would make about" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "x, x_back, rate, flags, message",
    [
        # two record totals of 1e308 pool past the largest double
        (1e308, 1e308, 1.0, ["--jumps", "2"], "total of record 'x' exceeds the largest double"),
        # each channel fires twice: the terms of the record total are inf and -inf
        (1e308, -1e308, 1.0, ["--jumps", "4"], "total of record 'x' exceeds the largest double"),
        # the totals are finite, their spread is not: se inf and an inf noise entry
        (1e200, 1e200, 1.0, ["--horizon", "10"], "Monte Carlo estimates exceed the largest double"),
        (1e200, 1e200, 1.0, ["--jumps", "2"], "Monte Carlo estimates exceed the largest double"),
        # the noise near 1e201 is finite, the spread of its two batch estimates is not
        (1e100, 1e100, 1.0, ["--horizon", "10", "--trajectories", "4"], "Monte Carlo estimates exceed the largest double"),
        # about ten jumps per trajectory, but three windows of 1e308 pool past the largest double
        (1.0, 1.0, 1e-307, ["--horizon", "1e308"], "pooled simulated time exceeds the largest double"),
    ],
    ids=["record-total", "record-total-inf-minus-inf", "noise", "standard-error", "noise-standard-error", "pooled-time"],
)
def test_simulate_past_the_largest_double_is_a_numerical_error(x, x_back, rate, flags, message, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", rate, x=x), _channel("b", "a", "r", rate, x=x_back)]}))
    out = tmp_path / "s.json"
    assert run(["simulate", str(path), "--seed", "1", "--trajectories", "3", "--json", str(out)] + flags) == 2
    captured = capsys.readouterr()
    assert f"numerical error: {message}" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out == "" and not out.exists()


def test_a_failed_simulate_leaves_the_dump_untouched(tmp_path, capsys):
    # trajectory 0 makes its two jumps before the pooled totals overflow
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", 1.0, x=1e308), _channel("b", "a", "r", 1.0, x=1e308)]}))
    dump = tmp_path / "dump.txt"
    dump.write_bytes(b"an earlier run\n")
    argv = ["simulate", str(path), "--seed", "1", "--trajectories", "3", "--jumps", "2", "--dump", str(dump)]
    assert run(argv) == 2
    assert "numerical error:" in capsys.readouterr().err
    assert dump.read_bytes() == b"an earlier run\n"


def test_simulate_jump_budget_on_fast_rates_estimates_no_noise(tmp_path, capsys):
    # one jump per trajectory: windows near 1e-15 that differ, however close to 0 they are
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", 1e15, x=1.0), _channel("b", "a", "r", 1e15, x=-0.5)]}))
    out = tmp_path / "s.json"
    assert run(["simulate", str(path), "--seed", "5", "--trajectories", "3", "--jumps", "1", "--json", str(out)]) == 0
    assert "noise matrix: not estimated" in capsys.readouterr().out
    mc = json.loads(out.read_text())["cumulants_monte_carlo"]
    assert mc["noise"] is None and mc["noise_standard_errors"] is None
    assert "equal observation windows" in mc["note"]


def test_simulate_does_not_drop_an_analytic_noise_overflow(tmp_path, capsys):
    # the Monte Carlo estimates are finite, the analytic noise is not: exit 2, not a report without it
    path = tmp_path / "huge_increments.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x", "y"], "channels": [
        _channel("b", "a", "r", 1, x=1, y=1e308), _channel("a", "b", "r", 1),
        _channel("b", "a", "t", 1, y=1e308),
    ]}))
    assert run(["simulate", str(path), "--seed", "1", "--trajectories", "3", "--horizon", "1e-300"]) == 2
    assert "numerical error: noise matrix exceeds the largest double" in capsys.readouterr().err


def test_a_failed_fd_eigensolve_is_a_numerical_error(tmp_path, capsys):
    # at h = 50 the tilted rates 1e300 e^50 overflow: the chord certifies no point, and eigvals
    # refuses the inf entries
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", 1e300, x=1.0), _channel("b", "a", "r", 1e300, x=-1.0)]}))
    out = tmp_path / "fd.json"
    assert run(["analyze", str(path), "--fd", "--fd-step", "50", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    message = "numerical error: eigensolver failed on tilted generator: Array must not contain infs or NaNs"
    assert message in captured.err and "Traceback" not in captured.err and "Warning" not in captured.err
    assert not out.exists()


def test_a_record_counts_against_its_own_scale(tmp_path, capsys):
    # x differs between the two b->a channels; y is 1e12 on every channel
    path = tmp_path / "scales.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x", "y"], "channels": [
        _channel("a", "b", "L", 1.0, y=1e12), _channel("b", "a", "L", 1.0, x=1, y=1e12),
        _channel("b", "a", "R", 1.0, x=2, y=1e12),
    ]}))
    out = tmp_path / "report.json"
    assert run(["analyze", str(path), "--json", str(out)]) == 0
    assert "d_lost=1  complete=no" in capsys.readouterr().out
    kernel = json.loads(out.read_text())["kernel"]
    assert kernel["d_lost"] == 1 and not kernel["complete"]
    assert run(["diagnose", str(path), "--measured", "y", "--target", "x", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["diagnosis"]["targets"][0]["predictable"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--horizon", "1e300"], "the run would make about"),
        (["--horizon", "10", "--initial", "7"], "initial state 7 out of range"),
        (["--horizon", "10"], "network is not ergodic"),
    ],
    ids=["work-bound", "initial-state", "non-ergodic"],
)
def test_a_refused_simulate_leaves_the_dump_untouched(flags, message, twin_model, tmp_path, capsys):
    model = twin_model
    if message == "network is not ergodic":
        # two disconnected pairs of states: no unique stationary state to start from
        pairs = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        model = tmp_path / "disconnected.json"
        model.write_text(json.dumps({"states": ["a", "b", "c", "d"], "records": [], "channels": [
            {"from": i, "to": j, "reservoir": "r", "rate": 1.0} for i, j in pairs]}))
    dump = tmp_path / "dump.txt"
    dump.write_text("an earlier run\n")
    argv = ["simulate", str(model), "--seed", "1", "--trajectories", "2", "--dump", str(dump)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-ergodic warning comes before the refusal
        assert run(argv + flags) == 1
    err = capsys.readouterr().err
    assert f"validation error: {message}" in err and "Traceback" not in err
    assert dump.read_text() == "an earlier run\n"


def test_a_failed_stationary_solve_is_a_numerical_error_in_simulate(twin_model, monkeypatch, capsys):
    # simulate once read any failed solve as "network is not ergodic" and exited 1
    from chanjump import linalg

    def fail(L):
        raise NumericalError("stationary vector has a negative entry -5.55112e-11")

    monkeypatch.setattr(linalg, "stationary_state", fail)
    assert run(["simulate", twin_model, "--seed", "1", "--trajectories", "4", "--horizon", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert "numerical error: stationary vector has a negative entry -5.55112e-11" in err and "Traceback" not in err


def test_simulate_counts_a_cost_per_trajectory(twin_model, tmp_path, capsys):
    # about 2e-8 jumps in all, but a hundred million trajectories to seed
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "100000000", "--horizon", "1e-9"]
    t0 = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "validation error: the run would make about 5e+10 jumps" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["no-such-dir/d.txt", "a-file/d.txt", "."])
def test_an_unwritable_dump_is_refused_before_simulating(name, twin_model, tmp_path, capsys, monkeypatch):
    from chanjump import montecarlo

    (tmp_path / "a-file").write_text("")
    calls = []
    simulate = montecarlo.simulate
    monkeypatch.setattr(montecarlo, "simulate", lambda *a, **k: calls.append(a) or simulate(*a, **k))
    dump = tmp_path / name
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "2", "--horizon", "1", "--dump", str(dump)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    with pytest.raises(OSError) as opened:
        open(dump, "w")
    assert f"validation error: cannot write {dump}: {opened.value}" in err and "Traceback" not in err
    assert calls == []


def test_a_dump_to_an_existing_writable_file_is_checked_without_opening_it(twin_model, tmp_path, monkeypatch):
    import builtins

    dump = tmp_path / "dump.txt"
    dump.write_text("an earlier run\n")
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda f, *a, **k: opened.append(str(f)) or real_open(f, *a, **k))
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "2", "--horizon", "1", "--dump", str(dump)]
    assert run(argv) == 0
    assert opened.count(str(dump)) == 1  # only the copy of the finished run
    assert dump.read_text().startswith("#")


def test_a_negative_variance_is_a_numerical_error(tmp_path, capsys):
    # the stiff two-state model: p_b underflows to 0 and the computed variance is -1e-300
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"states": ["a", "b"], "records": ["x"], "channels": [
        _channel("a", "b", "r", 1e-300, x=1), _channel("b", "a", "r", 1e300, x=-1)]}))
    assert run(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert "numerical error: noise of record 'x' is a negative variance" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--dump", "--json"])
def test_unwritable_output_path_is_an_input_error(flag, twin_model, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.txt"
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "2", "--horizon", "1", flag, str(missing)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert f"validation error: cannot write {missing}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# no flag set makes the CLI raise

_NUMBERS = ["nan", "inf", "-inf", "-1", "-0.5", "0", "abc", "1e400", ""]


def _flag(name, valid, required=False):
    """A flag with one of the bad values above or, three times as often, a short valid one; or left out."""
    value = st.one_of(st.sampled_from(_NUMBERS), valid, valid, valid).map(lambda v: [name, str(v)])
    return value if required else st.one_of(st.just([]), value)


_fraction = st.floats(0.01, 0.99).map(repr)
_positive = st.floats(0.01, 3.0).map(repr)
_real = st.floats(-3.0, 3.0).map(repr)


def _reservoir(name):
    return st.one_of(st.just([]), st.sampled_from(["L", "R", "X", ""]).map(lambda r: [name, r]))


_FLAGS = {
    "analyze": [
        st.just([]), st.sampled_from([[], ["--fd"]]), _flag("--fd-step", st.floats(1e-5, 1e-2).map(repr)),
        _flag("--tol", _fraction),
    ],
    "diagnose": [
        st.sampled_from([[], ["--measured", "heat_L"], ["--measured", "nope"]]),
        st.sampled_from([[], ["--target", "heat_R"], ["--target", "heat_total"]]),
        _flag("--tol", _fraction),
    ],
    "bounds": [
        st.sampled_from([[], ["--direction", "heat_total=1"]]),
        st.sampled_from(_NUMBERS + ["1", "0.5", "-2"]).map(lambda w: ["--direction", f"heat_L={w}"]),
    ],
    "twin-demo": [
        _flag("--eta", st.floats(-0.3, 0.3).map(repr)), _flag("--eps", _real), _flag("--mu-l", _real),
        _flag("--mu-r", _real), _flag("--temp", _positive), _flag("--gamma", _positive),
        _reservoir("--gain"), _reservoir("--lose"),
    ],
    "simulate": [
        _flag("--seed", st.integers(0, 2**32), required=True),
        _flag("--trajectories", st.integers(2, 4), required=True),
        st.one_of(  # exactly one of --horizon and --jumps, or both or neither
            _flag("--horizon", _positive, required=True),
            _flag("--jumps", st.integers(1, 30), required=True),
            st.tuples(_flag("--horizon", _positive), _flag("--jumps", st.integers(1, 30))).map(lambda t: t[0] + t[1]),
        ),
        _flag("--burn-in", _positive),
        _flag("--initial", st.integers(0, 1)),
    ],
}

flag_sets = st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), *_FLAGS[command]).map(lambda drawn: (drawn[0], sum(drawn[1:], [])))
)


@pytest.fixture(scope="module")
def flags_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("flags")
    (directory / "twin.json").write_text(serialize_network(build_dot(twin_dot_spec())))
    return directory


@pytest.mark.filterwarnings("ignore")  # non-ergodicity and overflow warnings are expected here
@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=flag_sets)
@example(drawn=("twin-demo", ["--gamma", "1e308", "--eps", "-3"]))  # the shifted transition's total overflows
def test_cli_flags_never_raise(drawn, flags_dir):
    command, flags = drawn
    model = [] if command == "twin-demo" else [str(flags_dir / "twin.json")]
    argv = [command] + model + flags + ["--json", str(flags_dir / "report.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or "error:" in err.getvalue()


@pytest.mark.parametrize("flag", ["--json", "--dump"])
def test_an_unwritable_output_path_is_refused_before_the_model_is_read(flag, twin_model, tmp_path, capsys, monkeypatch):
    from chanjump import cli, montecarlo

    calls = []
    load, simulate = cli.load_network, montecarlo.simulate
    monkeypatch.setattr(cli, "load_network", lambda *a: calls.append("load") or load(*a))
    monkeypatch.setattr(montecarlo, "simulate", lambda *a, **k: calls.append("simulate") or simulate(*a, **k))
    missing = tmp_path / "missing-dir" / "x.json"
    argv = ["simulate", twin_model, "--seed", "1", "--trajectories", "50", "--horizon", "100000", flag, str(missing)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert f"validation error: cannot write {missing}" in captured.err and captured.out == ""
    assert calls == []
    # reported before a bad model, too
    assert run(["analyze", str(tmp_path / "no-model.json"), "--json", str(missing)]) == 1
    assert f"validation error: cannot write {missing}" in capsys.readouterr().err
