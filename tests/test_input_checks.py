"""Shared input checks: vector lengths, finite matrices, increment maps.

Every vector argument of the library goes through ``network.checked_vector``,
so a wrong length raises one ValidationError that names the argument and both
lengths, and anything that is not a flat list of numbers one that names the
argument.  The linalg entry points share one finite-entry check, and a
directly built channel whose increments are not a mapping fails validation
with the loader's message.  Increment values that float() reads but that are
not numbers (strings, bools) are refused on both paths, as are such rates,
and the Drazin inverse refuses a p that is not the generator's stationary
state.  REFUSED lists inputs that are not what they claim to be (a bool
state index or initial state, string or non-finite weights, a reservoir or
filter label that is not a string, a dot with a fractional level, a
repeated coupling, a string gamma, an entry of the wrong shape or a
coupling key given as an array or object, a ``make_twin`` level or a
``SimConfig`` count that is not an integer, a ``SimConfig`` time or an
``R_inv`` entry that is not a number, an infinite ``R_inv`` entry) and each
input check of ``shift_rate``, and BRANCHES one case for each check or
fallback that no other test reaches.
"""

from __future__ import annotations

import argparse
import json
import math
import re

import numpy as np
import pytest

from chanjump import (
    ChannelNetwork,
    DotSpec,
    NumericalError,
    Reservoir,
    SimConfig,
    TrajectoryStats,
    TransitionChannel,
    ValidationError,
    build_dot,
    dot_heat_bounds,
    dot_stationary,
    dot_totals,
    drazin_inverse,
    entropy_production,
    first_order_record_change,
    kernel_basis,
    load_network,
    make_twin,
    mean_record,
    numerical_rank,
    pseudo_inverse,
    quotient_form,
    record_hull_summary,
    record_interval,
    scgf,
    serialize_network,
    simulate,
    stationary_state,
    tilted_generator,
    tilted_null_variation,
    twin_dot_spec,
)
from chanjump.cli import cmd_bounds
from chanjump.dot import dot_spec_from_document
from chanjump.network import shift_rate

# the twin dot: N = 2 states, E = 4 channels, E0 = 2 transitions
SPEC = twin_dot_spec()
THREE = [1 / 3] * 3


def two_state_network(rate) -> ChannelNetwork:
    return ChannelNetwork(("a", "b"), (TransitionChannel(0, 1, "r", rate), TransitionChannel(1, 0, "r", 1.0)), ())


CALLS = {
    "mean_record": (
        lambda net: mean_record(net, THREE, "heat_L"),
        "probability vector has length 3, expected 2",
    ),
    "entropy_production": (
        lambda net: entropy_production(net, THREE),
        "probability vector has length 3, expected 2",
    ),
    "record_interval": (
        lambda net: record_interval(net, [1.0, 1.0, 1.0], {"heat_total": 1.0}),
        "u has length 3, expected 2 transitions",
    ),
    "record_hull_summary": (
        lambda net: record_hull_summary(net, [1.0], ["heat_L"]),
        "u has length 1, expected 2 transitions",
    ),
    "first_order_record_change/c": (
        lambda net: first_order_record_change(net, np.zeros(3), net.stationary.p, "heat_L"),
        "perturbation has length 3, expected 4 channels",
    ),
    "first_order_record_change/p": (
        lambda net: first_order_record_change(net, np.zeros(4), THREE, "heat_L"),
        "probability vector has length 3, expected 2",
    ),
    "tilted_null_variation": (
        lambda net: tilted_null_variation(net, np.zeros(5), {"heat_L": 0.1}),
        "perturbation has length 5, expected 4 channels",
    ),
    "dot_heat_bounds": (
        lambda net: dot_heat_bounds(dot_totals(SPEC), THREE, SPEC, [["L"]], [["R"]]),
        "probability vector has length 3, expected 2",
    ),
    "mean_record/strings": (
        lambda net: mean_record(net, ["a", "b"], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "mean_record/ragged": (
        lambda net: mean_record(net, [[0.5], [0.5, 0.0]], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "mean_record/2-D": (
        lambda net: mean_record(net, [[0.5], [0.5]], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "mean_record/int past the largest double": (
        lambda net: mean_record(net, [10**400, 0], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "quotient_form.cost": (
        lambda net: quotient_form(net).cost([1.0, 2.0, 3.0]),
        "u has length 3, expected 2 transitions",
    ),
    "drazin_inverse/short": (
        lambda net: drazin_inverse(net.generator, [0.5]),
        "probability vector has length 1, expected 2",
    ),
    "drazin_inverse/long": (
        lambda net: drazin_inverse(net.generator, THREE),
        "probability vector has length 3, expected 2",
    ),
    "ChannelNetwork/bool rate": (
        lambda net: two_state_network(True),
        "channel 0: rate must be a number",
    ),
    "ChannelNetwork/numpy bool rate": (
        lambda net: two_state_network(np.True_),
        "channel 0: rate must be a number",
    ),
    "ChannelNetwork/string rate": (
        lambda net: two_state_network("1.5"),
        "channel 0: rate must be a number",
    ),
    "mean_record/numeric strings": (
        lambda net: mean_record(net, ["0.5", "0.5"], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "mean_record/bool list": (
        lambda net: mean_record(net, [True, False], "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
    "mean_record/bool array": (
        lambda net: mean_record(net, np.array([True, False]), "heat_L"),
        "probability vector must be a flat list of numbers",
    ),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_wrong_length_vector_names_the_argument_and_both_lengths(name):
    call, message = CALLS[name]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(build_dot(SPEC))


@pytest.mark.parametrize("function", [pseudo_inverse, numerical_rank, kernel_basis, stationary_state, drazin_inverse])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_linalg_entry_points_refuse_non_finite_matrices(function, bad):
    with pytest.raises(NumericalError, match=f"^{function.__name__} requires finite entries$"):
        function([[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("increments", [None, [("x", 1.0)], "x1"], ids=["None", "pairs", "string"])
def test_increments_that_are_not_a_mapping_are_a_validation_error(increments):
    channels = (TransitionChannel(0, 1, "r", 1.0, increments=increments), TransitionChannel(1, 0, "r", 1.0))
    with pytest.raises(ValidationError, match="^channel 0: 'increments' must be an object$"):
        ChannelNetwork(("a", "b"), channels, ("x",))


def test_the_loader_gives_the_same_message_for_increments_that_are_not_an_object():
    doc = {
        "states": ["a", "b"],
        "records": ["x"],
        "channels": [
            {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0, "increments": [["x", 1.0]]},
            {"from": "b", "to": "a", "reservoir": "r", "rate": 1.0},
        ],
    }
    with pytest.raises(ValidationError, match="^channel 0: 'increments' must be an object$"):
        load_network(doc)


@pytest.mark.parametrize("value", ["1", "2.5", True, False])
def test_increments_that_are_strings_or_bools_are_refused(value):
    doc = {
        "states": ["a", "b"],
        "records": ["x"],
        "channels": [
            {"from": "a", "to": "b", "reservoir": "r", "rate": 1.0, "increments": {"x": 1.0}},
            {"from": "b", "to": "a", "reservoir": "r", "rate": 1.0, "increments": {"x": value}},
        ],
    }
    for document in (doc, json.dumps(doc)):
        with pytest.raises(ValidationError, match="^channel 1: increments must be numbers$"):
            load_network(document)
    channels = (
        TransitionChannel(0, 1, "r", 1.0, increments={"x": 1.0}),
        TransitionChannel(1, 0, "r", 1.0, increments={"x": value}),
    )
    with pytest.raises(ValidationError, match="^channel 1: increments must be numbers$"):
        ChannelNetwork(("a", "b"), channels, ("x",))


@pytest.mark.parametrize(
    "p, message",
    [
        ([0.5, 0.5], "p is not the stationary state of L"),
        ([2.0, -1.0], "p must be a probability vector"),
        ([np.nan, 0.5], "p must be a probability vector"),
    ],
)
def test_drazin_inverse_refuses_a_p_that_is_not_stationary(p, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        drazin_inverse(build_dot(SPEC).generator, p)


def test_an_int_rate_is_a_number():
    assert two_state_network(2).arrays.rate.tolist() == [2.0, 1.0]
    assert two_state_network(np.int64(3)).arrays.rate.tolist() == [3.0, 1.0]


def test_every_probability_argument_takes_the_stationary_state_itself():
    net = build_dot(SPEC)
    assert mean_record(net, net.stationary, "heat_L") == mean_record(net, net.stationary.p, "heat_L")
    assert entropy_production(net, net.stationary) == entropy_production(net, net.stationary.p)
    assert drazin_inverse(net.generator, net.stationary).tobytes() == drazin_inverse(net.generator, net.stationary.p).tobytes()


def test_drazin_inverse_accepts_the_stationary_state():
    net = build_dot(SPEC)
    for p in (net.stationary.p, dot_stationary(dot_totals(SPEC))):
        R = drazin_inverse(net.generator, p)
        assert np.abs(net.generator.matrix @ R - (np.eye(2) - np.outer(p, np.ones(2)))).max() < 1e-12


def dot_document(**changes) -> str:
    """A two-level dot model file; ``changes`` replace its top-level 'dot' entries or, by name, its first coupling."""
    doc = {
        "levels": [1.0, 0.3],
        "reservoirs": [{"name": "L", "mu": 0.5, "T": 1.0}, {"name": "R", "mu": -0.5, "T": 1.0}],
        "couplings": [{"level": 0, "reservoir": "L", "gamma": 1.0}, {"level": 0, "reservoir": "R", "gamma": 1.0},
                      {"level": 1, "reservoir": "L", "gamma": 1.0}],
    }
    for key, value in changes.items():
        (doc if key in doc else doc["couplings"][0])[key] = value
    return json.dumps({"dot": doc})


def dot_spec(gamma=1.0, temperature=1.0, key=(0, "L", ""), name="L") -> DotSpec:
    """A two-level dot with one reservoir and one coupling."""
    return DotSpec((1.0, 0.3), (Reservoir(name, 0.0, temperature),), {key: gamma})


def two_level_dot() -> ChannelNetwork:
    """The twin dot's reservoirs, both coupled to each of two levels."""
    return build_dot(DotSpec((1.0, 0.3), SPEC.reservoirs, {(i, name, ""): 1.0 for i in (0, 1) for name in "LR"}))


def simulate_from(initial):
    return simulate(build_dot(SPEC), SimConfig(n_trajectories=1, seed=0, t_max=1.0, initial=initial))


def labelled_document(**labels) -> str:
    """A two-state model file whose second channel has the given reservoir and filter labels."""
    channels = [{"from": "a", "to": "b", "reservoir": "r", "rate": 1.0}, {"from": "b", "to": "a", "rate": 1.0, **labels}]
    return json.dumps({"states": ["a", "b"], "records": [], "channels": channels})


REPEATED = json.loads(dot_document())
REPEATED["dot"]["couplings"].append(REPEATED["dot"]["couplings"][0])

# inputs that once built a network, ran, or escaped as a bare TypeError or ValueError
REFUSED = {
    "ChannelNetwork/bool state index": (
        lambda: ChannelNetwork(("a", "b"), (TransitionChannel(True, 0, "r", 1.0), TransitionChannel(0, 1, "r", 1.0)), ()),
        "channel 0: state index must be an integer in [0, 2)",
    ),
    "simulate/bool initial": (lambda: simulate_from(True), "initial must be a probability vector over the states"),
    "simulate/string initial": (lambda: simulate_from(["a", "b"]), "initial must be a probability vector over the states"),
    "simulate/ragged initial": (
        lambda: simulate_from([[0.5], [0.5, 0.0]]),
        "initial must be a probability vector over the states",
    ),
    "record_interval/string weight": (
        lambda: record_interval(build_dot(SPEC), [1.0, 1.0], {"heat_L": "1"}),
        "weight of record 'heat_L' must be a number",
    ),
    "scgf/string field": (
        lambda: scgf(build_dot(SPEC), {"heat_L": "0.1"}),
        "weight of record 'heat_L' must be a number",
    ),
    "tilted_generator/NaN field": (
        lambda: tilted_generator(build_dot(SPEC), {"heat_R": 0.5, "heat_L": math.nan}),
        "weight of record 'heat_L' must be finite, got nan",
    ),
    "tilted_generator/bool field": (
        lambda: tilted_generator(build_dot(SPEC), {"heat_L": True}),
        "weight of record 'heat_L' must be a number",
    ),
    "tilted_generator/int past the largest double": (
        lambda: tilted_generator(build_dot(SPEC), {"heat_L": 10**400}),
        "weight of record 'heat_L' is too large for a float",
    ),
    "DotSpec/string gamma": (lambda: dot_spec(gamma="2.5"), "coupling (0, 'L', ''): gamma must be a number"),
    "DotSpec/None gamma": (lambda: dot_spec(gamma=None), "coupling (0, 'L', ''): gamma must be a number"),
    "DotSpec/NaN T": (lambda: dot_spec(temperature=math.nan), "reservoir 'L' needs a finite mu and temperature > 0"),
    "DotSpec/bool level": (lambda: dot_spec(key=(True, "L", "")), "coupling references unknown level True"),
    "DotSpec/filter not a string": (
        lambda: dot_spec(key=(0, "L", 1)),
        "coupling filter must be a string, got 1",
    ),
    "DotSpec/empty reservoir name": (lambda: dot_spec(name=""), "reservoir names must be nonempty strings"),
    "dot/level 1.7": (
        lambda: load_network(dot_document(level=1.7)),
        "malformed 'dot' description: coupling references unknown level 1.7",
    ),
    "dot/levels a string": (
        lambda: load_network(dot_document(levels="12")),
        "malformed 'dot' description: 'levels' must be an array",
    ),
    "dot/repeated coupling": (
        lambda: load_network(REPEATED),
        "malformed 'dot' description: coupling (0, 'L', '') appears twice",
    ),
    "dot/string gamma": (
        lambda: load_network(dot_document(gamma="2.5")),
        "malformed 'dot' description: coupling (0, 'L', ''): gamma must be a number",
    ),
    "dot/bool gamma": (
        lambda: load_network(dot_document(gamma=True)),
        "malformed 'dot' description: coupling (0, 'L', ''): gamma must be a number",
    ),
    "dot/NaN T": (
        lambda: load_network(dot_document(reservoirs=[{"name": "L", "mu": 0.5, "T": math.nan}])),
        "malformed 'dot' description: reservoir 'L' needs a finite mu and temperature > 0",
    ),
    "dot/coupling without gamma": (
        lambda: load_network(dot_document(couplings=[{"level": 0, "reservoir": "L"}])),
        "malformed 'dot' description: coupling 0 has no 'gamma'",
    ),
    "dot/reservoir an array": (
        lambda: load_network(dot_document(reservoirs=[["L", 0.5, 1.0]])),
        "malformed 'dot' description: reservoir 0 must be an object",
    ),
    "load_network/reservoir a number": (
        lambda: load_network(labelled_document(reservoir=5)),
        "channel 1: reservoir must be a string, got 5",
    ),
    "load_network/filter null": (
        lambda: load_network(labelled_document(filter=None)),
        "channel 1: filter must be a string, got None",
    ),
    "ChannelNetwork/reservoir None": (
        lambda: ChannelNetwork(("a", "b"), (TransitionChannel(0, 1, "r", 1.0), TransitionChannel(1, 0, None, 1.0)), ()),
        "channel 1: reservoir must be a string, got None",
    ),
    "ChannelNetwork/filter a number": (
        lambda: ChannelNetwork(("a", "b"), (TransitionChannel(0, 1, "r", 1.0, 2.5), TransitionChannel(1, 0, "r", 1.0)), ()),
        "channel 0: filter must be a string, got 2.5",
    ),
    "dot/level an array": (
        lambda: load_network(dot_document(level=[0])),
        "malformed 'dot' description: coupling 0: 'level' must not be an array or an object, got [0]",
    ),
    "dot/reservoir of a coupling an array": (
        lambda: load_network(dot_document(reservoir=["L"])),
        "malformed 'dot' description: coupling 0: 'reservoir' must not be an array or an object, got ['L']",
    ),
    "dot/filter an object": (
        lambda: load_network(dot_document(filter={"x": 1})),
        "malformed 'dot' description: coupling 0: 'filter' must not be an array or an object, got {'x': 1}",
    ),
    # shift_rate's input checks, on the twin dot: channels 0 and 1 enter the level, 2 and 3 leave it
    "shift_rate/bool index": (
        lambda: shift_rate(build_dot(SPEC), True, 1, 0.1),
        "channel index must be an integer in [0, 4), got True",
    ),
    "shift_rate/float index": (
        lambda: shift_rate(build_dot(SPEC), 0.0, 1, 0.1),
        "channel index must be an integer in [0, 4), got 0.0",
    ),
    "shift_rate/index past the channels": (
        lambda: shift_rate(build_dot(SPEC), 0, 4, 0.1),
        "channel index must be an integer in [0, 4), got 4",
    ),
    "shift_rate/negative index": (
        lambda: shift_rate(build_dot(SPEC), -1, 1, 0.1),
        "channel index must be an integer in [0, 4), got -1",
    ),
    "shift_rate/gain is lose": (
        lambda: shift_rate(build_dot(SPEC), 1, 1, 0.1),
        "gain 1 and lose 1 must be two channels of one transition",
    ),
    "shift_rate/two transitions": (
        lambda: shift_rate(build_dot(SPEC), 0, 2, 0.1),
        "gain 0 and lose 2 must be two channels of one transition",
    ),
    "shift_rate/string eta": (lambda: shift_rate(build_dot(SPEC), 0, 1, "0.1"), "eta must be a number"),
    "shift_rate/NaN eta": (
        lambda: shift_rate(build_dot(SPEC), 0, 1, math.nan),
        "eta nan out of range; must keep rates in [-0.377541, 0.182426] nonnegative",
    ),
    "shift_rate/eta past the losing rate": (
        lambda: shift_rate(build_dot(SPEC), 0, 1, 0.5),
        "eta 0.5 out of range; must keep rates in [-0.377541, 0.182426] nonnegative",
    ),
    "shift_rate/eta past the gaining rate": (
        lambda: shift_rate(build_dot(SPEC), 0, 1, -0.4),
        "eta -0.4 out of range; must keep rates in [-0.377541, 0.182426] nonnegative",
    ),
    "shift_rate/transition total past the largest double": (
        lambda: shift_rate(network_of(("a", "b"), [(0, 1, "L", 1e308), (0, 1, "R", 1e308), (1, 0, "L", 1.0)]), 0, 1, 0.5),
        "state 'a': total escape rate overflows",
    ),
    # a level is an integer in [0, levels), on a dot with two levels: not a bool, a float, None or a string
    "make_twin/bool level": (lambda: make_twin(two_level_dot(), True, "L", "R", 0.1), "level True out of range"),
    "make_twin/float level": (lambda: make_twin(two_level_dot(), 1.0, "L", "R", 0.1), "level 1.0 out of range"),
    "make_twin/None level": (lambda: make_twin(two_level_dot(), None, "L", "R", 0.1), "level None out of range"),
    "make_twin/string level": (lambda: make_twin(two_level_dot(), "0", "L", "R", 0.1), "level '0' out of range"),
    "make_twin/negative level": (lambda: make_twin(two_level_dot(), -1, "L", "R", 0.1), "level -1 out of range"),
    # SimConfig's counts are integers and its times numbers
    "SimConfig/bool n_trajectories": (
        lambda: SimConfig(n_trajectories=True, seed=0, t_max=1.0),
        "n_trajectories must be an integer, got True",
    ),
    "SimConfig/bool seed": (lambda: SimConfig(n_trajectories=1, seed=True, t_max=1.0), "seed must be an integer, got True"),
    "SimConfig/bool max_jumps": (
        lambda: SimConfig(n_trajectories=1, seed=0, max_jumps=True),
        "max_jumps must be an integer, got True",
    ),
    "SimConfig/float n_trajectories": (
        lambda: SimConfig(n_trajectories=2.5, seed=0, t_max=1.0),
        "n_trajectories must be an integer, got 2.5",
    ),
    "SimConfig/float seed": (lambda: SimConfig(n_trajectories=1, seed=1.5, t_max=1.0), "seed must be an integer, got 1.5"),
    "SimConfig/float max_jumps": (
        lambda: SimConfig(n_trajectories=1, seed=0, max_jumps=2.5),
        "max_jumps must be an integer, got 2.5",
    ),
    "SimConfig/string t_max": (lambda: SimConfig(n_trajectories=1, seed=0, t_max="1"), "t_max must be a number"),
    "SimConfig/None burn_in": (
        lambda: SimConfig(n_trajectories=1, seed=0, t_max=1.0, burn_in=None),
        "burn_in must be a number",
    ),
    # a supplied R_inv is a finite diagonal of numbers (the twin dot has 4 channels)
    "quotient_form/string R_inv entries": (
        lambda: quotient_form(build_dot(SPEC), ["1", "2", "3", "4"]),
        "R_inv must be a flat list of numbers",
    ),
    "quotient_form/bool R_inv entries": (
        lambda: quotient_form(build_dot(SPEC), [True] * 4),
        "R_inv must be a flat list of numbers",
    ),
    "quotient_form/infinite R_inv entry": (
        lambda: quotient_form(build_dot(SPEC), [1.0, 2.0, 3.0, math.inf]),
        "R_inv diagonal must be finite and strictly positive",
    ),
    "quotient_form/R_inv a string": (lambda: quotient_form(build_dot(SPEC), "abcd"), "R_inv must be a length-4 diagonal"),
    "quotient_form/one R_inv entry a string": (
        lambda: quotient_form(build_dot(SPEC), [1, 2, 3, "x"]),
        "R_inv must be a flat list of numbers",
    ),
}


@pytest.mark.parametrize("name", REFUSED)
def test_input_that_is_not_what_it_claims_is_refused(name):
    call, message = REFUSED[name]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def network_of(states, channels, records=()) -> ChannelNetwork:
    return ChannelNetwork(states, tuple(TransitionChannel(*c) for c in channels), records)


BACK_AND_FORTH = [(0, 1, "r", 1.0), (1, 0, "r", 1.0)]
# a -> b through two reservoirs, the second at rate 0: no stationary traffic on channel 1
SILENT = network_of(("a", "b"), [(0, 1, "r", 1.0), (0, 1, "s", 0.0), (1, 0, "r", 1.0)])
# two separate pairs, so no unique stationary state; only a -> b counts x
SPLIT = network_of(
    ("a", "b", "c", "d"),
    [(0, 1, "r", 1.0, "", {"x": 1.0}), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)],
    ("x",),
)


def stats(elapsed: float) -> TrajectoryStats:
    return TrajectoryStats({"x": 3.0}, np.zeros(2), elapsed, 3, False, np.zeros(2))


def bounds_with_a_missing_u_file():
    with open("twin.json", "w") as handle:
        handle.write(serialize_network(build_dot(SPEC)))
    cmd_bounds(argparse.Namespace(model="twin.json", direction=["heat_total=1"], u_file="missing.json"))


# one case per branch that no other test reaches: a refusal gives its message, an accepting path its value
BRANCHES = {
    "ChannelNetwork/one state": (lambda: network_of(("a",), BACK_AND_FORTH), "a network needs at least 2 states"),
    "ChannelNetwork/duplicate state": (lambda: network_of(("a", "a"), BACK_AND_FORTH), "duplicate state name"),
    "ChannelNetwork/empty state name": (
        lambda: network_of(("a", ""), BACK_AND_FORTH),
        "state names must be nonempty strings, got ''",
    ),
    "ChannelNetwork/state name not a string": (
        lambda: network_of(("a", 1), BACK_AND_FORTH),
        "state names must be nonempty strings, got 1",
    ),
    "ChannelNetwork/empty record name": (
        lambda: network_of(("a", "b"), BACK_AND_FORTH, ("",)),
        "record names must be nonempty",
    ),
    "load_network/array document": (lambda: load_network("[]"), "model document must be a JSON object"),
    "load_network/states not an array": (
        lambda: load_network({"states": "ab", "records": [], "channels": []}),
        "'states' must be an array",
    ),
    "load_network/records not an array": (
        lambda: load_network({"states": ["a", "b"], "records": "x", "channels": []}),
        "'records' must be an array",
    ),
    "load_network/entry without rate": (
        lambda: load_network({"states": ["a", "b"], "records": [], "channels": [{"from": "a", "to": "b"}]}),
        "channel 0: missing key 'rate'",
    ),
    "DotSpec/no level": (lambda: DotSpec((), (Reservoir("L", 0.0, 1.0),), {}), "dot needs at least one level"),
    "DotSpec/no reservoir": (lambda: DotSpec((1.0,), (), {}), "dot needs at least one reservoir"),
    "DotSpec/duplicate reservoir": (
        lambda: DotSpec((1.0,), (Reservoir("L", 0.0, 1.0), Reservoir("L", 1.0, 1.0)), {}),
        "duplicate reservoir name",
    ),
    "DotSpec/reservoir named total": (lambda: dot_spec(name="total"), "reservoir name 'total' is reserved"),
    "DotSpec.reservoir/unknown name": (lambda: SPEC.reservoir("X"), "unknown reservoir 'X'"),
    "dot_spec_from_document/not an object": (
        lambda: dot_spec_from_document([]),
        "malformed 'dot' description: not an object",
    ),
    "dot_spec_from_document/missing key": (
        lambda: dot_spec_from_document({"levels": [1.0], "reservoirs": []}),
        "malformed 'dot' description: 'couplings' must be an array",
    ),
    "make_twin/level out of range": (
        lambda: make_twin(build_dot(SPEC), 5, "L", "R", 0.1),
        "level 5 out of range",
    ),
    "make_twin/gain is lose": (
        lambda: make_twin(build_dot(SPEC), 0, "L", "L", 0.1),
        "gain and lose reservoirs must differ",
    ),
    "dot_heat_bounds/allowed sets of the wrong length": (
        lambda: dot_heat_bounds(dot_totals(SPEC), [0.5, 0.5], SPEC, [["L"], ["R"]], [["L"]]),
        "allowed reservoir sets must be given per level",
    ),
    "quotient_form/zero stationary traffic": (
        lambda: quotient_form(SILENT),
        "stationary traffic is not strictly positive; supply R_inv explicitly",
    ),
    "quotient_form/E x E diagonal R_inv": (
        lambda: quotient_form(SILENT, np.diag([1.0, 3.0, 2.0])).Q,
        np.diag([0.25, 0.5]),
    ),
    "quotient_form/wrong-length R_inv": (
        lambda: quotient_form(SILENT, [1.0, 2.0]),
        "R_inv must be a length-3 diagonal",
    ),
    "drazin_inverse/without p": (
        lambda: drazin_inverse(two_state_network(1.0).generator),
        [[-0.25, 0.25], [0.25, -0.25]],
    ),
    "numerical_rank/zero matrix": (lambda: numerical_rank(np.zeros((2, 3))), 0),
    # the a-b block gives -1 + sqrt(e^chi) = 1 at chi = ln 4, the c-d block 0
    "scgf/no stationary state": (lambda: scgf(SPLIT, {"x": math.log(4.0)}), 1.0),
    "cli bounds/unreadable u file": (
        bounds_with_a_missing_u_file,
        "cannot read u file: [Errno 2] No such file or directory: 'missing.json'",
    ),
    "TrajectoryStats.rates": (lambda: list(stats(2.0).rates().values()), [1.5]),
    "TrajectoryStats.rates/no time elapsed": (lambda: list(stats(0.0).rates().values()), [math.nan]),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_every_branch_is_reached(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, expected = BRANCHES[name]
    if isinstance(expected, str):
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            call()
    else:
        np.testing.assert_allclose(call(), expected, rtol=1e-12, atol=1e-15)
