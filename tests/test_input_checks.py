"""Shared input checks: vector lengths, finite matrices, increment maps.

Every vector argument of the library goes through ``network.checked_vector``,
so a wrong length raises one ValidationError that names the argument and both
lengths, and anything that is not a flat list of numbers one that names the
argument.  The linalg entry points share one finite-entry check, and a
directly built channel whose increments are not a mapping fails validation
with the loader's message.  Increment values that float() reads but that are
not numbers (strings, bools) are refused on both paths, as are such rates,
and the Drazin inverse refuses a p that is not the generator's stationary
state.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from chanjump import (
    ChannelNetwork,
    NumericalError,
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
    mean_record,
    numerical_rank,
    pseudo_inverse,
    quotient_form,
    record_hull_summary,
    record_interval,
    tilted_null_variation,
    twin_dot_spec,
)

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
}


@pytest.mark.parametrize("name", CALLS)
def test_a_wrong_length_vector_names_the_argument_and_both_lengths(name):
    call, message = CALLS[name]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(build_dot(SPEC))


@pytest.mark.parametrize("function", [pseudo_inverse, numerical_rank, kernel_basis])
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


def test_drazin_inverse_accepts_the_stationary_state():
    net = build_dot(SPEC)
    for p in (net.stationary.p, dot_stationary(dot_totals(SPEC))):
        R = drazin_inverse(net.generator, p)
        assert np.abs(net.generator.matrix @ R - (np.eye(2) - np.outer(p, np.ones(2)))).max() < 1e-12
