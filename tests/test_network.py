from __future__ import annotations

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import (
    ValidationError,
    build_dot,
    build_generator,
    build_projection,
    build_record_map,
    channel_counts,
    load_network,
    serialize_network,
    twin_dot_spec,
)
import chanjump.network as network_module
from chanjump.network import ChannelNetwork, TransitionChannel

from conftest import F_L, GAMMA_MINUS, GAMMA_PLUS, make_network, random_network

MINIMAL = {
    "states": ["a", "b"],
    "records": ["heat"],
    "channels": [
        {"from": "a", "to": "b", "reservoir": "L", "rate": 1.0, "increments": {"heat": -0.5}}
    ],
}


def test_load_minimal_document():
    net = load_network(json.dumps(MINIMAL))
    assert net.n_states == 2
    assert net.n_channels == 1
    assert net.records == ("heat",)
    ch = net.channels[0]
    assert (ch.from_state, ch.to_state, ch.reservoir, ch.rate) == (0, 1, "L", 1.0)
    assert ch.increment("heat") == -0.5


def test_load_negative_rate_names_channel():
    doc = dict(MINIMAL, channels=[dict(MINIMAL["channels"][0], rate=-0.1)])
    with pytest.raises(ValidationError, match="channel 0"):
        load_network(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d["channels"][0].update({"from": "zz"}), "unknown state"),
        (lambda d: d["channels"][0].update({"to": "a"}), "self-transition"),
        (lambda d: d["channels"][0]["increments"].update({"bogus": 1.0}), "undeclared record"),
        (lambda d: d.update({"states": ["a", "a"]}), "duplicate state"),
        (lambda d: d.update({"states": ["a"]}), "at least 2 states"),
        (lambda d: d.update({"channels": []}), "at least 1 channel"),
        (lambda d: d.update({"records": ["heat", "heat"]}), "duplicate record"),
    ],
)
def test_load_validation_errors(mutate, match):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ValidationError, match=match):
        load_network(json.dumps(doc))


def test_load_malformed_json():
    with pytest.raises(ValidationError, match="malformed"):
        load_network("{not json")


def test_load_missing_keys():
    with pytest.raises(ValidationError, match="missing key"):
        load_network(json.dumps({"states": ["a", "b"]}))


def test_twin_dot_roundtrip_through_serializer(twin_net):
    text = serialize_network(twin_net)
    again = load_network(text)
    assert again.states == twin_net.states
    assert again.records == twin_net.records
    assert again.n_channels == 4
    assert len(again.records) >= 2
    for ch_a, ch_b in zip(twin_net.channels, again.channels):
        assert ch_a.rate == ch_b.rate  # bit identical
        assert ch_a.reservoir == ch_b.reservoir
        assert dict(ch_a.increments) == dict(ch_b.increments)
    # deterministic emission
    assert serialize_network(again) == text


def test_dot_document_key():
    doc = {
        "dot": {
            "levels": [1.0],
            "reservoirs": [
                {"name": "L", "mu": 0.5, "T": 1.0},
                {"name": "R", "mu": -0.5, "T": 1.0},
            ],
            "couplings": [
                {"level": 0, "reservoir": "L", "gamma": 1.0},
                {"level": 0, "reservoir": "R", "gamma": 1.0},
            ],
        }
    }
    net = load_network(json.dumps(doc))
    ref = build_dot(twin_dot_spec())
    assert net == ref


def test_dot_key_exclusive():
    with pytest.raises(ValidationError, match="exclusive"):
        load_network(json.dumps({"dot": {}, "states": []}))


def test_generator_two_state():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 2.0)], [])
    L = build_generator(net).matrix
    assert np.array_equal(L, np.array([[-1.0, 2.0], [1.0, -2.0]]))


def test_generator_parallel_channels_sum():
    net = make_network(["a", "b"], [(0, 1, "x", 0.3), (0, 1, "y", 0.7), (1, 0, "x", 1.0)], [])
    L = build_generator(net).matrix
    assert L[1, 0] == 1.0


def test_generator_twin_dot_totals(twin_net):
    L = build_generator(twin_net).matrix
    assert L[1, 0] == GAMMA_PLUS
    assert L[0, 1] == GAMMA_MINUS


def test_generator_columns_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = random_network(rng)
        L = build_generator(net).matrix
        maxrate = max(ch.rate for ch in net.channels)
        assert np.abs(L.sum(axis=0)).max() <= 1e-12 * max(1.0, maxrate)
        off = L - np.diag(np.diag(L))
        assert off.min() >= 0.0


def test_generator_permutation_invariant_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_network(rng)
        L = build_generator(net).matrix
        perm = rng.permutation(net.n_channels)
        shuffled = ChannelNetwork(
            states=net.states,
            channels=tuple(net.channels[i] for i in perm),
            records=net.records,
        )
        assert np.array_equal(build_generator(shuffled).matrix, L)


def test_projection_twin_dot(twin_net):
    proj = build_projection(twin_net)
    assert proj.transitions == ((0, 1), (1, 0))
    assert np.array_equal(proj.P, np.array([[1.0, 1, 0, 0], [0, 0, 1, 1]]))
    assert np.array_equal(proj.B, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_projection_identity_when_one_channel_per_transition():
    net = make_network(["a", "b", "c"], [(0, 1, "r", 1.0), (1, 2, "r", 1.0)], [])
    proj = build_projection(net)
    assert np.array_equal(proj.P, np.eye(2))


def test_projection_three_state_cycle():
    chans = [(i, j, "r", 1.0) for i in range(3) for j in range(3) if i != j]
    net = make_network(["a", "b", "c"], chans, [])
    proj = build_projection(net)
    assert np.array_equal(proj.P, np.eye(6))
    assert proj.B.shape == (3, 6)
    for k, (m, n) in enumerate(proj.transitions):
        col = np.zeros(3)
        col[n], col[m] = 1.0, -1.0
        assert np.array_equal(proj.B[:, k], col)


def test_projection_column_structure_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_network(rng)
        proj = build_projection(net)
        assert np.array_equal(proj.P.sum(axis=0), np.ones(net.n_channels))
        assert np.array_equal(np.abs(proj.B).sum(axis=0), 2 * np.ones(len(proj.transitions)))
        assert np.array_equal(proj.B.sum(axis=0), np.zeros(len(proj.transitions)))


def test_record_map_twin_dot(twin_net):
    D = build_record_map(twin_net, ["heat_L", "heat_R"]).D
    assert np.array_equal(D, np.array([[-0.5, 0.0, 0.5, 0.0], [0.0, -1.5, 0.0, 1.5]]))


def test_record_map_empty_selection(twin_net):
    D = build_record_map(twin_net, []).D
    assert D.shape == (0, 4)


def test_record_map_missing_increment_reads_zero():
    net = make_network(
        ["a", "b"], [(0, 1, "r", 1.0, "", {"q": 2.0}), (1, 0, "r", 1.0)], ["q", "w"]
    )
    D = build_record_map(net, ["q", "w"]).D
    assert np.array_equal(D, np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_record_map_unknown_record(twin_net):
    with pytest.raises(ValidationError, match="unknown record"):
        build_record_map(twin_net, ["nope"])


def test_channel_counts(twin_net):
    assert channel_counts(twin_net) == (4, 2)
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 1.0)], [])
    assert channel_counts(net) == (2, 2)


def test_duplicate_channels_both_counted():
    net = make_network(["a", "b"], [(0, 1, "r", 0.5), (0, 1, "r", 0.5), (1, 0, "r", 1.0)], [])
    assert channel_counts(net) == (3, 2)


def test_zero_rate_channels_are_structural():
    net = make_network(["a", "b"], [(0, 1, "x", 0.0), (0, 1, "y", 1.0), (1, 0, "x", 1.0)], [])
    assert channel_counts(net) == (3, 2)
    proj = build_projection(net)
    assert proj.P.shape == (2, 3)


def test_bp_current_equals_generator_action():
    # B P j(p) = L p with j_e = rate_e p_from(e)
    rng = np.random.default_rng(21)
    for _ in range(40):
        net = random_network(rng, max_parallel=3)
        if net.n_channels > 30:
            continue
        L = build_generator(net).matrix
        proj = build_projection(net)
        p = rng.random(net.n_states)
        p /= p.sum()
        j = np.array([ch.rate * p[ch.from_state] for ch in net.channels])
        lhs = proj.B @ (proj.P @ j)
        assert np.abs(lhs - L @ p).max() < 1e-12 * max(1.0, np.abs(L).max())


def test_cached_generator_and_stationary_state_match_a_fresh_solve():
    from chanjump import stationary_state

    for seed in range(5):
        net = random_network(np.random.default_rng(seed))
        assert np.array_equal(net.generator.matrix, build_generator(net).matrix)
        assert np.array_equal(net.stationary.p, stationary_state(build_generator(net)).p)
        assert net.generator is net.generator and net.stationary is net.stationary


def test_non_ergodic_network_raises_on_every_stationary_access(monkeypatch):
    from chanjump import NonErgodicError, linalg

    net = make_network(
        ["a", "b", "c", "d"],
        [(0, 1, "r", 1.0), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)],
        [],
    )
    solves = []
    solve = linalg.stationary_state
    monkeypatch.setattr(linalg, "stationary_state", lambda L: solves.append(L) or solve(L))
    for _ in range(3):
        with pytest.raises(NonErgodicError, match="null space dimension 2"):
            net.stationary
    # the failed solve is cached like a successful one: one SVD for every access
    assert len(solves) == 1 and solves[0] is net.generator


@pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0), "1"])
def test_a_state_index_that_is_not_an_integer_is_refused(index):
    channels = (TransitionChannel(0, index, "r", 1.0), TransitionChannel(1, 0, "r", 1.0))
    with pytest.raises(ValidationError, match=r"^channel 0: state index must be an integer in \[0, 3\)$"):
        ChannelNetwork(("a", "b", "c"), channels, ())


def test_a_numpy_integer_state_index_is_accepted():
    def network(index):
        channels = (TransitionChannel(index(0), index(2), "r", 1.0), TransitionChannel(2, index(1), "r", 0.5))
        return ChannelNetwork(("a", "b", "c"), channels, ())

    ints, numpy_ints = network(int).arrays, network(np.int64).arrays
    for name in ("from_state", "to_state", "transition", "rate", "increments", "counts", "grouped", "pairs"):
        assert np.array_equal(getattr(numpy_ints, name), getattr(ints, name)), name
    assert numpy_ints.transitions == ints.transitions and numpy_ints.spans == ints.spans


# three states, so 3 is n; the numpy ones are the only indices in [0, 3) drawn
_INDEX_DRAWS = [True, np.True_, 1.0, np.int8(1), np.uint64(1), -1, 3, 2**70, "1", None]


class _BulkRefused(Exception):
    pass


def _refuse(*columns):
    raise _BulkRefused


@settings(max_examples=200, deadline=None, derandomize=True)
@given(draws=st.lists(st.tuples(st.booleans(), st.sampled_from(_INDEX_DRAWS)), min_size=1, max_size=4))
def test_the_bulk_check_and_the_channel_loop_refuse_exactly_the_non_indices(draws):
    # each draw is the source (True) or the target of one channel; the other end is a state it differs from
    channels = tuple(TransitionChannel(i, 0, "r", 1.0) if source else TransitionChannel(2, i, "r", 1.0) for source, i in draws)
    bad = [e for e, (_, i) in enumerate(draws) if type(i) not in (np.int8, np.uint64)]
    with mock.patch.object(network_module, "_first_bad_channel", _refuse):
        try:
            ChannelNetwork(("a", "b", "c"), channels, ())
            bulk_accepts = True
        except _BulkRefused:
            bulk_accepts = False
    assert bulk_accepts == (not bad)

    columns = ([ch.from_state for ch in channels], [ch.to_state for ch in channels],
               ["r"] * len(channels), [""] * len(channels), [1.0] * len(channels), [{}] * len(channels))
    if not bad:
        assert network_module._first_bad_channel(3, (), *columns) is None
        return
    message = f"^{re.escape(f'channel {bad[0]}: state index must be an integer in [0, 3)')}$"
    with pytest.raises(ValidationError, match=message):
        network_module._first_bad_channel(3, (), *columns)
    with pytest.raises(ValidationError, match=message):
        ChannelNetwork(("a", "b", "c"), channels, ())


def test_numpy_integer_indices_give_the_int_network_s_transitions_and_entropy():
    from chanjump import entropy_production

    def network(index, channels):
        return ChannelNetwork(("a", "b", "c"), tuple(
            TransitionChannel(index(i), index(j), res, rate) for i, j, res, rate in channels
        ), ())

    paired = [(0, 1, "r", 1.0), (1, 0, "r", 2.0), (1, 2, "r", 1.0), (2, 1, "s", 0.5), (1, 2, "s", 0.25), (2, 1, "r", 0.0)]
    ints, numpy_ints = network(int, paired), network(np.int64, paired)
    assert numpy_ints.transitions() == ints.transitions() == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert all(type(i) is int for pair in numpy_ints.transitions() for i in pair)
    p = [0.5, 0.25, 0.25]
    assert entropy_production(numpy_ints, p) == entropy_production(ints, p)
    assert "unidirectional resolved pairs: [('r', '', 1, 2)]" in entropy_production(numpy_ints, p).note

    unpaired = [(0, 1, "r", 1.0), (1, 2, "r", 1.0)]
    for index in (int, np.int64):
        with pytest.raises(ValidationError, match=r"^channel group \('r', '', 0, 1\) has no reverse partner$"):
            entropy_production(network(index, unpaired), [1 / 3] * 3)


@pytest.mark.parametrize(
    "rate, increment, message",
    [
        ("1", 0.0, "channel 0: rate must be a number"),
        (None, 0.0, "channel 0: rate must be a number"),
        (10**400, 0.0, "channel 0: rate is too large for a float"),
        (1.0, "abc", "channel 0: increments must be numbers"),
        (1.0, None, "channel 0: increments must be numbers"),
    ],
)
def test_a_non_numeric_rate_or_increment_is_a_validation_error(rate, increment, message):
    channels = (TransitionChannel(0, 1, "r", rate, increments={"x": increment}), TransitionChannel(1, 0, "r", 1.0))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ChannelNetwork(("a", "b"), channels, ("x",))
