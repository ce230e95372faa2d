from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from chanjump import (
    NumericalError,
    ValidationError,
    build_dot,
    build_generator,
    completeness_test,
    entropy_production,
    make_twin,
    mean_currents,
    mean_record,
    record_hull_summary,
    record_interval,
    stationary_state,
    stationary_transition_totals,
    twin_dot_spec,
)
from chanjump.network import ChannelNetwork, TransitionChannel

from conftest import (
    ENTER_HI,
    ENTER_LO,
    J_HEAT_L,
    U_ENTER,
    make_network,
    random_network,
    random_paired_network,
    subnetwork,
)


def test_mean_record_consistent_with_currents(twin_net):
    p = stationary_state(build_generator(twin_net)).p
    means = mean_currents(twin_net)
    for rec in twin_net.records:
        assert abs(mean_record(twin_net, p, rec) - means[rec]) < 1e-12


def test_mean_record_twin_dot_heat(twin_net):
    p = stationary_state(build_generator(twin_net)).p
    assert abs(mean_record(twin_net, p, "heat_L") - J_HEAT_L) < 1e-14


def test_mean_record_zero_increments():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 1.0)], ["n"])
    assert mean_record(net, np.array([0.5, 0.5]), "n") == 0.0


def test_mean_record_validation(twin_net):
    with pytest.raises(ValidationError, match="unknown record"):
        mean_record(twin_net, np.array([0.5, 0.5]), "zzz")
    with pytest.raises(ValidationError, match="probability"):
        mean_record(twin_net, np.array([0.9, 0.3]), "heat_L")


def test_mean_record_rate_additivity_exact():
    # halving a channel into two equal copies leaves the record bitwise equal
    rng = np.random.default_rng(83)
    for _ in range(10):
        net = random_network(rng, dyadic=True, n_records=1)
        p = np.full(net.n_states, 1.0 / net.n_states)
        base = mean_record(net, p, "rec0")
        split_channels = []
        for ch in net.channels:
            half = TransitionChannel(
                from_state=ch.from_state, to_state=ch.to_state, reservoir=ch.reservoir,
                rate=ch.rate / 2.0, filter=ch.filter, increments=ch.increments,
            )
            split_channels.extend([half, half])
        split = ChannelNetwork(states=net.states, channels=tuple(split_channels),
                               records=net.records)
        assert mean_record(split, p, "rec0") == base


def test_entropy_equilibrium_dot_is_zero():
    net = build_dot(twin_dot_spec(mu_left=0.2, mu_right=0.2))
    p = stationary_state(build_generator(net)).p
    rep = entropy_production(net, p)
    assert abs(rep.resolved) < 1e-12
    assert abs(rep.coarse) < 1e-12


def test_entropy_twins_differ_resolved_share_coarse(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", 0.1)
    p = stationary_state(build_generator(twin_net)).p
    rep_a = entropy_production(twin_net, p)
    rep_b = entropy_production(twin, p)
    assert abs(rep_a.coarse - rep_b.coarse) < 1e-12
    assert abs(rep_a.resolved - rep_b.resolved) > 1e-3
    assert rep_a.resolved >= rep_a.coarse - 1e-12
    assert rep_b.resolved >= rep_b.coarse - 1e-12


def test_entropy_resolved_dominates_coarse_random():
    rng = np.random.default_rng(89)
    for _ in range(100):
        net = random_paired_network(rng)
        p = rng.random(net.n_states) + 0.05
        p /= p.sum()
        rep = entropy_production(net, p)
        assert rep.resolved >= rep.coarse - 1e-12
        assert rep.coarse >= -1e-12


def test_entropy_unpaired_channel_errors():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0)], [])
    with pytest.raises(ValidationError, match="reverse partner"):
        entropy_production(net, np.array([0.5, 0.5]))


def test_entropy_zero_rate_conjugate_gives_inf_sentinel():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 0.0)], [])
    rep = entropy_production(net, np.array([0.5, 0.5]))
    assert math.isinf(rep.resolved)
    assert "unidirectional" in rep.note


def test_entropy_reads_an_entry_admitted_below_zero_as_zero():
    # checked_probability admits entries down to -1e-12; a negative flux has no logarithm
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 1.0)], [])
    rep = entropy_production(net, [1 + 5e-13, -5e-13])
    assert rep == entropy_production(net, [1 + 5e-13, 0.0])
    assert math.isinf(rep.resolved) and math.isinf(rep.coarse)
    assert "unidirectional" in rep.note


def test_entropy_mismatched_labels_error():
    # reverse transition exists but under a different reservoir label
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "s", 1.0)], [])
    with pytest.raises(ValidationError, match="partner"):
        entropy_production(net, np.array([0.5, 0.5]))


def test_record_interval_degenerate_when_increments_shared():
    net = make_network(
        ["a", "b"],
        [(0, 1, "x", 0.3, "", {"n": 2.0}), (0, 1, "y", 0.7, "", {"n": 2.0}), (1, 0, "x", 1.0)],
        ["n"],
    )
    iv = record_interval(net, np.array([0.5, 0.5]), {"n": 1.0})
    assert iv.lo == iv.hi


def test_record_interval_twin_dot_entering(twin_net):
    u = stationary_transition_totals(twin_net)
    assert abs(u[0] - U_ENTER) < 1e-14
    u_restricted = np.array([u[0], 0.0])
    iv = record_interval(twin_net, u_restricted, {"heat_total": 1.0})
    assert abs(iv.lo - ENTER_LO) < 1e-14
    assert abs(iv.hi - ENTER_HI) < 1e-14
    # R-in carries the larger heat drop, L-in the smaller
    assert iv.tight_channels[0] == ((0, 1), 1, 0)


def test_record_interval_tie_breaks_to_lowest_channel():
    net = make_network(
        ["a", "b"],
        [(0, 1, "x", 0.5, "", {"n": 1.0}), (0, 1, "y", 0.5, "", {"n": 1.0}), (1, 0, "x", 1.0)],
        ["n"],
    )
    iv = record_interval(net, np.array([1.0, 0.0]), {"n": 1.0})
    assert iv.tight_channels[0] == ((0, 1), 0, 0)


def test_record_interval_dimension_check(twin_net):
    with pytest.raises(ValidationError, match="transitions"):
        record_interval(twin_net, np.array([1.0]), {"heat_total": 1.0})
    with pytest.raises(ValidationError, match="nonnegative"):
        record_interval(twin_net, np.array([1.0, -1.0]), {"heat_total": 1.0})


def vertex_extremes(net, u, a):
    """Enumerate every one-channel-per-transition assignment."""
    transitions = net.transitions()
    proj = [math.fsum(w * ch.increment(rec) for rec, w in a.items()) for ch in net.channels]
    members = [
        [e for e, ch in enumerate(net.channels) if (ch.from_state, ch.to_state) == t]
        for t in transitions
    ]
    values = []
    for choice in itertools.product(*members):
        values.append(math.fsum(u[k] * proj[e] for k, e in enumerate(choice)))
    return min(values), max(values)


def test_record_interval_matches_vertex_enumeration():
    rng = np.random.default_rng(97)
    for _ in range(50):
        net = random_network(rng, n_states=int(rng.integers(2, 4)), max_parallel=4, n_records=2)
        if len(net.transitions()) > 6:
            continue
        u = rng.random(len(net.transitions()))
        a = {"rec0": float(rng.standard_normal()), "rec1": float(rng.standard_normal())}
        iv = record_interval(net, u, a)
        lo_v, hi_v = vertex_extremes(net, u, a)
        assert iv.lo == lo_v  # identical arithmetic, exact match
        assert iv.hi == hi_v


def test_record_interval_contains_random_simplex_samples():
    rng = np.random.default_rng(103)
    for _ in range(20):
        net = random_network(rng, n_states=2, max_parallel=4, n_records=2)
        transitions = net.transitions()
        u = rng.random(len(transitions))
        a = {"rec0": 1.0, "rec1": float(rng.standard_normal())}
        iv = record_interval(net, u, a)
        proj = [math.fsum(w * ch.increment(rec) for rec, w in a.items()) for ch in net.channels]
        members = [
            [e for e, ch in enumerate(net.channels) if (ch.from_state, ch.to_state) == t]
            for t in transitions
        ]
        scale = max(1.0, abs(iv.lo), abs(iv.hi))
        for _ in range(1000):
            val = 0.0
            for k, mem in enumerate(members):
                q = rng.exponential(size=len(mem))
                q /= q.sum()
                val += u[k] * float(np.dot(q, [proj[e] for e in mem]))
            assert iv.lo - 1e-12 * scale <= val <= iv.hi + 1e-12 * scale


def test_interval_degeneracy_matches_completeness():
    # lo = hi exactly when the direction is complete on the active transitions
    rng = np.random.default_rng(107)
    seen = {True: 0, False: 0}
    for _ in range(60):
        net = random_network(rng, n_states=2, max_parallel=3, n_records=1)
        # per transition, half the time share one increment across channels
        channels = list(net.channels)
        transitions = net.transitions()
        for t in transitions:
            mem = [e for e, ch in enumerate(channels) if (ch.from_state, ch.to_state) == t]
            if rng.random() < 0.5:
                shared = {"rec0": float(rng.standard_normal())}
                for e in mem:
                    ch = channels[e]
                    channels[e] = TransitionChannel(
                        from_state=ch.from_state, to_state=ch.to_state,
                        reservoir=ch.reservoir, rate=ch.rate, filter=ch.filter,
                        increments=shared,
                    )
        net = ChannelNetwork(states=net.states, channels=tuple(channels), records=net.records)
        u = rng.random(len(transitions)) + 0.1  # all transitions active
        iv = record_interval(net, u, {"rec0": 1.0})
        D = np.array([[ch.increment("rec0") for ch in net.channels]])
        verdict = completeness_test(net, D)
        degenerate = iv.lo == iv.hi
        assert degenerate == verdict.complete
        seen[degenerate] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_hull_summary_single_channel_point():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"n": 2.0}), (1, 0, "r", 1.0)], ["n"])
    hulls = record_hull_summary(net, np.array([0.5, 1.0]), ["n"])
    assert hulls[0].points == ((1.0,),)
    assert hulls[1].points == ((0.0,),)


def test_hull_summary_twin_dot_entering(twin_net):
    u = np.array([1.0, 0.0])
    hulls = record_hull_summary(twin_net, u, ["heat_L", "heat_R"])
    assert hulls[0].transition == (0, 1)
    assert set(hulls[0].points) == {(-0.5, 0.0), (0.0, -1.5)}


def test_hull_summary_deduplicates():
    net = make_network(
        ["a", "b"],
        [(0, 1, "x", 0.3, "", {"n": 1.0}), (0, 1, "y", 0.7, "", {"n": 1.0}), (1, 0, "x", 1.0)],
        ["n"],
    )
    hulls = record_hull_summary(net, np.array([2.0, 1.0]), ["n"])
    assert hulls[0].points == ((2.0,),)


def test_stationary_totals_twin_dot(twin_net):
    u = stationary_transition_totals(twin_net)
    # two-state stationarity forces equal forward and backward totals
    assert abs(u[0] - u[1]) < 1e-15
    assert abs(u[0] - U_ENTER) < 1e-14


def test_stationary_totals_detailed_balance():
    net = build_dot(twin_dot_spec(mu_left=0.1, mu_right=0.1))
    u = stationary_transition_totals(net)
    assert abs(u[0] - u[1]) < 1e-14
    assert u.min() >= 0.0


@pytest.mark.parametrize("p", [[math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0], [math.inf, -math.inf]])
def test_a_non_finite_occupation_is_not_a_probability_vector(p):
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"x": 1.0}), (1, 0, "r", 1.0)], ["x"])
    with pytest.raises(ValidationError, match="p must be a probability vector"):
        mean_record(net, p, "x")
    with pytest.raises(ValidationError, match="p must be a probability vector"):
        entropy_production(net, p)


def test_a_mean_record_past_the_largest_double_is_a_numerical_error():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"x": 1e308}), (0, 1, "r", 1.0, "", {"x": 1e308}),
                                    (1, 0, "r", 1.0)], ["x"])
    with pytest.raises(NumericalError, match="the mean of record 'x' exceeds the largest double"):
        mean_record(net, [1.0, 0.0], "x")


def test_both_record_means_refuse_an_overflow_with_one_message_and_no_warning():
    # every channel's flux is 1e10 * 0.5 and its term 1e300 times that: the products overflow
    net = make_network(["a", "b"], [(0, 1, "r", 1e10, "", {"x": 1e300}), (1, 0, "r", 1e10, "", {"x": 1e300})], ["x"])
    message = "^the mean of record 'x' exceeds the largest double$"
    with pytest.raises(NumericalError, match=message):
        mean_currents(net)
    with pytest.raises(NumericalError, match=message):
        mean_record(net, net.stationary, "x")


def test_a_resolved_flux_past_the_largest_double_is_a_numerical_error():
    net = make_network(["a", "b"], [(0, 1, "r", 1e308), (0, 1, "r", 1e308), (1, 0, "r", 1.0)], [])
    with pytest.raises(NumericalError, match="a flux exceeds the largest double"):
        entropy_production(net, [1.0, 0.0])
