"""P as a grouping of channels by transition.

The library restricts record maps to ker P by subtracting per-transition
means and assembles the noise from channel arrays.  The first test keeps the
dense formulation as a local reference (a kernel basis from the SVD of P or
of [P; D_meas], D @ K, and the tilt-derivative noise formula) and checks
that both give the same answers on random networks and on the twin dot.
The metamorphic tests check properties the grouping must respect: channel
order is irrelevant, and splitting a channel in two adds one hidden
direction and changes nothing observable.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import math

from chanjump import (
    DEFAULT_TOL,
    ValidationError,
    build_generator,
    build_projection,
    build_record_map,
    channel_counts,
    completeness_test,
    drazin_inverse,
    first_order_record_change,
    generator_preserving_basis,
    kernel_basis,
    mean_currents,
    mean_record,
    noise_matrix,
    numerical_rank,
    predictability_test,
    quotient_form,
    record_hull_summary,
    record_interval,
    remaining_kernel,
    stationary_state,
    stationary_transition_totals,
    tilt_derivatives,
    tilted_generator,
    tilted_null_variation,
    velocity_only_kernel_dim,
)
from chanjump.network import ChannelNetwork, TransitionChannel

from conftest import random_network

# agreement bound for means and noise, relative to the matrix scale
NOISE_TOL = 1e-12


def close(a, b, tol=NOISE_TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= tol * scale


# ---------------------------------------------------------------------------
# dense reference


def _fix_sign(c):
    for x in c:
        if abs(x) > 1e-12:
            return c if x > 0 else -c
    return c


def reference_verdict(D, K, tol=DEFAULT_TOL):
    """(lost_rank, witness, image) of D restricted to span K."""
    if K.dim == 0 or D.shape[0] == 0:
        return 0, None, None
    smax = np.linalg.svd(D, compute_uv=False)[0]
    if smax == 0.0:
        return 0, None, None
    _, s, Vh = np.linalg.svd(D @ K.vectors)
    lost = int(np.sum(s > tol * smax))
    if lost == 0:
        return 0, None, None
    c = _fix_sign(K.vectors @ Vh[0])
    return lost, c, D @ c


def reference_remaining(net, D_meas):
    return kernel_basis(np.vstack([build_projection(net).P, D_meas]))


def reference_noise(net):
    L = build_generator(net)
    ss = stationary_state(L)
    R = drazin_inverse(L, ss)
    p, one = ss.p, np.ones(net.n_states)
    recs = net.records
    firsts = [tilt_derivatives(net, r, r)[0] for r in recs]
    S = np.zeros((len(recs), len(recs)))
    for i in range(len(recs)):
        for j in range(i, len(recs)):
            _, Lij = tilt_derivatives(net, recs[i], recs[j])
            val = one @ Lij @ p - one @ (firsts[i] @ R @ firsts[j] + firsts[j] @ R @ firsts[i]) @ p
            S[i, j] = S[j, i] = val
    means = {r: float(one @ L1 @ p) for r, L1 in zip(recs, firsts)}
    return means, S


def assert_verdict_matches(verdict, reference):
    lost, c, image = reference
    assert verdict.lost_rank == lost
    assert verdict.complete == (lost == 0)
    if lost == 0:
        assert verdict.witness is None
        return
    assert np.abs(verdict.witness - c).max() <= 1e-12
    assert close(verdict.witness_image, image)


def check_against_reference(net, rng):
    P = build_projection(net).P
    K = kernel_basis(P)
    e, e0 = channel_counts(net)
    assert e - e0 == K.dim == generator_preserving_basis(net).dim

    D = build_record_map(net, net.records).D
    planted = rng.standard_normal((2, e0)) @ P  # complete by construction
    for Dm in (D, planted, D[:1]):
        assert_verdict_matches(completeness_test(net, Dm), reference_verdict(Dm, K))

    q = len(net.records)
    measured = build_record_map(net, list(rng.choice(net.records, size=int(rng.integers(0, q)), replace=False))).D
    K_rem = reference_remaining(net, measured)
    assert remaining_kernel(net, measured).dim == K_rem.dim == e - e0 - completeness_test(net, measured).lost_rank
    # a target fixed by the measurement, and each declared record
    fixed = rng.standard_normal((1, len(measured))) @ measured + rng.standard_normal((1, e0)) @ P
    for Dt in [fixed] + [D[i:i + 1] for i in range(q)]:
        assert_verdict_matches(predictability_test(net, measured, Dt), reference_verdict(Dt, K_rem))

    means, S = reference_noise(net)
    assert close(noise_matrix(net), S)
    new_means = mean_currents(net)
    assert close([new_means[r] for r in net.records], [means[r] for r in net.records])

    for rinv in (None, rng.random(e) + 0.1):
        if rinv is None:
            p = stationary_state(build_generator(net)).p
            w = np.array([ch.rate * p[ch.from_state] for ch in net.channels])
        else:
            w = rinv
        Q = np.linalg.pinv((P * w) @ P.T, rcond=DEFAULT_TOL)
        assert close(quotient_form(net, rinv).Q, 0.5 * (Q + Q.T))
    check_velocity_only_dim(net)


def check_velocity_only_dim(net):
    """The graph count against the SVD counts of the dense incidence matrix B and of BP."""
    pair = build_projection(net)
    expected = net.n_channels - numerical_rank(pair.B)
    assert velocity_only_kernel_dim(net) == expected == kernel_basis(pair.B @ pair.P).dim


def test_grouping_matches_dense_reference_random_networks():
    rng = np.random.default_rng(2026)
    for _ in range(120):
        net = random_network(rng, n_records=int(rng.integers(1, 5)))
        check_against_reference(net, rng)


def test_velocity_only_dim_counts_components_of_disconnected_networks():
    # without the ring a random network is often disconnected; appended
    # states with no channel are components of their own
    rng = np.random.default_rng(2027)
    components = set()
    checked = 0
    while checked < 240:
        try:
            net = random_network(rng, n_states=int(rng.integers(2, 9)), max_parallel=3, ergodic=False)
        except ValidationError:  # no channel drawn
            continue
        extra = tuple(f"isolated{k}" for k in range(int(rng.integers(0, 3))))
        net = ChannelNetwork(states=net.states + extra, channels=net.channels, records=net.records)
        check_velocity_only_dim(net)
        components.add(velocity_only_kernel_dim(net) - net.n_channels + net.n_states)
        checked += 1
    assert len(components) >= 4, components


def test_grouping_matches_dense_reference_twin_dot(twin_net):
    check_against_reference(twin_net, np.random.default_rng(3))


def test_array_view_keeps_per_channel_arithmetic():
    # where only the iteration moved onto the channel arrays, every float
    # operation is the same as in the per-channel loops, so results are equal
    rng = np.random.default_rng(77)
    for _ in range(40):
        net = random_network(rng, n_records=3)
        n, recs = net.n_states, net.records
        p = stationary_state(build_generator(net)).p
        c = rng.standard_normal(net.n_channels)
        chi = {recs[0]: 0.3, recs[2]: -0.7}
        direction = {recs[1]: 1.5, recs[0]: -0.25, recs[2]: 0.5}
        u = rng.random(len(net.transitions()))

        L1, L2 = np.zeros((n, n)), np.zeros((n, n))
        V = np.zeros((n, n))
        for e, ch in enumerate(net.channels):
            L1[ch.to_state, ch.from_state] += ch.rate * ch.increment(recs[0])
            L2[ch.to_state, ch.from_state] += ch.rate * ch.increment(recs[0]) * ch.increment(recs[1])
            x = math.fsum(w * ch.increment(r) for r, w in chi.items())
            V[ch.to_state, ch.from_state] += c[e] * float(np.exp(x))
            V[ch.from_state, ch.from_state] -= c[e]
        new_L1, new_L2 = tilt_derivatives(net, recs[0], recs[1])
        assert np.array_equal(new_L1, L1) and np.array_equal(new_L2, L2)
        assert np.array_equal(tilted_null_variation(net, c, chi), V)
        assert np.array_equal(tilted_generator(net, {}), build_generator(net).matrix)

        assert mean_record(net, p, recs[1]) == math.fsum(
            ch.increment(recs[1]) * ch.rate * p[ch.from_state] for ch in net.channels
        )
        assert first_order_record_change(net, c, p, recs[2]) == float(np.sum(
            [ch.increment(recs[2]) * c[e] * p[ch.from_state] for e, ch in enumerate(net.channels)]
        ))

        proj = [math.fsum(w * ch.increment(r) for r, w in direction.items()) for ch in net.channels]
        lo, hi, tight = [], [], []
        for k, t in enumerate(net.transitions()):
            members = [e for e, ch in enumerate(net.channels) if (ch.from_state, ch.to_state) == t]
            emin = min(members, key=lambda e: (proj[e], e))
            emax = min(members, key=lambda e: (-proj[e], e))
            lo.append(u[k] * proj[emin])
            hi.append(u[k] * proj[emax])
            tight.append((t, emin, emax))
        iv = record_interval(net, u, direction)
        assert (iv.lo, iv.hi, iv.tight_channels) == (math.fsum(lo), math.fsum(hi), tuple(tight))

        for k, hull in enumerate(record_hull_summary(net, u, [recs[2], recs[0]])):
            points = []
            for ch in net.channels:
                vec = tuple(u[k] * ch.increment(r) for r in (recs[2], recs[0]))
                if (ch.from_state, ch.to_state) == hull.transition and vec not in points:
                    points.append(vec)
            assert hull.points == tuple(points)


# ---------------------------------------------------------------------------
# metamorphic properties

networks = st.integers(0, 2**32 - 1).map(
    lambda seed: random_network(np.random.default_rng(seed), n_records=3)
)


def _with_channels(net, channels):
    return ChannelNetwork(states=net.states, channels=tuple(channels), records=net.records)


def _observables(net):
    D = build_record_map(net, net.records)
    measured = build_record_map(net, net.records[:1])
    e, e0 = channel_counts(net)
    return {
        "lost": completeness_test(net, D).lost_rank,
        "remaining": e - e0 - completeness_test(net, measured).lost_rank,
        "targets": [
            (v.complete, v.lost_rank)
            for v in (predictability_test(net, measured, build_record_map(net, [r]))
                      for r in net.records[1:])
        ],
        "means": [mean_currents(net)[r] for r in net.records],
        "noise": noise_matrix(net),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=networks, data=st.data())
def test_channel_permutation_changes_nothing(net, data):
    perm = data.draw(st.permutations(range(net.n_channels)))
    shuffled = _with_channels(net, [net.channels[i] for i in perm])
    assert np.array_equal(build_generator(shuffled).matrix, build_generator(net).matrix)

    a, b = _observables(net), _observables(shuffled)
    assert (a["lost"], a["remaining"], a["targets"]) == (b["lost"], b["remaining"], b["targets"])
    assert close(a["means"], b["means"])
    assert close(a["noise"], b["noise"])

    # transition order follows first appearance, so totals are matched by pair
    u = dict(zip(net.transitions(), stationary_transition_totals(net)))
    u_shuffled = np.array([u[t] for t in shuffled.transitions()])
    direction = {net.records[0]: 1.0, net.records[2]: -0.5}
    iv = record_interval(net, np.array(list(u.values())), direction)
    iv_shuffled = record_interval(shuffled, u_shuffled, direction)
    assert (iv.lo, iv.hi) == (iv_shuffled.lo, iv_shuffled.hi)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=networks, data=st.data())
def test_channel_splitting_adds_one_hidden_direction(net, data):
    e = data.draw(st.integers(0, net.n_channels - 1))
    at = data.draw(st.integers(0, net.n_channels))
    ch = net.channels[e]
    half = TransitionChannel(
        from_state=ch.from_state, to_state=ch.to_state, reservoir=ch.reservoir,
        rate=ch.rate / 2, filter=ch.filter, increments=dict(ch.increments),
    )
    channels = list(net.channels)
    channels[e] = half
    channels.insert(at, half)
    split = _with_channels(net, channels)

    (E, E0), (E_s, E0_s) = channel_counts(net), channel_counts(split)
    assert (E_s - E0_s) == (E - E0) + 1
    assert generator_preserving_basis(split).dim == E - E0 + 1

    a, b = _observables(net), _observables(split)
    assert a["lost"] == b["lost"]
    assert close(a["means"], b["means"])
    assert close(a["noise"], b["noise"])
