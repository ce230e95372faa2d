"""State-level outputs are functions of the state generator alone.

The paper's completeness criterion: a quantity is fixed by the state
dynamics exactly when no generator-preserving reassignment of reservoir
channels moves it.  The generator, the stationary state, the transition
totals u, the coarse entropy rate and the default quotient form must
therefore come out bit for bit equal on generator-equivalent networks,
while channel-resolved quantities (resolved entropy, heat noise) may move.
"""

from __future__ import annotations

import math

import numpy as np

from chanjump import (
    ChannelNetwork,
    DotSpec,
    Reservoir,
    TransitionChannel,
    ValidationError,
    build_dot,
    entropy_production,
    generator_preserving_basis,
    make_twin,
    mean_currents,
    noise_matrix,
    quotient_form,
    stationary_transition_totals,
)

from conftest import make_network


def _state_level(net):
    return (
        net.generator.matrix,
        net.stationary.p,
        stationary_transition_totals(net),
        np.array(entropy_production(net, net.stationary.p).coarse),
        quotient_form(net).Q,
    )


def _assert_state_level_equal(a, b):
    for name, x, y in zip(("generator", "p", "u", "coarse", "Q"), _state_level(a), _state_level(b)):
        assert np.array_equal(x, y), name


def _random_dot(rng):
    reservoirs = tuple(
        Reservoir(f"r{k}", float(rng.normal()), float(rng.random() + 0.3))
        for k in range(int(rng.integers(2, 4)))
    )
    levels = tuple(float(rng.normal()) for _ in range(int(rng.integers(1, 4))))
    couplings = {(i, r.name, ""): float(rng.random() + 0.1) for i in range(len(levels)) for r in reservoirs}
    return DotSpec(levels=levels, reservoirs=reservoirs, couplings=couplings)


def _dyadic_paired_network(rng):
    """Every channel has a conjugate; rates on a 2^-20 grid in [1/4, 1)."""
    n = int(rng.integers(2, 6))
    edges = [(i, (i + 1) % n) for i in range(n if n > 2 else 1)]
    edges += [tuple(int(s) for s in rng.choice(n, size=2, replace=False)) for _ in range(int(rng.integers(0, 3)))]
    channels = []
    for i, j in edges:
        for copy in range(int(rng.integers(1, 4))):
            inc = float(rng.integers(-2**10, 2**10)) / 2**10
            for frm, to, sign in ((i, j, 1.0), (j, i, -1.0)):
                rate = float(rng.integers(2**18, 2**20)) / 2**20
                channels.append((frm, to, f"res{copy}", rate, "", {"heat": sign * inc}))
    return make_network([f"s{k}" for k in range(n)], channels, ["heat"])


def _moved_in_ker_p(net, rng, grid=2.0**-40, eps=1e-3):
    """net with its rates moved along a random ker P direction, quantized to the grid.

    Each transition's moves sum to exactly 0 and every rate stays on a grid
    that holds the sums exactly, so the per-transition totals are unchanged.
    """
    c = generator_preserving_basis(net).vectors @ rng.standard_normal(net.n_channels - len(net.transitions()))
    delta = np.zeros(net.n_channels)
    for lo, hi in net.arrays.spans:
        members = net.arrays.grouped[lo:hi]
        ks = [round(eps * c[e] / grid) for e in members]
        ks[-1] = -sum(ks[:-1])
        delta[members] = np.array(ks) * grid
    channels = tuple(
        TransitionChannel(ch.from_state, ch.to_state, ch.reservoir, ch.rate + float(delta[e]), ch.filter, ch.increments)
        for e, ch in enumerate(net.channels)
    )
    return ChannelNetwork(states=net.states, channels=channels, records=net.records), bool(delta.any())


def test_state_level_outputs_are_invariant_under_generator_preserving_moves():
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        spec = _random_dot(rng)
        net = build_dot(spec)
        level = int(rng.integers(0, len(spec.levels)))
        gain, lose = (spec.reservoirs[int(k)].name for k in rng.permutation(len(spec.reservoirs))[:2])
        members = [ch for ch in net.channels if ch.from_state == 0 and ch.to_state == level + 1]
        rate = {ch.reservoir: ch.rate for ch in members}
        eta = float(rng.choice([-rate[gain], rate[lose]]) * rng.uniform(0.2, 0.8))
        twin = make_twin(net, level, gain, lose, eta)
        _assert_state_level_equal(net, twin)
        heat = net.record_rows([f"heat_{r.name}" for r in spec.reservoirs])
        S_a, S_b = noise_matrix(net)[np.ix_(heat, heat)], noise_matrix(twin)[np.ix_(heat, heat)]
        assert not np.array_equal(S_a, S_b)
        p = net.stationary.p
        assert entropy_production(net, p).resolved != entropy_production(twin, p).resolved
    moved = 0
    for _ in range(40):
        net = _dyadic_paired_network(rng)
        if net.n_channels == len(net.transitions()):
            continue
        perturbed, changed = _moved_in_ker_p(net, rng)
        _assert_state_level_equal(net, perturbed)
        moved += changed
    assert moved >= 20


# ---------------------------------------------------------------------------
# the reference: the channel-summing pairing that entropy_production replaced


def _flux_pairs(net: ChannelNetwork, pv: np.ndarray, coarse: bool):
    """Conjugate flux pairs (label, forward flux, backward flux).

    Resolved pairing groups channels by (reservoir, filter, state pair);
    coarse pairing ignores the channel labels.  Duplicate conjugate
    candidates are summed into one effective pair.  Raises when a positive
    rate channel has no structurally declared reverse partner.
    """
    groups: dict[tuple, tuple[list[float], list[float]]] = {}
    for ch in net.channels:
        lo, hi = sorted((ch.from_state, ch.to_state))
        key = (lo, hi) if coarse else (ch.reservoir, ch.filter, lo, hi)
        groups.setdefault(key, ([], []))[ch.from_state == hi].append(ch.rate)
    for key, (fwd, bwd) in groups.items():
        if not coarse:
            if not bwd and any(r > 0 for r in fwd):
                raise ValidationError(f"channel group {key} has no reverse partner")
            if not fwd and any(r > 0 for r in bwd):
                raise ValidationError(f"channel group {key} has no forward partner")
        lo, hi = key[-2:]
        yield key, math.fsum(r * pv[lo] for r in fwd), math.fsum(r * pv[hi] for r in bwd)


def _sigma(pairs) -> tuple[float, list]:
    total = 0.0
    infinite = []
    for key, fwd, bwd in pairs:
        if fwd == 0.0 and bwd == 0.0:
            continue
        if fwd == 0.0 or bwd == 0.0:
            infinite.append(key)
            total = math.inf
            continue
        ratio = fwd / bwd
        # where the quotient under- or overflows, the difference of logs does not
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(fwd) - math.log(bwd)
        total += (fwd - bwd) * log_ratio
    return total, infinite


def _reference_entropy(net, pv):
    resolved, inf_res = _sigma(_flux_pairs(net, pv, coarse=False))
    coarse, inf_coarse = _sigma(_flux_pairs(net, pv, coarse=True))
    bits = ["pairing: (reservoir, filter) with reversed transition"]
    if inf_res:
        bits.append(f"unidirectional resolved pairs: {inf_res}")
    if inf_coarse:
        bits.append(f"unidirectional transitions: {inf_coarse}")
    return resolved, coarse, "; ".join(bits)


def _labelled_network(rng, paired: bool):
    """Random channels with several filters, duplicate conjugates and zero rates.

    Unless paired, a group may lack one direction, and one-way channels of
    rate 0, which need no partner, are added.
    """
    n = int(rng.integers(2, 6))
    channels = []
    for _ in range(int(rng.integers(1, 3 * n))):
        i, j = (int(s) for s in rng.choice(n, size=2, replace=False))
        res, filt = f"r{rng.integers(0, 2)}", ("", "f", "g")[int(rng.integers(0, 3))]
        for frm, to in ((i, j), (j, i)) if paired or rng.random() < 0.7 else ((i, j),):
            for _ in range(int(rng.integers(1, 3))):
                rate = 0.0 if rng.random() < 0.15 else float(rng.random() + 0.05)
                channels.append((frm, to, res, rate, filt, {}))
    for _ in range(0 if paired else int(rng.integers(0, 3))):
        i, j = (int(s) for s in rng.choice(n, size=2, replace=False))
        channels.append((i, j, "idle", 0.0, ("", "f", "g")[int(rng.integers(0, 3))], {}))
    return make_network([f"s{k}" for k in range(n)], channels, ["x"])


def test_entropy_matches_the_channel_summing_reference():
    rng = np.random.default_rng(4242)
    outcomes = {"value": 0, "no reverse partner": 0, "no forward partner": 0, "infinite": 0}
    for k in range(300):
        net = _labelled_network(rng, paired=k % 2 == 0)
        p = rng.random(net.n_states) * (rng.random(net.n_states) < 0.8)
        if not p.any():
            p[0] = 1.0
        p /= p.sum()
        try:
            resolved, coarse, note = _reference_entropy(net, p)
        except ValidationError as exc:
            try:
                entropy_production(net, p)
            except ValidationError as new:
                assert str(new) == str(exc)
            else:
                raise AssertionError(f"no error, expected {exc}")
            outcomes[str(exc).split(" has ")[1]] += 1
            continue
        rep = entropy_production(net, p)
        assert rep.resolved == resolved and rep.note == note
        if math.isinf(coarse):
            assert rep.coarse == coarse
            outcomes["infinite"] += 1
        else:
            assert abs(rep.coarse - coarse) <= 1e-14 * max(1.0, abs(coarse))
            outcomes["value"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def _conjugate_paired_network(rng):
    """Each (reservoir, filter, state pair) holds one channel each way."""
    n = int(rng.integers(2, 6))
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted(int(s) for s in rng.choice(n, size=2, replace=False))) for _ in range(3)}
    rates = []
    for i, j in sorted(edges):
        for copy in range(int(rng.integers(1, 3))):
            filt = ("", "f")[int(rng.integers(0, 2))]
            w_f, w_b = (float(rng.random() + 0.05) for _ in range(2))
            rates += [(i, j, f"r{copy}", w_f, filt, w_b), (j, i, f"r{copy}", w_b, filt, w_f)]
    channels = [(i, j, res, w, filt, {"sigma": math.log(w / w_rev)}) for i, j, res, w, filt, w_rev in rates]
    return make_network([f"s{k}" for k in range(n)], channels, ["sigma"])


def test_mean_log_rate_ratio_is_the_resolved_entropy():
    # at stationarity the ln(p_from / p_to) part of each pair sums to 0, so
    # the mean of the record ln(w_e / w_rev(e)) is the resolved rate
    rng = np.random.default_rng(977)
    for _ in range(100):
        net = _conjugate_paired_network(rng)
        sigma = entropy_production(net, net.stationary.p).resolved
        assert abs(mean_currents(net)["sigma"] - sigma) <= 1e-12 * max(1.0, abs(sigma))
