"""Physics guarantees as property tests: fluctuation symmetry and the TUR.

On random networks in which every channel e has a conjugate rev(e) (same
reservoir and filter, reversed transition):

* Gallavotti-Cohen (Lebowitz-Spohn) symmetry: for the record with increments
  ln(w_e / w_rev(e)) the scaled cumulant generating function satisfies
  scgf(chi) = scgf(-1 - chi) (Lebowitz and Spohn, J. Stat. Phys. 95, 333
  (1999)).  The state-level record ln(W_t / W_rev(t)), built from the
  transition totals of the generator, has the same symmetry.
* Thermodynamic uncertainty relation: every record antisymmetric under the
  pairing has S_mumu sigma >= 2 J_mu^2 with sigma the channel-resolved
  entropy production (Barato and Seifert, PRL 114, 158101 (2015); Gingrich
  et al., PRL 116, 120601 (2016)).

Both entropy rates pair channels through the conjugate-group index of
``net.arrays``; metamorphic tests check that the index sees only the
grouping: renaming labels one to one, or splitting a channel into two
halves with its label, changes no bit of either rate, and permuting the
channels changes them only by rounding.

The TUR needs the resolved sigma: on the twin dot the coarse, state-level
sigma is 0 while charge flows, so the bound with it fails.  That failure is
the paper's incompleteness seen through the TUR: the state dynamics alone
does not fix the entropy production that bounds the precision of a current.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import (
    build_dot,
    entropy_production,
    make_twin,
    mean_currents,
    noise_matrix,
    scgf,
    twin_dot_spec,
)

from conftest import make_network

CHIS = (0.3, -0.2, 0.7, -1.35, 0.05)


def _paired_network(seed: int):
    """One channel each way per (reservoir, filter, state pair); records
    sigma = ln(w_e / w_rev(e)), sigma_state = ln(W_t / W_rev(t)) and two
    random records antisymmetric under the pairing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted(int(s) for s in rng.choice(n, size=2, replace=False))) for _ in range(int(rng.integers(0, 3)))}
    conjugates = []
    for i, j in sorted(edges):
        for copy in range(int(rng.integers(1, 4))):
            filt = ("", "f")[int(rng.integers(0, 2))]
            w_f, w_b = (float(np.exp(rng.uniform(-2.0, 2.0))) for _ in range(2))
            d = rng.standard_normal(2).tolist()
            conjugates.append((i, j, f"r{copy}", filt, w_f, w_b, d))
    channels = []
    for i, j, res, filt, w_f, w_b, d in conjugates:
        for frm, to, w, w_rev, sign in ((i, j, w_f, w_b, 1.0), (j, i, w_b, w_f, -1.0)):
            channels.append((frm, to, res, w, filt, {"sigma": math.log(w / w_rev), "a0": sign * d[0], "a1": sign * d[1]}))
    states = [f"s{k}" for k in range(n)]
    W = make_network(states, channels, ["sigma", "a0", "a1"]).generator.matrix  # W[to, from]: transition totals
    for frm, to, _, _, _, incs in channels:
        incs["sigma_state"] = math.log(W[to, frm] / W[frm, to])
    return make_network(states, channels, ["sigma", "sigma_state", "a0", "a1"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_gallavotti_cohen_symmetry_of_the_resolved_and_the_state_level_record(seed):
    net = _paired_network(seed)
    for record in ("sigma", "sigma_state"):
        for chi in CHIS:
            left, right = scgf(net, {record: chi}), scgf(net, {record: -1.0 - chi})
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left)), (record, chi, left, right)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_thermodynamic_uncertainty_relation_with_the_resolved_entropy(seed):
    net = _paired_network(seed)
    sigma = entropy_production(net, net.stationary.p).resolved
    S, J = noise_matrix(net), mean_currents(net)
    a = net.arrays
    flux = a.rate * net.stationary.p[a.from_state]
    for record in ("sigma", "a0", "a1"):
        (k,) = net.record_rows([record])
        # at detailed balance both sides are rounding; the slack is far below either side otherwise
        slack = 1e-9 * float(np.abs(a.increments[k]) @ flux) ** 2
        assert S[k, k] * sigma >= 2 * J[record] ** 2 - slack, (record, S[k, k], sigma, J[record])


def test_the_tur_fails_with_the_coarse_entropy_on_the_twin():
    # two states, one transition pair: the state-level (coarse) entropy production
    # is 0 on the dot and on its twin, yet charge flows through it; only the
    # channel-resolved sigma bounds the charge noise
    dot = build_dot(twin_dot_spec())
    for net in (dot, make_twin(dot, 0, "L", "R", 0.1), make_twin(dot, 0, "L", "R", -0.2)):
        entropy = entropy_production(net, net.stationary.p)
        (k,) = net.record_rows(["charge_L"])
        S_charge, J_charge = noise_matrix(net)[k, k], mean_currents(net)["charge_L"]
        assert J_charge != 0.0
        assert abs(entropy.coarse) <= 1e-30  # 0 up to the rounding of the two currents
        assert S_charge * entropy.coarse < 2 * J_charge**2  # the bound fails with the coarse sigma
        assert S_charge * entropy.resolved >= 2 * J_charge**2  # and holds with the resolved one


def _channel_tuples(net) -> list[tuple]:
    return [(ch.from_state, ch.to_state, ch.reservoir, ch.rate, ch.filter, dict(ch.increments)) for ch in net.channels]


def _entropy_bits(net) -> tuple[str, str]:
    entropy = entropy_production(net, net.stationary)
    return entropy.resolved.hex(), entropy.coarse.hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_renaming_reservoirs_and_filters_one_to_one_changes_no_bit_of_the_entropy(seed):
    net = _paired_network(seed)
    rng = np.random.default_rng(seed)
    reservoirs = sorted({ch.reservoir for ch in net.channels})
    rename = dict(zip(reservoirs, (f"bath{k}" for k in rng.permutation(len(reservoirs)))))
    refilter = {"": "f", "f": ""}  # the two filters swap names
    channels = [(i, j, rename[res], w, refilter[filt], d) for i, j, res, w, filt, d in _channel_tuples(net)]
    renamed = make_network(net.states, channels, net.records)
    assert _entropy_bits(renamed) == _entropy_bits(net)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_splitting_a_channel_into_two_halves_changes_no_bit_of_the_entropy(seed):
    net = _paired_network(seed)
    channels = _channel_tuples(net)
    e = int(np.random.default_rng(seed).integers(len(channels)))
    i, j, res, w, filt, d = channels[e]
    channels[e] = (i, j, res, w / 2, filt, d)  # halving a rate is exact
    split = make_network(net.states, channels + [(i, j, res, w / 2, filt, dict(d))], net.records)
    assert split.generator.matrix.tobytes() == net.generator.matrix.tobytes()
    assert _entropy_bits(split) == _entropy_bits(net)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_the_channels_changes_the_entropy_only_by_rounding(seed):
    net = _paired_network(seed)
    channels = _channel_tuples(net)
    order = np.random.default_rng(seed).permutation(len(channels))
    permuted = make_network(net.states, [channels[k] for k in order], net.records)
    before, after = entropy_production(net, net.stationary), entropy_production(permuted, permuted.stationary)
    for old, new in ((before.resolved, after.resolved), (before.coarse, after.coarse)):
        assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (old, new)
