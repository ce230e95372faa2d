from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from chanjump import (
    ValidationError,
    build_dot,
    build_generator,
    build_projection,
    build_record_map,
    channel_counts,
    completeness_test,
    first_order_record_change,
    generator_preserving_basis,
    mean_record,
    predictability_test,
    quotient_form,
    remaining_kernel,
    twin_dot_spec,
    velocity_only_kernel_dim,
)
from chanjump.network import ChannelNetwork, TransitionChannel

from conftest import P0, make_network, random_network


def spans(basis, vector):
    """Is the vector inside the span of the basis columns?"""
    coeff = basis.vectors.T @ vector
    return np.abs(basis.vectors @ coeff - vector).max() < 1e-12


def test_basis_twin_dot(twin_net):
    kb = generator_preserving_basis(twin_net)
    assert kb.dim == 2
    assert spans(kb, np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2))
    assert spans(kb, np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2))


def test_basis_trivial_and_loop_count():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 2.0)], [])
    assert generator_preserving_basis(net).dim == 0
    # 7 channels over 3 transitions
    net = make_network(
        ["a", "b", "c"],
        [
            (0, 1, "u", 0.1), (0, 1, "v", 0.2), (0, 1, "w", 0.3),
            (1, 2, "u", 0.4), (1, 2, "v", 0.5),
            (2, 0, "u", 0.6), (2, 0, "v", 0.7),
        ],
        [],
    )
    assert generator_preserving_basis(net).dim == 4


def test_basis_dim_is_channel_excess():
    rng = np.random.default_rng(19)
    for _ in range(100):
        net = random_network(rng)
        e, e0 = channel_counts(net)
        assert generator_preserving_basis(net).dim == e - e0


def test_completeness_twin_dot_heat_records(twin_net):
    D = build_record_map(twin_net, ["heat_L", "heat_R"])
    verdict = completeness_test(twin_net, D)
    assert not verdict.complete
    assert verdict.lost_rank == 1
    c = verdict.witness
    P = build_projection(twin_net).P
    assert np.abs(P @ c).max() < 1e-12
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    # the witness record image is the same for every maximizing direction
    assert np.abs(verdict.witness_image - np.array([-0.5, 1.5])).max() < 1e-12
    assert c[0] > 0  # sign fixed


def test_completeness_equal_potentials_total_heat_complete():
    # equal chemical potentials give both entering (and both leaving)
    # channels equal heat increments, so the combined heat record no longer
    # sees the redistribution; which reservoir's ledger it lands on still
    # does distinguish them
    net = build_dot(twin_dot_spec(mu_left=0.5, mu_right=0.5))
    total = completeness_test(net, build_record_map(net, ["heat_total"]))
    assert total.complete
    assert total.lost_rank == 0
    assert total.witness is None
    per_reservoir = completeness_test(net, build_record_map(net, ["heat_L", "heat_R"]))
    assert not per_reservoir.complete


def test_completeness_total_heat_incomplete_at_different_potentials(twin_net):
    verdict = completeness_test(twin_net, build_record_map(twin_net, ["heat_total"]))
    assert not verdict.complete
    assert verdict.lost_rank == 1


def test_completeness_row_of_projection(twin_net):
    P = build_projection(twin_net).P
    verdict = completeness_test(twin_net, P[0:1, :])
    assert verdict.complete


def test_completeness_zero_map(twin_net):
    verdict = completeness_test(twin_net, np.zeros((2, 4)))
    assert verdict.complete and verdict.lost_rank == 0


def test_completeness_dimension_mismatch(twin_net):
    with pytest.raises(ValidationError, match="columns"):
        completeness_test(twin_net, np.zeros((1, 7)))


def _rowspace_complete(net, D, tol=1e-10):
    """Independent oracle: every row of D in the row space of P."""
    P = build_projection(net).P
    Dm = np.atleast_2d(np.asarray(D, dtype=float))
    for row in Dm:
        x, *_ = np.linalg.lstsq(P.T, row, rcond=None)
        if np.linalg.norm(P.T @ x - row) > tol * max(1.0, np.linalg.norm(row)):
            return False
    return True


def test_kernel_sweep_equals_rowspace_projection():
    rng = np.random.default_rng(101)
    agree = 0
    for _ in range(500):
        net = random_network(rng, n_records=int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            D = build_record_map(net, net.records).D
        else:
            # planted complete case: rows from the row space of P
            P = build_projection(net).P
            D = rng.standard_normal((2, P.shape[0])) @ P
        kernel_says = completeness_test(net, D).complete
        rowspace_says = _rowspace_complete(net, D)
        assert kernel_says == rowspace_says
        agree += 1
    assert agree == 500


def test_remaining_kernel_twin_dot(twin_net):
    D_meas = build_record_map(twin_net, ["heat_L"])
    kb = remaining_kernel(twin_net, D_meas)
    assert kb.dim == 1
    direction = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    v = kb.vectors[:, 0]
    assert min(np.abs(v - direction).max(), np.abs(v + direction).max()) < 1e-12


def test_remaining_kernel_empty_measurement(twin_net):
    kb_all = generator_preserving_basis(twin_net)
    kb = remaining_kernel(twin_net, build_record_map(twin_net, []))
    assert kb.dim == kb_all.dim
    for k in range(kb.dim):
        assert spans(kb_all, kb.vectors[:, k])


def test_remaining_kernel_full_measurement():
    # records resolving one channel per transition: d_lost = dim ker P, so
    # measuring everything empties the kernel
    net = make_network(
        ["a", "b"],
        [
            (0, 1, "x", 0.4, "", {"m0": 1.0}),
            (0, 1, "y", 0.6, "", {}),
            (1, 0, "x", 0.5, "", {"m1": 1.0}),
            (1, 0, "y", 0.5, "", {}),
        ],
        ["m0", "m1"],
    )
    D = build_record_map(net, list(net.records))
    assert completeness_test(net, D).lost_rank == generator_preserving_basis(net).dim
    assert remaining_kernel(net, D).dim == 0


def test_remaining_kernel_twin_dot_survives_full_measurement(twin_net):
    # the correlated in+out reassignment (1,-1,1,-1)/2 is invisible to every
    # declared mean record of the dot, so one hidden direction survives even
    # when all records are measured
    D = build_record_map(twin_net, list(twin_net.records))
    kb = remaining_kernel(twin_net, D)
    assert kb.dim == 1
    direction = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    v = kb.vectors[:, 0]
    assert min(np.abs(v - direction).max(), np.abs(v + direction).max()) < 1e-12


def test_predictability_twin_dot(twin_net):
    D_meas = build_record_map(twin_net, ["heat_L"])
    D_tar = build_record_map(twin_net, ["heat_R"])
    assert predictability_test(twin_net, D_meas, D_tar).complete

    nothing = build_record_map(twin_net, [])
    verdict = predictability_test(twin_net, nothing, D_tar)
    assert not verdict.complete
    P = build_projection(twin_net).P
    assert np.abs(P @ verdict.witness).max() < 1e-12
    assert np.linalg.norm(verdict.witness_image) > 1e-10

    assert predictability_test(twin_net, D_meas, build_record_map(twin_net, ["heat_L"])).complete


def test_quotient_two_parallel_channels():
    net = make_network(["a", "b"], [(0, 1, "x", 1.0), (0, 1, "y", 1.0), (1, 0, "x", 2.0)], [])
    qf = quotient_form(net, R_inv=np.array([1.0, 1.0, 1.0]))
    # transition (0,1) has two unit-covariance channels: Q entry 1/2
    k = build_projection(net).transitions.index((0, 1))
    assert abs(qf.Q[k, k] - 0.5) < 1e-12
    u = np.zeros(2)
    u[k] = 1.0
    assert abs(qf.cost(u) - 0.25) < 1e-12
    assert qf.R_inv_source == "user_supplied"


def test_quotient_one_channel_per_transition():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 2.0)], [])
    rinv = np.array([0.7, 1.3])
    qf = quotient_form(net, R_inv=rinv)
    u = np.array([0.2, -0.4])
    expected = 0.5 * np.sum(u**2 / rinv)
    assert abs(qf.cost(u) - expected) < 1e-12


def _kkt_cost(P, rinv, u):
    e, e0 = P.shape[1], P.shape[0]
    R = np.diag(1.0 / rinv)
    K = np.block([[R, P.T], [P, np.zeros((e0, e0))]])
    sol = np.linalg.solve(K, np.concatenate([np.zeros(e), u]))
    dj = sol[:e]
    return 0.5 * dj @ R @ dj


def test_quotient_matches_kkt_oracle():
    from chanjump import stationary_state

    rng = np.random.default_rng(59)
    for _ in range(60):
        net = random_network(rng)
        P = build_projection(net).P
        if rng.random() < 0.5:
            rinv = rng.random(net.n_channels) + 0.1
            qf = quotient_form(net, R_inv=rinv)
        else:
            qf = quotient_form(net)
            assert qf.R_inv_source == "stationary_traffic"
            pss = stationary_state(build_generator(net)).p
            rinv = np.array([ch.rate * pss[ch.from_state] for ch in net.channels])
        u = rng.standard_normal(P.shape[0])
        assert abs(qf.cost(u) - _kkt_cost(P, rinv, u)) < 1e-10


def test_quotient_symmetry_and_psd(twin_net):
    qf = quotient_form(twin_net)
    assert np.abs(qf.Q - qf.Q.T).max() < 1e-12
    assert np.linalg.eigvalsh(qf.Q).min() >= -1e-12
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert qf.cost(rng.standard_normal(2)) >= 0.0


def test_quotient_zeroes_transitions_below_pinv_threshold():
    # P R_inv P^T is diagonal with the per-transition sums of R_inv; a sum at
    # most 1e-10 times the largest gets a 0 entry, the rule of
    # np.linalg.pinv(rcond=1e-10), while a sum just above it is inverted
    net = make_network(
        ["a", "b", "c"],
        [(0, 1, "x", 1.0), (0, 1, "y", 1.0), (1, 2, "x", 1.0), (2, 0, "x", 1.0), (1, 0, "x", 1.0)],
        [],
    )
    qf = quotient_form(net, R_inv=np.array([1.5, 0.5, 2e-10, 1e-12, 3e-10]))
    assert build_projection(net).transitions == ((0, 1), (1, 2), (2, 0), (1, 0))
    assert abs(qf.Q[0, 0] - 0.5) < 1e-15
    assert qf.Q[1, 1] == 0.0  # sum exactly 1e-10 x the largest (2.0)
    assert qf.Q[2, 2] == 0.0  # sum far below it
    assert abs(qf.Q[3, 3] * 3e-10 - 1.0) < 1e-12
    assert not (qf.Q - np.diag(np.diag(qf.Q))).any()


def test_quotient_validation(twin_net):
    with pytest.raises(ValidationError, match="positive"):
        quotient_form(twin_net, R_inv=np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError, match="diagonal"):
        quotient_form(twin_net, R_inv=np.ones((4, 3)))


def test_quotient_default_needs_ergodic():
    from chanjump import NonErgodicError

    net = make_network(
        ["a", "b", "c", "d"],
        [(0, 1, "r", 1.0), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)],
        [],
    )
    with pytest.raises(NonErgodicError):
        quotient_form(net)
    # structural operations stay available on the same network
    assert generator_preserving_basis(net).dim == 0


def test_first_order_change_kernel_with_shared_increments():
    net = make_network(
        ["a", "b"],
        [(0, 1, "x", 0.4, "", {"n": 2.0}), (0, 1, "y", 0.6, "", {"n": 2.0}), (1, 0, "x", 1.0)],
        ["n"],
    )
    c = np.array([1.0, -1.0, 0.0])
    for p in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
        assert first_order_record_change(net, c, p, "n") == 0.0


def test_first_order_change_twin_dot(twin_net):
    c = np.array([1.0, -1.0, 0.0, 0.0])
    p = np.array([P0, 1.0 - P0])
    val = first_order_record_change(twin_net, c, p, "heat_total")
    assert abs(val - 1.0 * P0) < 1e-15
    assert first_order_record_change(twin_net, np.zeros(4), p, "heat_total") == 0.0


def test_behavioral_soundness_of_witness():
    # dyadic rates plus a grid-quantized kernel perturbation keep the
    # perturbed per-transition totals exactly equal, so the generators match
    # bitwise while the mean records move by the predicted first-order amount
    rng = np.random.default_rng(67)
    grid = 2.0**-40
    checked = 0
    for _ in range(60):
        net = random_network(rng, dyadic=True)
        D = build_record_map(net, net.records)
        verdict = completeness_test(net, D)
        if verdict.complete:
            continue
        c = verdict.witness
        transitions = {}
        for e, ch in enumerate(net.channels):
            transitions.setdefault((ch.from_state, ch.to_state), []).append(e)
        eps = 1e-3
        delta = np.zeros(net.n_channels)
        for members in transitions.values():
            ks = [round(eps * c[e] / grid) for e in members]
            ks[-1] = -sum(ks[:-1])
            for e, k in zip(members, ks):
                delta[e] = k * grid
        if min(net.channels[e].rate + delta[e] for e in range(net.n_channels)) < 0:
            continue
        perturbed = ChannelNetwork(
            states=net.states,
            channels=tuple(
                TransitionChannel(
                    from_state=ch.from_state, to_state=ch.to_state, reservoir=ch.reservoir,
                    rate=ch.rate + delta[e], filter=ch.filter, increments=ch.increments,
                )
                for e, ch in enumerate(net.channels)
            ),
            records=net.records,
        )
        assert np.array_equal(build_generator(net).matrix, build_generator(perturbed).matrix)
        p = np.full(net.n_states, 1.0 / net.n_states)
        for rec in net.records:
            diff = mean_record(perturbed, p, rec) - mean_record(net, p, rec)
            predicted = first_order_record_change(net, delta, p, rec)
            assert abs(diff - predicted) < 1e-13  # float slack only; exact in reals
        checked += 1
    assert checked >= 10


def test_lost_rank_invariant_under_rate_rescaling():
    rng = np.random.default_rng(71)
    for _ in range(20):
        net = random_network(rng)
        D = build_record_map(net, net.records)
        before = completeness_test(net, D).lost_rank
        e = int(rng.integers(0, net.n_channels))
        scaled = ChannelNetwork(
            states=net.states,
            channels=tuple(
                TransitionChannel(
                    from_state=ch.from_state, to_state=ch.to_state, reservoir=ch.reservoir,
                    rate=ch.rate * (7.5 if k == e else 1.0), filter=ch.filter,
                    increments=ch.increments,
                )
                for k, ch in enumerate(net.channels)
            ),
            records=net.records,
        )
        assert completeness_test(scaled, D).lost_rank == before


def _rescaled(net, rec, factor):
    """The network with every increment of record rec multiplied by factor."""
    channels = tuple(
        replace(ch, increments={r: v * factor if r == rec else v for r, v in ch.increments.items()})
        for ch in net.channels
    )
    return ChannelNetwork(states=net.states, channels=channels, records=net.records)


def _verdicts(net):
    """d_lost, then for the first m records measured: the remaining dimension and every later target's verdict."""
    recs = net.records
    out = [completeness_test(net, build_record_map(net, recs)).lost_rank]
    for m in range(len(recs)):
        D_meas = build_record_map(net, recs[:m])
        out.append(remaining_kernel(net, D_meas).dim)
        for target in recs[m:]:
            verdict = predictability_test(net, D_meas, build_record_map(net, [target]))
            out.append((verdict.complete, verdict.lost_rank))
    return out


@pytest.mark.parametrize("k", [-60, -40, -3, 1, 40, 60])
def test_verdicts_invariant_under_rescaling_one_record_by_a_power_of_two(k):
    # every record counts against its own scale, so none hides behind a larger one
    rng = np.random.default_rng(113 + k)
    for _ in range(25):
        net = random_network(rng, n_records=int(rng.integers(2, 5)))
        rec = net.records[int(rng.integers(len(net.records)))]
        assert _verdicts(_rescaled(net, rec, 2.0**k)) == _verdicts(net)


def test_velocity_only_kernel_is_larger():
    # a 3-cycle with one channel per ordered edge: ker P = 0 but BP hides loops
    chans = [(0, 1, "r", 1.0), (1, 2, "r", 1.0), (2, 0, "r", 1.0),
             (1, 0, "r", 1.0), (2, 1, "r", 1.0), (0, 2, "r", 1.0)]
    net = make_network(["a", "b", "c"], chans, [])
    assert generator_preserving_basis(net).dim == 0
    assert velocity_only_kernel_dim(net) == 4  # 6 channels - rank 2
