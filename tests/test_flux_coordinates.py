"""Kernel vectors and witnesses are flux changes; perturbation arguments are rates.

A vector c of channel-flux changes applied at occupation p is the rate change
c / p_from, so ``first_order_record_change(net, c / p[from], p, mu)`` must
equal ``(D c)[mu]``, the record image that the verdicts report.  Applied as
``network.shift_rate`` moves, a flux change t f along a basis vector f of
ker P keeps the generator bit for bit and moves every record mean by t D f.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import (
    build_dot,
    build_generator,
    build_record_map,
    completeness_test,
    first_order_record_change,
    generator_preserving_basis,
    mean_record,
    predictability_test,
    remaining_kernel,
    twin_dot_spec,
)
from chanjump.network import shift_rate

from conftest import P0, P1, random_network


def _flux_vectors(net):
    """Kernel vectors and witnesses of the network's verdicts, as columns."""
    D = build_record_map(net, net.records)
    measured = build_record_map(net, net.records[:1])
    vectors = [generator_preserving_basis(net).vectors, remaining_kernel(net, measured).vectors]
    for verdict in (completeness_test(net, D), predictability_test(net, measured, D)):
        if verdict.witness is not None:
            vectors.append(verdict.witness[:, None])
            assert np.array_equal(verdict.witness_image, D.D @ verdict.witness)
    return np.hstack(vectors)


@pytest.mark.parametrize("seed", range(8))
def test_a_flux_vector_read_as_a_rate_change_over_p_from_moves_records_by_d_c(seed):
    net = random_network(np.random.default_rng(seed), n_records=3)
    p = net.stationary.p
    p_from = p[net.arrays.from_state]
    D = build_record_map(net, net.records).D
    C = _flux_vectors(net)
    assert C.shape[1] > 0
    for c in C.T:
        images = D @ c
        bounds = np.abs(D) @ np.abs(c)
        for mu, record in enumerate(net.records):
            change = first_order_record_change(net, c / p_from, p, record)
            assert abs(change - images[mu]) <= 1e-12 * max(1.0, bounds[mu])


def test_twin_remaining_vector_moves_the_measured_record_only_when_read_as_a_rate():
    # With charge_L measured, the remaining kernel vector is c = +-(1, -1, 1, -1) / 2 on
    # (enter L, enter R, leave L, leave R): it leaves the charge_L flux unchanged, but as
    # a rate change it moves charge_L by +-(p0 - p1) / 2.
    net = build_dot(twin_dot_spec())
    p = net.stationary.p
    K = remaining_kernel(net, build_record_map(net, ["charge_L"]))
    assert K.dim == 1
    c = K.vectors[:, 0]
    as_rate = first_order_record_change(net, c, p, "charge_L")
    as_flux = first_order_record_change(net, c / p[net.arrays.from_state], p, "charge_L")
    assert abs(as_rate) == pytest.approx((P0 - P1) / 2, rel=1e-12)
    assert abs(as_flux) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1.0, -1.0]))
def test_shifts_along_a_kernel_vector_keep_the_generator_and_move_means_by_d_f(seed, sign):
    net = random_network(np.random.default_rng(seed), n_records=3)
    a, p = net.arrays, net.stationary.p
    p_from = p[a.from_state]
    L = build_generator(net).matrix
    D = build_record_map(net, net.records).D
    # each channel moves by at most half its rate, so every shift keeps the rates nonnegative
    t = sign * 0.5 * float((a.rate * p_from).min())
    for f in generator_preserving_basis(net).vectors.T:
        lose, gains = int(np.argmin(f)), np.flatnonzero(f > 0).tolist()  # a Helmert vector: one entry below 0
        moved = net
        for gain in gains:
            moved = shift_rate(moved, gain, lose, t * f[gain] / p_from[gain])
        assert build_generator(moved).matrix.tobytes() == L.tobytes()
        for mu, record in enumerate(net.records):
            change = mean_record(moved, p, record) - mean_record(net, p, record)
            scale = np.abs(D[mu]) @ (a.rate * p_from) + abs(t) * np.abs(D[mu]) @ np.abs(f)
            assert abs(change - t * (D[mu] @ f)) <= 1e-12 * scale
