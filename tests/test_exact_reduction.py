"""``ChannelArrays.transition_totals`` is math.fsum bit for bit.

It sums one row of E values per call, transition by transition, for
``build_generator`` and ``tilted_generator``; the rest of the library reads
those totals as if math.fsum had summed them in grouped order (a total past
the largest double reads inf).  Every result is compared with that
reference by its bytes, row by row, over seeded blocks of groups of 1 to 8
terms: near-equal terms as in the finite-difference stack, exponent spreads
of up to 72 binades, terms of size e^+-700, exact half-way ties, signed
zeros, subnormals, inf and NaN, and sums that overflow, in between or at
the end.  Warnings are errors throughout.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from chanjump import ChannelNetwork, TransitionChannel
from chanjump.network import ChannelArrays

SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
ROWS = 640  # x 64 transitions: 40960 groups per case, 245760 over the six cases


def _ring_network(n_states: int = 32) -> ChannelNetwork:
    """Ring of both orientations; transition t has SIZES[t % len(SIZES)] channels,
    added round-robin so that channel order interleaves the transitions."""
    pairs = [(i, (i + 1) % n_states) for i in range(n_states)] + [((i + 1) % n_states, i) for i in range(n_states)]
    counts = [SIZES[t % len(SIZES)] for t in range(len(pairs))]
    channels = [
        TransitionChannel(a, b, f"r{copy}", 1.0)
        for copy in range(max(counts))
        for (a, b), c in zip(pairs, counts)
        if copy < c
    ]
    return ChannelNetwork(tuple(f"s{i}" for i in range(n_states)), tuple(channels), ())


NET = _ring_network()


def _reference(values: np.ndarray, arrays: ChannelArrays) -> np.ndarray:
    """math.fsum of every transition's terms, in grouped order; an overflow reads inf."""
    out = np.empty((len(values), len(arrays.spans)))
    for k, row in enumerate(values[:, arrays.grouped].tolist()):
        for t, (lo, hi) in enumerate(arrays.spans):
            try:
                out[k, t] = math.fsum(row[lo:hi])
            except OverflowError:
                out[k, t] = math.inf
    return out


def _totals(values: np.ndarray, net: ChannelNetwork = NET) -> np.ndarray:
    """``transition_totals`` of every row of values, one row per call: K x E0."""
    a = net.arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = np.stack([a.transition_totals(row, net.n_states) for row in values])
    return M[:, a.pairs[:, 1], a.pairs[:, 0]]


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _case(name: str, rng) -> np.ndarray:
    E = NET.n_channels
    shape = (ROWS, E)
    if name == "near_equal":
        return rng.uniform(0.5, 1.5, E) * np.exp(1e-4 * rng.standard_normal(shape))
    if name == "spread":
        # row k spreads its terms over k % 72 binades
        spread = (np.arange(ROWS) % 72)[:, None]
        binade = np.floor(rng.random(shape) * (spread + 1))
        return _signs(rng, shape) * rng.uniform(1.0, 2.0, shape) * 2.0 ** (binade + rng.integers(-40, 40, (ROWS, 1)))
    if name == "e700":
        wide = np.exp(rng.uniform(-700.0, 700.0, shape))
        near = np.exp(rng.choice([-700.0, 700.0, 705.0, 709.0], (ROWS, 1)) + rng.uniform(-2.0, 0.0, shape))
        return np.where((np.arange(ROWS) % 2 == 0)[:, None], wide, near) * _signs(rng, shape)
    if name == "ties":
        # terms 1 + i 2^-52 in [1, 2): a pair with i + j odd is an exact half-way case
        ints = rng.integers(0, 2**52, shape).astype(float)
        scale = 2.0 ** rng.integers(-900, 900, (ROWS, 1)).astype(float)
        return (1.0 + ints * 2.0**-52) * scale * np.where(rng.random((ROWS, 1)) < 0.2, _signs(rng, shape), 1.0)
    if name == "specials":
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022, -(2.0**-1022), math.inf, math.nan, 1.0, -1.0, 0.75])
        values = rng.uniform(0.5, 2.0, shape) * _signs(rng, shape)
        pick = rng.random(shape) < 0.3
        values[pick] = rng.choice(pool, int(pick.sum()))
        return values
    if name == "overflow":
        pool = np.array([1e308, -1e308, 1.7e308, -1.7e308, 8.99e307, 2.0**1023, 2.0**1022, 1.0, -3.0])
        return rng.choice(pool, shape) * rng.uniform(0.9, 1.0, (ROWS, 1))
    raise AssertionError(name)


CASES = ("near_equal", "spread", "e700", "ties", "specials", "overflow")


@pytest.mark.parametrize("case", CASES)
def test_reduction_is_fsum_bit_for_bit(case):
    rng = np.random.default_rng([20261019, CASES.index(case)])
    values = _case(case, rng)
    assert _totals(values).tobytes() == _reference(values, NET.arrays).tobytes()


def test_half_way_ties_round_to_even():
    one_ulp = 2.0**-52
    pairs = ((0, 1), (1, 0), (1, 2), (2, 1))
    net = ChannelNetwork(("a", "b", "c"), tuple(TransitionChannel(a, b, "r", 1.0) for a, b in pairs for _ in "xy"), ())
    row = [1.0, 1.0 + one_ulp, 1.0, 1.0 + 3 * one_ulp, 1.0, 1.0 + 2 * one_ulp, 0.5, 0.5 + one_ulp / 2]
    # 2 + 2^-52 ties down to 2, 2 + 3 2^-52 up to 2 + 4 2^-52, 2 + 2 2^-52 is exact, 1 + 2^-53 ties to 1
    assert _totals(np.array([row]), net).tolist() == [[2.0, 2.0 + 4 * one_ulp, 2.0 + 2 * one_ulp, 1.0]]


def test_mixed_infinities_raise_as_fsum_does():
    values = np.ones((ROWS, NET.n_channels))
    lo, hi = NET.arrays.spans[1]
    members = NET.arrays.grouped[lo:hi]
    values[7, members[0]], values[7, members[1]] = math.inf, -math.inf
    with pytest.raises(ValueError, match="inf"):
        _totals(values)


def test_an_intermediate_overflow_reads_inf_whatever_the_exact_sum():
    # fsum overflows on 1e308 + 1e308 before -1e308 comes in, though the exact sum is 1e308
    a = NET.arrays
    lo, hi = a.spans[2]  # a group of three
    members = a.grouped[lo:hi]
    values = np.ones((ROWS, NET.n_channels))
    values[:, members] = [1e308, 1e308, -1e308]
    values[1, members] = [1e308, -1e308, 1e308]
    got = _totals(values)[:, 2]
    assert got[0] == math.inf and got[1] == 1e308
