"""The integer reduction of ``ChannelArrays.transition_totals`` is math.fsum bit for bit.

A block of at least ``network._REDUCE_CELLS`` totals is summed by aligning
every term's frexp mantissa to its transition's first term as an int64 and
adding each transition at once; the rest of the library reads those totals
as if math.fsum had summed them in grouped order (a total past the largest
double reads inf).  Every result is compared with that reference by its
bytes, over seeded blocks of groups of 1 to 8 terms chosen to hit every
branch: near-equal terms as in the finite-difference stack, exponent
spreads inside and beyond the 63-bit room, terms of size e^+-700, exact
half-way ties, signed zeros, subnormals, inf and NaN, and sums that
overflow, in between or at the end.  Warnings are errors throughout.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from chanjump import ChannelNetwork, TransitionChannel, build_generator, cumulants_fd, fcs, network
from chanjump.network import ChannelArrays

SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
ROWS = 640  # x 64 transitions: 40960 groups per case, 245760 over the six cases


def _ring_network(n_states: int = 32, sizes=SIZES) -> ChannelNetwork:
    """Ring of both orientations; transition t has sizes[t % len(sizes)] channels,
    added round-robin so that channel order interleaves the transitions."""
    pairs = [(i, (i + 1) % n_states) for i in range(n_states)] + [((i + 1) % n_states, i) for i in range(n_states)]
    counts = [sizes[t % len(sizes)] for t in range(len(pairs))]
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
    a = net.arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = a.transition_totals(values, net.n_states)
    return M[:, a.pairs[:, 1], a.pairs[:, 0]]


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _case(name: str, rng) -> np.ndarray:
    E = NET.n_channels
    shape = (ROWS, E)
    if name == "near_equal":
        return rng.uniform(0.5, 1.5, E) * np.exp(1e-4 * rng.standard_normal(shape))
    if name == "spread":
        # row k spreads its terms over k % 72 binades: inside the window and far beyond it
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
    assert len(values) * len(NET.transitions()) >= network._REDUCE_CELLS  # the reduction runs
    assert _totals(values).tobytes() == _reference(values, NET.arrays).tobytes()


def test_the_cases_reach_both_paths(monkeypatch):
    """Near-equal terms never leave the integer path; every other case sends
    some totals to the fsum fallback and keeps others on the integer path."""
    fallbacks = []
    fsum = network._fsum
    monkeypatch.setattr(network, "_fsum", lambda terms: fallbacks.append(1) or fsum(terms))
    a = NET.arrays
    for case in CASES:
        block = _case(case, np.random.default_rng([20261019, CASES.index(case)]))[:, a.grouped]
        fallbacks.clear()
        a._exact_totals(block)
        cells = block.shape[0] * len(a.spans)
        if case == "near_equal":
            assert not fallbacks
        elif case != "ties":
            assert 0 < len(fallbacks) < cells, case
        assert len(fallbacks) < cells, case


def test_half_way_ties_round_to_even():
    one_ulp = 2.0**-52
    pairs = ((0, 1), (1, 0), (1, 2), (2, 1))
    net = ChannelNetwork(("a", "b", "c"), tuple(TransitionChannel(a, b, "r", 1.0) for a, b in pairs for _ in "xy"), ())
    row = [1.0, 1.0 + one_ulp, 1.0, 1.0 + 3 * one_ulp, 1.0, 1.0 + 2 * one_ulp, 0.5, 0.5 + one_ulp / 2]
    values = np.repeat([row], 40, axis=0)  # 160 totals: the reduction runs
    # 2 + 2^-52 ties down to 2, 2 + 3 2^-52 up to 2 + 4 2^-52, 2 + 2 2^-52 is exact, 1 + 2^-53 ties to 1
    assert _totals(values, net).tolist() == [[2.0, 2.0 + 4 * one_ulp, 2.0 + 2 * one_ulp, 1.0]] * 40


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


def test_a_transition_of_more_than_512_channels_is_summed_by_fsum(monkeypatch):
    # the int64 sum of 513 terms has no binade to spare: every such total goes to fsum
    net = ChannelNetwork(("a", "b"), tuple(TransitionChannel(i % 2, 1 - i % 2, "r", 1.0) for i in range(1026)), ())
    fallbacks = []
    fsum = network._fsum
    monkeypatch.setattr(network, "_fsum", lambda terms: fallbacks.append(len(terms)) or fsum(terms))
    values = np.random.default_rng(3).uniform(0.5, 1.5, (80, net.n_channels))
    assert _totals(values, net).tobytes() == _reference(values, net.arrays).tobytes()
    assert fallbacks == [513] * 160


def _fd_network() -> ChannelNetwork:
    """12-state ring, four channels per transition, three records, seeded."""
    rng = np.random.default_rng(11)
    records = ("x", "y", "z")
    channels = tuple(
        TransitionChannel(ch.from_state, ch.to_state, ch.reservoir, float(rng.uniform(0.5, 1.5)),
                          increments=dict(zip(records, rng.standard_normal(3).tolist())))
        for ch in _ring_network(12, sizes=(4,)).channels
    )
    return ChannelNetwork(tuple(f"s{i}" for i in range(12)), channels, records)


def _fd_outputs():
    net = _fd_network()
    hD = np.vstack([1e-4 * net.arrays.increments, np.zeros(net.n_channels)])
    stack = fcs._tilted_stack(net, fcs._stencil_exponents(hD, fcs._stencil_points(3)))
    fd = cumulants_fd(net)
    return stack, build_generator(net).matrix, fd.noise, np.array(list(fd.means.values()))


def test_blocks_on_both_sides_of_the_crossover_give_identical_stacks(monkeypatch):
    a = NET.arrays
    e0 = len(a.counts)
    below = (network._REDUCE_CELLS - 1) // e0  # the most rows that stay on the loop
    reduced_blocks = []
    exact = ChannelArrays._exact_totals
    monkeypatch.setattr(ChannelArrays, "_exact_totals", lambda self, block: reduced_blocks.append(len(block)) or exact(self, block))
    rng = np.random.default_rng(7)
    for K in (below, below + 1):
        values = rng.uniform(0.5, 1.5, NET.n_channels) * np.exp(1e-4 * rng.standard_normal((K, NET.n_channels)))
        stack = a.transition_totals(values, NET.n_states)
        rows = np.stack([a.transition_totals(row, NET.n_states) for row in values])
        assert stack.tobytes() == rows.tobytes()
    assert reduced_blocks == [below + 1]  # single rows and the block below the crossover take the loop
    monkeypatch.undo()

    # the finite-difference stack, its means and noise, and the generator, summed either way
    monkeypatch.setattr(network, "_REDUCE_CELLS", 1 << 62)
    loop = _fd_outputs()
    monkeypatch.setattr(network, "_REDUCE_CELLS", 1)
    reduced = _fd_outputs()
    for x, y in zip(loop, reduced):
        assert x.tobytes() == y.tobytes()
