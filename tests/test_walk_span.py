"""Walking several jumps per table lookup against one jump per lookup.

On an exact channel table the sampler composes ``span`` consecutive lookups
into one.  Forcing span 1 (a zero composite cell cap) must give the same
trajectories bit for bit as the widest span the table cap allows: totals,
counts, occupations, times and dump text.  A walk made in many short chunks
must read the PCG64 stream exactly as blocks of exponentials and uniforms,
although the uniforms are drawn only as the chunks reach them.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest

from chanjump import SimConfig, build_dot, montecarlo, simulate, twin_dot_spec
from chanjump.montecarlo import _ChannelTable, _Walk

from conftest import make_network, random_network

_BLOCK = 4096


def _run(net, cfg):
    dump = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = simulate(net, cfg, dump=dump)
    return stats, dump.getvalue()


def _span(net, jumps):
    table = _ChannelTable(net)
    table.compose(jumps)
    return table.span


def assert_span_invariant(net, cfg, monkeypatch):
    """The widest span and span 1 give the same run; returns the widest span."""
    monkeypatch.setattr(montecarlo, "_COMPOSITE_CELLS_PER_JUMP", math.inf)
    wide, wide_dump = _run(net, cfg)
    span = _span(net, 1.0)
    monkeypatch.setattr(montecarlo, "_COMPOSITE_CELLS_PER_JUMP", 0.0)
    assert _span(net, 1.0) == 1
    narrow, narrow_dump = _run(net, cfg)
    assert len(wide) == len(narrow)
    for a, b in zip(wide, narrow):
        assert np.asarray(list(a.totals.values())).tobytes() == np.asarray(list(b.totals.values())).tobytes()
        assert a.jump_counts.tobytes() == b.jump_counts.tobytes()
        assert a.occupation.tobytes() == b.occupation.tobytes()
        assert (a.elapsed, a.n_jumps, a.absorbed) == (b.elapsed, b.n_jumps, b.absorbed)
    assert wide_dump == narrow_dump
    return span


def small_network(rng):
    """A few states, parallel channels, and sometimes zero rates that leave a state absorbing."""
    n = int(rng.integers(2, 5))
    channels = []
    for i in range(n):
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.choice([k for k in range(n) if k != i]))
            rate = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 3.0))
            channels.append((i, j, f"r{len(channels)}", rate, "", {"a": float(rng.integers(-3, 4))}))
    return make_network([f"s{i}" for i in range(n)], channels, ["a"])


@pytest.mark.parametrize("seed", range(16))
def test_widest_span_matches_span_one(seed, monkeypatch):
    rng = np.random.default_rng(4400 + seed)
    net = small_network(rng) if seed % 2 else random_network(rng, n_states=int(rng.integers(2, 4)), max_parallel=2)
    init = int(rng.integers(0, net.n_states))
    p = rng.random(net.n_states)
    p /= p.sum()
    configs = [
        SimConfig(n_trajectories=3, seed=seed, t_max=float(rng.uniform(50, 500)), initial=init),
        SimConfig(n_trajectories=3, seed=seed, t_max=float(rng.uniform(5, 50)), burn_in=float(rng.uniform(1, 20)),
                  initial=p),
        SimConfig(n_trajectories=3, seed=seed, max_jumps=int(rng.integers(1, 600)), initial=init),
        SimConfig(n_trajectories=2, seed=seed, max_jumps=int(rng.integers(1, 60)), burn_in=float(rng.uniform(1, 9)),
                  initial=p),
        SimConfig(n_trajectories=4, seed=seed, t_max=1e-9, initial=init),
    ]
    spans = [assert_span_invariant(net, cfg, monkeypatch) for cfg in configs]
    table = _ChannelTable(net)
    if (table.leads < net.n_states).all() and table.bounds.size:
        assert min(spans) > 1  # an exact table with a choice is composed


def test_absorbing_walks_match_at_every_span(monkeypatch):
    net = make_network(
        ["a", "b", "c"],
        [(0, 1, "r", 1.0, "", {"n": 1.0}), (0, 2, "r", 0.01), (1, 0, "r", 0.5), (1, 0, "q", 0.7),
         (1, 2, "r", 0.05, "", {"n": -2.0}), (2, 0, "r", 0.0)],
        ["n"],
    )
    cfg = SimConfig(n_trajectories=30, seed=3, t_max=40.0, initial=0)
    assert assert_span_invariant(net, cfg, monkeypatch) > 1
    stats, _ = _run(net, cfg)
    assert any(st.absorbed for st in stats) and any(not st.absorbed for st in stats)
    jumps = SimConfig(n_trajectories=30, seed=4, max_jumps=40, burn_in=5.0, initial=0)
    assert assert_span_invariant(net, jumps, monkeypatch) > 1


def test_twin_runs_across_blocks_match_at_every_span(monkeypatch):
    net = build_dot(twin_dot_spec())
    cfg = SimConfig(n_trajectories=3, seed=2024, t_max=12_000.0, burn_in=3000.0)  # about 12 blocks each
    assert assert_span_invariant(net, cfg, monkeypatch) > 1
    assert assert_span_invariant(net, SimConfig(n_trajectories=2, seed=9, max_jumps=10_000), monkeypatch) > 1


def test_every_composite_cell_is_span_single_lookups(monkeypatch):
    monkeypatch.setattr(montecarlo, "_COMPOSITE_CELLS_PER_JUMP", math.inf)
    table = _ChannelTable(build_dot(twin_dot_spec()))
    table.compose(1.0)
    n = table.escape.size
    bins = len(table.step) // n
    assert table.span > 1 and len(table.lookup) == bins**table.span * n <= montecarlo._TABLE_CELLS
    for cell, reached in enumerate(table.lookup):
        row, s = divmod(cell, n)
        for _ in range(table.span):
            row, c = divmod(row, bins)
            s = table.step[c * n + s]
        assert reached == s


def _walk_in_chunks(table, seed, chunk, n_chunks):
    """(channels, states before, waits) of ``n_chunks`` walks of ``chunk`` jumps in turn."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    walk = _Walk(table, gen, 0, 1.0)
    parts = []
    for _ in range(n_chunks):
        walk.run(math.inf, chunk, "right", lambda *args: parts.append(args[:3]))
    return [np.concatenate(col) for col in zip(*parts)]


@pytest.mark.parametrize("chunk", [1, 7, 100, 30_000])
def test_short_chunks_read_the_block_stream(chunk, monkeypatch):
    # a ring with parallel channels: no absorbing state, so every chunk makes its jumps
    net = random_network(np.random.default_rng(12), n_states=3, max_parallel=3)
    monkeypatch.setattr(montecarlo, "_COMPOSITE_CELLS_PER_JUMP", math.inf)
    chunk = min(chunk, 3 * _BLOCK + 300)
    n_jumps = chunk * -(-(3 * _BLOCK + 300) // chunk)  # into the fourth block
    for composed in (True, False):  # the widest span, then span 1
        table = _ChannelTable(net)
        if composed:
            table.compose(1.0)
            assert table.span > 1
        fired, before, waits = _walk_in_chunks(table, 31, chunk, n_jumps // chunk)
        assert fired.size == n_jumps
        # the same seed, read as whole blocks: 4096 exponentials, then 4096 uniforms
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((31, 0))))
        blocks = [(gen.standard_exponential(_BLOCK), gen.random(_BLOCK)) for _ in range(4)]
        x = np.concatenate([b[0] for b in blocks])[:n_jumps]
        u = np.concatenate([b[1] for b in blocks])[:n_jumps]
        assert waits.tobytes() == (x / table.escape[before]).tobytes()
        offsets = table.offsets(u)
        assert (fired == table.fire[offsets + before]).all()
        assert (before[1:] == np.asarray(net.arrays.to_state)[fired[:-1]]).all()
