"""The table-driven sampler against the scalar direct-method loop.

``reference_simulate`` is the per-jump Gillespie loop the library used
before its sampler became table driven, kept here verbatim (stream, state
tables, initial draw and loop) as the reference.  Both must give the same
trajectories bit for bit under the PCG64 stream contract: equal totals,
counts, times, occupations and dump text, also when the channel table is
too coarse for every breakpoint.  The table test checks the exact u-space
breakpoints against bisect at and next to every breakpoint.
"""

from __future__ import annotations

import io
import math
import tracemalloc
import warnings
from bisect import bisect_right

import numpy as np
import pytest

from chanjump import SimConfig, build_dot, build_generator, montecarlo, simulate, stationary_state, twin_dot_spec
from chanjump.errors import NumericalError, ValidationError
from chanjump.montecarlo import TrajectoryStats, _ChannelTable

from conftest import make_network, random_network

_BLOCK = 4096


class _Stream:
    """Blocked draws from one trajectory's generator, in a fixed order."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self._exp: list[float] = []
        self._uni: list[float] = []
        self._i = _BLOCK

    def refill(self) -> None:
        self._exp = self.gen.exponential(size=_BLOCK).tolist()
        self._uni = self.gen.random(size=_BLOCK).tolist()
        self._i = 0

    def next_pair(self) -> tuple[float, float]:
        if self._i >= _BLOCK:
            self.refill()
        i = self._i
        self._i = i + 1
        return self._exp[i], self._uni[i]


def _state_tables(net):
    """Per-state channel ids and cumulative rate thresholds."""
    by_state: list[list[int]] = [[] for _ in net.states]
    for e, ch in enumerate(net.channels):
        by_state[ch.from_state].append(e)
    cums, escapes = [], []
    for s in range(net.n_states):
        acc, cl = 0.0, []
        for e in by_state[s]:
            acc += net.channels[e].rate
            cl.append(acc)
        cums.append(cl)
        escapes.append(acc)
    return by_state, cums, escapes


def _initial_sampler(net, cfg):
    if isinstance(cfg.initial, (int, np.integer)):
        idx = int(cfg.initial)
        if not (0 <= idx < net.n_states):
            raise ValidationError(f"initial state {idx} out of range")
        return idx, None
    if cfg.initial is None:
        try:
            p = stationary_state(build_generator(net)).p
        except NumericalError:
            raise ValidationError(
                "network is not ergodic; pass an explicit initial state or distribution"
            ) from None
    else:
        p = np.asarray(cfg.initial, dtype=float)
        if p.shape != (net.n_states,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError("initial must be a probability vector over the states")
    return None, np.cumsum(p).tolist()


def reference_simulate(net, cfg, dump=None):
    fixed_initial, init_cum = _initial_sampler(net, cfg)
    by_state, cums, escapes = _state_tables(net)
    to_state = [ch.to_state for ch in net.channels]
    n_channels = net.n_channels
    time_mode = cfg.t_max is not None
    horizon = cfg.t_max if time_mode else math.inf
    jump_budget = cfg.max_jumps if cfg.max_jumps is not None else None

    results: list[TrajectoryStats] = []
    for k in range(cfg.n_trajectories):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, k))))
        stream = _Stream(gen)
        if fixed_initial is not None:
            s = fixed_initial
        else:
            u = gen.random()
            s = bisect_right(init_cum, u)
            if s >= net.n_states:
                s = net.n_states - 1
        # burn-in: same dynamics, nothing recorded
        t = 0.0
        absorbed = False
        while t < cfg.burn_in:
            esc = escapes[s]
            if esc <= 0.0:
                absorbed = True
                break
            x, u = stream.next_pair()
            dt = x / esc
            if t + dt > cfg.burn_in:
                break
            t += dt
            cl = cums[s]
            j = bisect_right(cl, u * esc)
            if j >= len(cl):
                j = len(cl) - 1
            s = to_state[by_state[s][j]]

        if dump is not None:
            dump.write(f"# trajectory {k}\n")
        counts = [0] * n_channels
        occupation = [0.0] * net.n_states
        t = 0.0
        n_jumps = 0
        while True:
            esc = escapes[s]
            if esc <= 0.0:
                absorbed = True
                if time_mode:
                    occupation[s] += horizon - t
                    t = horizon
                break
            x, u = stream.next_pair()
            dt = x / esc
            if time_mode and t + dt > horizon:
                occupation[s] += horizon - t
                t = horizon
                break
            t += dt
            occupation[s] += dt
            cl = cums[s]
            j = bisect_right(cl, u * esc)
            if j >= len(cl):
                j = len(cl) - 1
            e = by_state[s][j]
            counts[e] += 1
            n_jumps += 1
            s = to_state[e]
            if dump is not None:
                dump.write(f"{t!r},{e},{s}\n")
            if jump_budget is not None and n_jumps >= jump_budget:
                break

        count_arr = np.array(counts, dtype=float)
        totals = {
            rec: math.fsum(
                counts[e] * net.channels[e].increment(rec)
                for e in range(n_channels)
                if counts[e]
            )
            for rec in net.records
        }
        occ = np.array(occupation)
        count_arr.flags.writeable = False
        occ.flags.writeable = False
        results.append(
            TrajectoryStats(
                totals=totals,
                jump_counts=count_arr,
                elapsed=t,
                n_jumps=n_jumps,
                absorbed=absorbed,
                occupation=occ,
            )
        )
    return results


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_runs(net, cfg):
    got_dump, want_dump = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = simulate(net, cfg, dump=got_dump)
    want = reference_simulate(net, cfg, dump=want_dump)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a.totals) == list(b.totals)
        assert _bits(list(a.totals.values())) == _bits(list(b.totals.values()))
        assert _bits(a.jump_counts) == _bits(b.jump_counts)
        assert _bits(a.occupation) == _bits(b.occupation)
        assert _bits(a.elapsed) == _bits(b.elapsed)
        assert (a.n_jumps, a.absorbed) == (b.n_jumps, b.absorbed)
    assert got_dump.getvalue() == want_dump.getvalue()
    return got


def stiff_network(rng):
    """Random channels with zero rates, rates over many decades and absorbing states."""
    n = int(rng.integers(2, 7))
    channels = []
    for _ in range(int(rng.integers(1, 4 * n))):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        kind = rng.random()
        if kind < 0.2:
            rate = 0.0
        elif kind < 0.3:
            rate = float(10.0 ** rng.uniform(-9, 2))
        else:
            rate = float(rng.random() + 0.01)
        incs = {"a": float(rng.standard_normal()), "b": float(rng.integers(-4, 5))}
        channels.append((i, j, f"r{len(channels)}", rate, "", incs))
    return make_network([f"s{i}" for i in range(n)], channels, ["a", "b"])


def _configs(rng, net):
    init = int(rng.integers(0, net.n_states))
    p = rng.random(net.n_states)
    p /= p.sum()
    yield SimConfig(n_trajectories=3, seed=int(rng.integers(2**31)), t_max=float(rng.uniform(0.5, 40)),
                    initial=init)
    yield SimConfig(n_trajectories=3, seed=int(rng.integers(2**31)), t_max=float(rng.uniform(1, 20)),
                    burn_in=float(rng.uniform(0.1, 10)), initial=p)
    yield SimConfig(n_trajectories=3, seed=int(rng.integers(2**31)), max_jumps=int(rng.integers(1, 300)),
                    initial=init)
    yield SimConfig(n_trajectories=3, seed=int(rng.integers(2**31)), max_jumps=int(rng.integers(1, 50)),
                    burn_in=float(rng.uniform(0.1, 5)), initial=p)
    # a window shorter than almost every first wait
    yield SimConfig(n_trajectories=4, seed=int(rng.integers(2**31)), t_max=1e-9, initial=init)


@pytest.mark.parametrize("seed", range(40))
def test_random_networks_match_reference(seed):
    rng = np.random.default_rng(9000 + seed)
    net = stiff_network(rng) if seed % 2 else random_network(rng, max_parallel=3)
    for cfg in _configs(rng, net):
        assert_same_runs(net, cfg)


def test_stationary_start_and_long_walks_match_reference():
    # several blocks per trajectory, and the stationary initial draw
    net = random_network(np.random.default_rng(77), n_states=5, max_parallel=4)
    assert_same_runs(net, SimConfig(n_trajectories=3, seed=5, t_max=3000.0, burn_in=50.0))
    assert_same_runs(net, SimConfig(n_trajectories=2, seed=6, max_jumps=9000))


def test_absorbing_network_matches_reference():
    net = make_network(
        ["a", "b", "c"],
        [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 0.5), (1, 2, "r", 0.2, "", {"n": -2.0}),
         (2, 0, "r", 0.0)],
        ["n"],
    )
    runs = assert_same_runs(net, SimConfig(n_trajectories=20, seed=3, t_max=50.0, initial=0))
    assert any(st.absorbed for st in runs)
    runs = assert_same_runs(net, SimConfig(n_trajectories=20, seed=4, max_jumps=6, burn_in=1.0, initial=0))
    assert any(st.absorbed for st in runs) and any(not st.absorbed for st in runs)


def test_twin_pinned_seed_matches_reference():
    net = build_dot(twin_dot_spec())
    assert_same_runs(net, SimConfig(n_trajectories=50, seed=2024, t_max=1000.0))


def test_coarse_tables_match_reference(monkeypatch):
    # bins too few for every breakpoint: split cells are resolved per draw
    for cells in (1, 8, 32):
        monkeypatch.setattr(montecarlo, "_TABLE_CELLS", cells)
        monkeypatch.setattr(montecarlo, "_CELLS_PER_CHANNEL", 0)
        split = 0
        for seed in range(6):
            rng = np.random.default_rng(9100 + seed)
            net = stiff_network(rng) if seed % 2 else random_network(rng, max_parallel=4)
            table = _ChannelTable(net)
            split += table.step.count(table.split)
            for cfg in _configs(rng, net):
                assert_same_runs(net, cfg)
        assert split > 0
        assert_same_runs(build_dot(twin_dot_spec()), SimConfig(n_trajectories=5, seed=2024, t_max=1000.0))


def test_table_size_is_capped():
    # a ring with chords, N = 300, E = 4800: every breakpoint would need about 1.3 M cells
    rng = np.random.default_rng(3)
    n = 300
    pairs = [(i, (i + 1) % n) for i in range(n)] + [tuple(rng.choice(n, 2, replace=False)) for _ in range(n)]
    channels = [(int(a), int(b), f"c{m}", float(rng.uniform(0.5, 1.5))) for a, b in pairs
                for a, b in ((a, b), (b, a)) for m in range(4)]
    net = make_network([f"s{i}" for i in range(n)], channels, [])
    table = _ChannelTable(net)
    assert len(table.step) <= montecarlo._CELLS_PER_CHANNEL * net.n_channels
    assert table.split in table.step
    assert_same_runs(net, SimConfig(n_trajectories=2, seed=8, t_max=20.0, initial=0))


@pytest.mark.parametrize("cells", [1 << 16, 16])
@pytest.mark.parametrize("seed", range(13))
def test_channel_table_matches_bisect_at_every_breakpoint(seed, cells, monkeypatch):
    monkeypatch.setattr(montecarlo, "_TABLE_CELLS", cells)
    monkeypatch.setattr(montecarlo, "_CELLS_PER_CHANNEL", 0)
    rng = np.random.default_rng(500 + seed)
    if seed == 0:
        # stiff rates: 1e-300 next to 1e300 on one state
        net = make_network(
            ["a", "b", "c"],
            [(0, 1, "r", 1e-300), (0, 2, "r", 1e300), (0, 1, "q", 1e-300), (0, 2, "q", 2.5),
             (1, 0, "r", 1e300), (1, 2, "r", 1e-300), (2, 0, "r", 1.0)],
            [],
        )
    elif seed == 12:
        # fl(b esc) is subnormal for esc = 1e-300, so one ulp of b barely moves it: from c / esc
        # down to the smallest breakpoint is about 2^52 ulps for c = 5e-324
        net = make_network(
            ["a", "b"],
            [(0, 1, "r", 5e-324), (0, 1, "q", 1e-300), (0, 1, "p", 5e-324),
             (1, 0, "r", 1e-300), (1, 0, "q", 3e-310), (1, 0, "p", 1.0)],
            [],
        )
    else:
        net = stiff_network(rng)
    table = _ChannelTable(net)
    by_state, cums, escapes = _state_tables(net)
    T = np.concatenate((table._breaks, table.bounds))  # every breakpoint and every bin edge
    probes = np.concatenate((T, np.nextafter(T, np.inf), np.nextafter(T, -np.inf),
                             [0.0, np.nextafter(1.0, 0.0)], rng.random(200)))
    probes = np.unique(probes[(probes >= 0.0) & (probes < 1.0)])
    offsets = table.offsets(probes).tolist()
    for s in range(net.n_states):
        got = [table.fire[i + s] if table.step[i + s] != table.split else table.resolve(s, u)
               for i, u in zip(offsets, probes.tolist())]
        if table.escape[s] <= 0:
            assert got == [net.n_channels + s] * len(got)
            continue
        cl = cums[s]
        want = [by_state[s][min(bisect_right(cl, u * escapes[s]), len(cl) - 1)] for u in probes.tolist()]
        assert got == want


def test_memory_does_not_grow_with_trajectory_length():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 2.0)], ["n"])

    def peak(jumps):
        tracemalloc.start()
        try:
            simulate(net, SimConfig(n_trajectories=1, seed=1, max_jumps=jumps, initial=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(20_000), peak(400_000)
    # keeping every jump until the trajectory ends added about 26 MB here
    assert long < short + 1_000_000


def test_overflowing_escape_rate_is_rejected():
    # the scalar loop never advanced time here (every wait is x / inf = 0)
    net = make_network(["a", "b"], [(0, 1, "r", 1e308), (0, 1, "q", 1e308), (1, 0, "r", 1.0)], [])
    with pytest.raises(ValidationError, match="overflows"):
        simulate(net, SimConfig(n_trajectories=1, seed=0, t_max=1.0, initial=0))
