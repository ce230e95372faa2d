"""Continuous-time Monte Carlo of channel-resolved jump trajectories.

The sampler is Gillespie's direct method (J. Phys. Chem. 81, 2340, 1977):
exponential waiting time at the current state's total escape rate, then a
channel drawn proportionally to its rate.  Record totals are accumulated per
channel (each jump of channel e adds its fixed increment), so a trajectory's
totals equal jump_counts . D exactly.

Reproducibility contract: trajectory k uses numpy's PCG64 generator seeded
with SeedSequence((master_seed, k)).  Trajectories are mutually independent
and aggregated in trajectory order, so results are identical bit for bit no
matter how the work would be scheduled; the PCG64 output stream is pinned as
part of the contract, and so is the order in which draws are used (see
``_Walk``).

The channel choice is a precomputed table lookup (``_ChannelTable``) and
each trajectory is walked a chunk of jumps at a time; both reproduce the
scalar per-jump loop bit for bit (tests/test_sampler_equivalence.py keeps
that loop as the reference).
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .fcs import CumulantReport
from .network import ChannelNetwork

__all__ = ["SimConfig", "TrajectoryStats", "simulate", "empirical_cumulants"]

_BLOCK = 4096  # random numbers drawn per refill; fixed, part of the stream contract
# The channel table has at most max(_TABLE_CELLS, _CELLS_PER_CHANNEL * E) cells.  Small
# networks get an exact table.  In a larger one a state's E / N breakpoints split about
# E / N of its (cells / N) bins, so about 1 jump in _CELLS_PER_CHANNEL needs a resolve.
_TABLE_CELLS = 1 << 16
_CELLS_PER_CHANNEL = 16


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    Exactly one of ``t_max`` (observation window per trajectory) or
    ``max_jumps`` (jump budget) must be set.  ``initial`` is a state index, a
    probability vector to sample from, or None for the stationary state.
    ``burn_in`` simulated time is discarded before accumulation starts.
    """

    n_trajectories: int
    seed: int
    t_max: float | None = None
    max_jumps: int | None = None
    initial: int | Sequence[float] | None = None
    burn_in: float = 0.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValidationError("n_trajectories must be >= 1")
        if (self.t_max is None) == (self.max_jumps is None):
            raise ValidationError("set exactly one of t_max and max_jumps")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValidationError("t_max must be finite and > 0")
        if self.max_jumps is not None and self.max_jumps < 1:
            raise ValidationError("max_jumps must be >= 1")
        if not 0 <= self.burn_in < math.inf:
            raise ValidationError("burn_in must be finite and >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class TrajectoryStats:
    """Accumulated outcome of one trajectory.

    ``totals`` are the record sums over the accumulation window, ``elapsed``
    its duration (the full window even if the walker got stuck in an
    absorbing state, in which case ``absorbed`` is set), and ``occupation``
    the time spent per state.
    """

    totals: dict[str, float]
    jump_counts: np.ndarray
    elapsed: float
    n_jumps: int
    absorbed: bool
    occupation: np.ndarray

    def rates(self) -> dict[str, float]:
        """Record totals per unit time (nan if no time elapsed)."""
        if self.elapsed <= 0.0:
            return {k: math.nan for k in self.totals}
        return {k: v / self.elapsed for k, v in self.totals.items()}


class _ChannelTable:
    """The direct method's channel choice as (mostly) one table lookup.

    For a state with escape rate ``esc`` and cumulative rates c_0 <= ... <=
    c_{d-1} over its channels in declared order, the direct method fires
    position min(bisect_right(c, fl(u * esc)), d - 1) for a uniform u.  As
    fl(u * esc) is nondecreasing in u, c_m <= fl(u * esc) holds exactly when
    u >= b_m, the smallest double with fl(b_m * esc) >= c_m, so the position
    is the number of the state's breakpoints b_m (m < d - 1) at or below u.

    ``bounds`` cuts [0, 1) into bins, bin = searchsorted(bounds, u, "right")
    (see ``offsets``), and ``fire[bin * N + s]`` is the channel state s fires
    for every uniform in the bin.  When all breakpoints of all states fit in
    the table's cells, ``bounds`` holds every one of them and each cell is
    exact; otherwise ``bounds`` keeps an evenly spaced subset, and a cell
    with one of the state's own breakpoints strictly inside its bin is split:
    it is resolved per draw by ``resolve``.  ``step`` is the state each cell
    leads to, and ``split`` (the number of cells) for a split cell, so that
    the next lookup fails.  A state without outgoing rate fires the sentinel
    E + s, which leads back to s.
    """

    def __init__(self, net: ChannelNetwork):
        arrays = net.arrays
        n, n_ch = net.n_states, net.n_channels
        order = np.argsort(arrays.from_state, kind="stable")
        owner = arrays.from_state[order]
        starts = np.searchsorted(owner, np.arange(n + 1))
        cum = np.empty(n_ch)
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            for s in range(n):
                # left-to-right partial sums per state, the direct method's thresholds
                cum[starts[s]:starts[s + 1]] = np.add.accumulate(arrays.rate[order[starts[s]:starts[s + 1]]])
        has = starts[1:] > starts[:-1]
        escape = np.zeros(n)
        escape[has] = cum[starts[1:][has] - 1]
        if not np.isfinite(escape).all():
            state = net.states[int(np.argmin(np.isfinite(escape)))]
            raise ValidationError(f"state {state!r}: total escape rate overflows")
        inner = np.ones(n_ch, dtype=bool)
        inner[starts[1:][has] - 1] = False
        inner &= escape[owner] > 0
        c, esc = cum[inner], escape[owner[inner]]
        b = c / esc
        while (low := b * esc < c).any():
            b[low] = np.nextafter(b[low], np.inf)
        while True:
            below = np.nextafter(b, -np.inf)
            high = (below * esc >= c) & (b > 0)
            if not high.any():
                break
            b[high] = below[high]
        # b is grouped by state, nondecreasing within a state
        self.bounds = np.unique(b)
        rows = max(max(_TABLE_CELLS, _CELLS_PER_CHANNEL * n_ch) // n, 2)
        if self.bounds.size >= rows:
            self.bounds = self.bounds[::-(-self.bounds.size // (rows - 1))]
        left = np.searchsorted(self.bounds, b, "left")
        right = np.searchsorted(self.bounds, b, "right")
        inside = left == right  # b is not a bound: its bin `right` is split
        # int32 cells, and each temporary freed early: the table is the sampler's memory
        passed = np.zeros((self.bounds.size + 2, n), dtype=np.int32)
        np.add.at(passed, (right + inside, owner[inner]), 1)
        np.cumsum(passed, axis=0, out=passed)
        passed += starts[:-1].astype(np.int32)
        np.minimum(passed, n_ch - 1, out=passed)
        fire = order.astype(np.int32)[passed[:-1]]
        del passed
        stuck = np.flatnonzero(escape <= 0)
        fire[:, stuck] = n_ch + stuck
        self.fire = fire.ravel()
        self.split = self.fire.size
        leads = np.concatenate((arrays.to_state, np.arange(n))).astype(np.int32)[self.fire]
        leads.reshape(fire.shape)[right[inside], owner[inner][inside]] = n
        # one int object per state, shared by every cell that leads there
        self.step = np.array([*range(n), self.split], dtype=object)[leads].tolist()
        self.escape = escape
        self.to_state = arrays.to_state.tolist()
        self._breaks = b.tolist()
        self._first_break = np.concatenate(([0], np.cumsum(np.bincount(owner[inner], minlength=n)))).tolist()
        self._channels = order.tolist()
        self._first_channel = starts.tolist()

    def offsets(self, u: np.ndarray) -> np.ndarray:
        """bin * N for each uniform: add a state to index ``fire`` or ``step``."""
        return np.searchsorted(self.bounds, u, "right") * len(self.escape)

    def resolve(self, s: int, u: float) -> int:
        """The channel state s fires for uniform u, from its own breakpoints."""
        lo, hi = self._first_break[s], self._first_break[s + 1]
        return self._channels[self._first_channel[s] + bisect_right(self._breaks, u, lo, hi) - lo]


class _Walk:
    """One trajectory, consumed from its blocks of draws a chunk at a time.

    Pairs are taken in stream order: a block of _BLOCK exponentials, then a
    block of _BLOCK uniforms, and pair i is (exponential i, uniform i); the
    next block is drawn when this one is used up.  A chunk walks the states
    in Python (one table lookup per jump, and a ``resolve`` after a split
    cell); waits, times and stopping are numpy passes that keep the direct
    method's scalar float operations: x / esc, then times added left to
    right.  Chunks are sized from the expected number of remaining jumps, so
    a walk past the stop is short and is discarded.
    """

    def __init__(self, table: _ChannelTable, gen: np.random.Generator, state: int, rate: float):
        self.table = table
        self.gen = gen
        self.state = state
        self.rate = rate
        self.exp = self.uni = None
        self.cursor = _BLOCK
        self.absorbed = False

    def _path(self, offsets: np.ndarray, us: np.ndarray) -> tuple[list[int], list[tuple[int, int]]]:
        """States from the current one through one jump per uniform.

        Returns the states (one more than ``us``) and the (position, channel)
        pairs of the jumps whose cell had to be resolved.
        """
        tab = self.table
        step, split = tab.step, tab.split
        offsets = offsets.tolist()
        s = self.state
        path = [s]
        resolved = []
        rest = iter(offsets)
        todo = rest
        while True:
            try:
                path += (s := step[i + s] for i in todo)
            except IndexError:  # the lookup after a split cell
                pass
            if path[-1] != split:
                return path, resolved
            m = len(path) - 2
            e = tab.resolve(path[m], float(us[m]))
            resolved.append((m, e))
            path[-1] = s = tab.to_state[e]
            # the failed lookup took offsets[m + 1] from `rest`; retry it first
            todo = itertools.chain(offsets[m + 1:m + 2], rest)

    def run(self, limit: float, budget: float, side: str, tally: _Tally | None = None) -> float:
        """Jump from time 0 until a stop and return the end time.

        The walk stops before a pair when its state has no outgoing rate
        (``absorbed``), on the pair whose time passes ``limit`` (side "right")
        or reaches it (side "left", burn-in), or after ``budget`` jumps.  A
        pair that passes the limit is consumed without a jump.  Each chunk's
        jumps go to ``tally(channels, states before, waits, times, states
        after)`` in jump order; nothing is kept between chunks.
        """
        tab = self.table
        t = 0.0
        made = 0
        while True:
            if self.cursor == _BLOCK:
                self.exp = self.gen.standard_exponential(size=_BLOCK)  # = exponential(), bit for bit
                self.uni = self.gen.random(size=_BLOCK)
                self.cursor = 0
            c = self.cursor
            if budget < math.inf:
                want = budget - made
            else:
                rate = made / t if made and t > 0 else self.rate
                expected = min((limit - t) * rate, _BLOCK)
                want = int(expected + 3.0 * math.sqrt(expected)) + 16
            k = min(_BLOCK - c, want)
            us = self.uni[c:c + k]
            offsets = tab.offsets(us)
            path, resolved = self._path(offsets, us)
            before = np.fromiter(path, dtype=np.intp, count=k)
            esc = tab.escape[before]
            dead = np.flatnonzero(esc <= 0)
            a = int(dead[0]) if dead.size else k
            dt = self.exp[c:c + a] / esc[:a]
            times = np.add.accumulate(np.concatenate(([t], dt)))
            g = int(np.searchsorted(times[1:], limit, side))
            if g < a:
                jumps = g if times[g + 1] > limit else g + 1
                used, stop = g + 1, True
            else:
                jumps = used = a
                stop = self.absorbed = a < k
            if made + jumps >= budget:  # a chunk holds at most the jumps left in the budget
                stop = True
            if tally is not None:
                fired = tab.fire[offsets[:jumps] + before[:jumps]]
                for m, e in resolved:
                    if m < jumps:
                        fired[m] = e
                tally(fired, before[:jumps], dt[:jumps], times[1:jumps + 1], path[1:jumps + 1])
            made += jumps
            t = float(times[jumps])
            self.state = path[jumps]
            self.cursor = c + used
            if stop:
                return t


class _Tally:
    """One trajectory's jump counts, occupation and dump lines, a chunk at a time."""

    def __init__(self, n_states: int, n_channels: int, dump: IO[str] | None):
        self.counts = np.zeros(n_channels, dtype=np.int64)
        self.occupation = np.zeros(n_states)
        self.dump = dump

    def __call__(self, fired, before, waits, times, after) -> None:
        self.counts += np.bincount(fired, minlength=self.counts.size)
        np.add.at(self.occupation, before, waits)  # in jump order, as the scalar sums
        if self.dump is not None:
            self.dump.write("".join(f"{t!r},{e},{s}\n" for t, e, s in zip(times.tolist(), fired.tolist(), after)))


def _strongly_connected(net: ChannelNetwork) -> bool:
    """Is every state reachable from every other along positive-rate channels?"""
    arrays = net.arrays
    live = arrays.rate > 0
    src, dst = arrays.from_state[live], arrays.to_state[live]
    return _reaches_all(src, dst, net.n_states) and _reaches_all(dst, src, net.n_states)


def _reaches_all(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """Does every state lie on a path from state 0 along the edges src -> dst?"""
    order = np.argsort(src, kind="stable")
    heads = dst[order].tolist()
    first = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        s = stack.pop()
        for t in heads[first[s]:first[s + 1]]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return all(seen)


def _initial_sampler(net: ChannelNetwork, cfg: SimConfig):
    if isinstance(cfg.initial, (int, np.integer)):
        idx = int(cfg.initial)
        if not (0 <= idx < net.n_states):
            raise ValidationError(f"initial state {idx} out of range")
        return idx, None
    if cfg.initial is None:
        try:
            p = net.stationary.p
        except NumericalError:
            raise ValidationError(
                "network is not ergodic; pass an explicit initial state or distribution"
            ) from None
    else:
        p = np.asarray(cfg.initial, dtype=float)
        if p.shape != (net.n_states,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError("initial must be a probability vector over the states")
    return None, np.cumsum(p)


def simulate(net: ChannelNetwork, cfg: SimConfig, dump: IO[str] | None = None) -> list[TrajectoryStats]:
    """Run independent trajectories and collect per-trajectory statistics.

    A state without outgoing rate ends the trajectory early (flagged
    absorbed); in the fixed-window mode the remaining time still counts as
    occupation of that state.  ``dump`` receives one "time,channel,state"
    line per jump, prefixed by a "# trajectory k" line per trajectory.
    """
    table = _ChannelTable(net)
    if not _strongly_connected(net):
        warnings.warn("simulating a non-ergodic network", stacklevel=2)
    fixed_initial, init_cum = _initial_sampler(net, cfg)
    live = table.escape[table.escape > 0]
    # harmonic mean escape rate: the jump rate of a walk visiting states evenly, sizes the chunks
    rate = live.size / float(np.sum(1.0 / live)) if live.size else 0.0
    increments = net.arrays.increments
    time_mode = cfg.t_max is not None
    horizon = cfg.t_max if time_mode else math.inf
    budget = math.inf if time_mode else cfg.max_jumps

    results: list[TrajectoryStats] = []
    for k in range(cfg.n_trajectories):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, k))))
        if fixed_initial is not None:
            s = fixed_initial
        else:
            s = min(int(np.searchsorted(init_cum, gen.random(), "right")), net.n_states - 1)
        walk = _Walk(table, gen, s, rate)
        if cfg.burn_in > 0:
            walk.run(cfg.burn_in, math.inf, "left")  # same dynamics, nothing recorded
        if dump is not None:
            dump.write(f"# trajectory {k}\n")
        tally = _Tally(net.n_states, net.n_channels, dump)
        t = walk.run(horizon, budget, "right", tally)
        occupation = tally.occupation
        if time_mode:
            occupation[walk.state] += horizon - t
            t = horizon
        counts = tally.counts.astype(float)
        used = np.flatnonzero(counts)
        terms = (increments[:, used] * counts[used]).tolist()
        counts.flags.writeable = False
        occupation.flags.writeable = False
        results.append(
            TrajectoryStats(
                totals={rec: math.fsum(row) for rec, row in zip(net.records, terms)},
                jump_counts=counts,
                elapsed=t,
                n_jumps=int(tally.counts.sum()),
                absorbed=walk.absorbed,
                occupation=occupation,
            )
        )
    return results


def _pooled_means(stats: Sequence[TrajectoryStats]):
    """Records, per-trajectory totals X and windows T, and the pooled means.

    A mean pools totals over pooled time, so it needs no common window.
    """
    if len(stats) < 2:
        raise ValidationError("need at least 2 trajectories to estimate cumulants")
    records = tuple(stats[0].totals.keys())
    X = np.array([[st.totals[rec] for rec in records] for st in stats]).reshape(len(stats), len(records))
    T = np.array([st.elapsed for st in stats], dtype=float)
    total_time = math.fsum(T)
    if not total_time > 0:
        raise ValidationError("no simulated time elapsed: every trajectory started absorbed")
    means = {rec: math.fsum(X[:, i]) / total_time for i, rec in enumerate(records)}
    return records, X, T, means


def empirical_cumulants(stats: Sequence[TrajectoryStats]) -> CumulantReport:
    """Estimate means and zero-frequency noise from trajectory totals.

    Means pool totals over pooled time; the noise matrix is the
    across-trajectory covariance of equal-window totals divided by the
    window.  Standard errors come from 10 contiguous trajectory batches
    (2 when there are fewer than 20 trajectories).
    """
    if len(stats) < 2:
        raise ValidationError("need at least 2 trajectories to estimate cumulants")
    T = stats[0].elapsed
    if any(abs(st.elapsed - T) > 1e-12 * max(1.0, T) for st in stats):
        raise ValidationError("noise estimation requires equal observation windows")
    records, X, _, means = _pooled_means(stats)
    n = len(stats)
    noise = np.cov(X, rowvar=False, ddof=1).reshape(len(records), len(records)) / T

    per_rate = X / T
    mean_errors = {
        rec: float(np.std(per_rate[:, i], ddof=1) / math.sqrt(n))
        for i, rec in enumerate(records)
    }
    n_batches = 10 if n >= 20 else 2
    edges = np.linspace(0, n, n_batches + 1, dtype=int)
    batch_S = []
    for b in range(n_batches):
        chunk = X[edges[b]:edges[b + 1]]
        if len(chunk) >= 2:
            batch_S.append(np.cov(chunk, rowvar=False, ddof=1).reshape(len(records), len(records)) / T)
    noise_errors = (
        np.std(np.array(batch_S), axis=0, ddof=1) / math.sqrt(len(batch_S))
        if len(batch_S) >= 2
        else np.full((len(records), len(records)), np.nan)
    )
    return CumulantReport(
        records=records,
        means=means,
        noise=noise,
        method="monte_carlo",
        mean_errors=mean_errors,
        noise_errors=noise_errors,
    )


def _jump_budget_means(stats: Sequence[TrajectoryStats]) -> CumulantReport:
    """Pooled means and their standard errors from trajectories of any lengths.

    The standard error is the ratio estimator's, sqrt(sum_k (X_k - m T_k)^2 /
    (n (n - 1))) / mean(T).  Jump-budget trajectories end at unequal times,
    so the noise is not estimated: ``noise`` is None and ``note`` says why.
    """
    records, X, T, means = _pooled_means(stats)
    n = len(stats)
    residuals = X - np.outer(T, [means[rec] for rec in records])
    errors = np.sqrt((residuals**2).sum(axis=0) / (n * (n - 1))) / (math.fsum(T) / n)
    return CumulantReport(
        records=records,
        means=means,
        noise=None,
        method="monte_carlo",
        mean_errors={rec: float(v) for rec, v in zip(records, errors)},
        note="noise needs equal observation windows; jump-budget trajectories have unequal ones",
    )
