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

The channel choice is a precomputed table lookup (``_ChannelTable``; on a
small exact table one lookup walks several jumps) and each trajectory is
walked a chunk of jumps at a time; both reproduce the scalar per-jump loop
bit for bit (tests/test_sampler_equivalence.py keeps that loop as the
reference).  A call tallies its trajectories into one (trajectory, channel)
count array and one (trajectory, state) occupation array, each trajectory
writing its own row; the record totals are computed from the counts after
the last walk, a block of trajectories at a time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import NonErgodicError, NumericalError, ValidationError
from .fcs import CumulantReport
from .network import ChannelNetwork, all_integers, checked_number, checked_probability, finite_fsum, graph_walk

__all__ = ["SimConfig", "TrajectoryStats", "simulate", "empirical_cumulants"]

_BLOCK = 4096  # random numbers drawn per refill; fixed, part of the stream contract
# The channel table has at most max(_TABLE_CELLS, _CELLS_PER_CHANNEL * E) cells.  Small
# networks get an exact table.  In a larger one a state's E / N breakpoints split about
# E / N of its (cells / N) bins, so about 1 jump in _CELLS_PER_CHANNEL needs a resolve.
_TABLE_CELLS = 1 << 16
_CELLS_PER_CHANNEL = 16
# An exact table is composed into one of bins**span * N cells, at most _TABLE_CELLS and at
# most this many per jump the call is expected to make, so building it never dominates a
# short call.
_COMPOSITE_CELLS_PER_JUMP = 0.125
# A run expected to make more jumps than this is refused: at a few million jumps per
# second it would take minutes or, for a window like 1e300, never end.
_MAX_EXPECTED_JUMPS = 1e9
# What a trajectory costs even when it makes no jump (seeding its generator, its first
# block of exponentials, its statistics), in jumps; counted against _MAX_EXPECTED_JUMPS.
_TRAJECTORY_JUMPS = 500
# Record totals are computed for blocks of trajectories with at most this many (trajectory,
# record, channel) cells, so their terms never take n x q x E doubles at once.
_TOTALS_CELLS = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    Exactly one of ``t_max`` (observation window per trajectory) or
    ``max_jumps`` (jump budget) must be set.  ``initial`` is a state index, a
    probability vector to sample from, or None for the stationary state.
    ``burn_in`` simulated time is discarded before accumulation starts.
    ``n_trajectories``, ``seed`` and ``max_jumps`` are ints or numpy integers,
    not bools; ``t_max`` and ``burn_in`` are numbers, stored as floats.
    """

    n_trajectories: int
    seed: int
    t_max: float | None = None
    max_jumps: int | None = None
    initial: int | Sequence[float] | None = None
    burn_in: float = 0.0

    def __post_init__(self):
        for name in ("n_trajectories", "seed", "max_jumps"):
            value = getattr(self, name)
            if not (all_integers((value,)) or value is None and name == "max_jumps"):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.t_max is not None:
            object.__setattr__(self, "t_max", checked_number(self.t_max, "t_max"))
        object.__setattr__(self, "burn_in", checked_number(self.burn_in, "burn_in"))
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
    the next lookup fails; ``leads`` is the same as an array, with N for a
    split cell.  A state without outgoing rate fires the sentinel E + s,
    which leads back to s; ``absorbing`` says whether there is one.

    The walk looks up ``lookup`` once per ``span`` jumps (see ``compose``);
    until a table is composed, ``span`` is 1 and ``lookup`` is ``step``.
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
        # lower b to the smallest such double by its bit pattern, which orders nonnegative doubles,
        # with a step that doubles while fl(b * esc) >= c holds and halves where it fails: where
        # the product is subnormal, steps of one ulp could take up to 2^52 of them
        bits = b.view(np.int64)
        step = np.ones_like(bits)
        while step.any():
            lower = np.maximum(bits - step, 0)
            holds = (lower < bits) & (lower.view(float) * esc >= c)
            bits[holds] = lower[holds]
            step = np.where(holds, 2 * step, step // 2)
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
        self.absorbing = stuck.size > 0
        self.fire = fire.ravel()
        self.split = self.fire.size
        leads = np.concatenate((arrays.to_state, np.arange(n))).astype(np.int32)[self.fire]
        leads.reshape(fire.shape)[right[inside], owner[inner][inside]] = n
        # one int object per state, shared by every cell that leads there
        self.step = np.array([*range(n), self.split], dtype=object)[leads].tolist()
        self.leads = leads
        self.span, self.lookup, self.radix = 1, self.step, None
        self.escape = escape
        # one block of exponentials and one of uniforms, reused by every walk over the table
        self.exp, self.uni = np.empty((2, _BLOCK))
        self.to_state = arrays.to_state.tolist()
        self._breaks = b.tolist()
        self._first_break = np.concatenate(([0], np.cumsum(np.bincount(owner[inner], minlength=n)))).tolist()
        self._channels = order.tolist()
        self._first_channel = starts.tolist()

    def compose(self, jumps: float) -> None:
        """Walk ``span`` jumps per lookup, if the table is exact and small.

        The composite ``lookup`` has bins**span * N cells, the most that stay
        within _TABLE_CELLS and _COMPOSITE_CELLS_PER_JUMP * ``jumps`` (the
        call's expected jump count).  Its cell (c_1 + bins c_2 + ... +
        bins**(span-1) c_span) * N + s holds the state that s reaches through
        bins c_1, ..., c_span in turn.  A table with a split cell, or with one
        bin (no state has a choice), keeps span 1.
        """
        n = self.escape.size
        bins = self.leads.size // n
        if bins < 2 or (self.leads == n).any():
            return
        cells = min(_TABLE_CELLS, _COMPOSITE_CELLS_PER_JUMP * jumps)
        span = 1
        while bins ** (span + 1) * n <= cells:
            span += 1
        if span == 1:
            return
        step = chain = self.leads.reshape(bins, n)
        for _ in range(span - 1):
            chain = step[:, chain].reshape(-1, n)  # row c * len(chain) + r: bins r, then bin c
        self.span = span
        self.radix = bins ** np.arange(span)
        self.lookup = np.array(range(n), dtype=object)[chain.ravel()].tolist()

    def offsets(self, u: np.ndarray) -> np.ndarray:
        """bin * N for each uniform: add a state to index ``fire`` or ``step``."""
        return np.searchsorted(self.bounds, u, "right") * len(self.escape)

    def chained(self, offsets: np.ndarray) -> np.ndarray:
        """The ``lookup`` offset of each whole group of ``span`` consecutive offsets."""
        if self.span == 1:
            return offsets
        groups = offsets.size // self.span
        return offsets[:groups * self.span].reshape(groups, self.span) @ self.radix

    def fill(self, anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """A walk's states from every ``span``-th one: span - 1 gathers on ``leads``."""
        span = self.span
        if span == 1:
            return anchors
        states = np.empty(offsets.size + 1, dtype=np.intp)
        states[::span] = anchors
        for j in range(1, span):
            states[j::span] = self.leads[offsets[j - 1::span] + states[j - 1:-1:span]]
        return states

    def resolve(self, s: int, u: float) -> int:
        """The channel state s fires for uniform u, from its own breakpoints."""
        lo, hi = self._first_break[s], self._first_break[s + 1]
        return self._channels[self._first_channel[s] + bisect_right(self._breaks, u, lo, hi) - lo]


class _Walk:
    """One trajectory, consumed from its blocks of draws a chunk at a time.

    Pairs are taken in stream order: a block of _BLOCK exponentials, then a
    block of _BLOCK uniforms, and pair i is (exponential i, uniform i); the
    next block is drawn when this one is used up.  The uniforms are drawn as
    chunks reach them: a double is exactly one 64-bit draw, and a chunk
    never starts past the uniforms already drawn, so the next exponential
    block follows the whole uniform block as before; the uniforms past a
    trajectory's stop are never drawn.  A chunk walks the states in Python,
    one table lookup per ``span`` jumps (and a ``resolve`` after a split
    cell, only met at span 1), and fills the states in between with numpy
    gathers; waits, times and stopping are numpy passes that keep the direct
    method's scalar float operations: x / esc, then times added left to
    right.  Chunks are sized from the expected number of remaining jumps, so
    a walk past the stop is short and is discarded.
    """

    def __init__(self, table: _ChannelTable, gen: np.random.Generator, state: int, rate: float):
        self.table = table
        self.gen = gen
        self.state = state
        self.rate = rate
        self.cursor = self.drawn = _BLOCK
        self.absorbed = False

    def _path(self, lookups: np.ndarray, us: np.ndarray) -> tuple[list[int], list[tuple[int, int]]]:
        """Every ``span``-th state from the current one, one per entry of ``lookups``.

        Returns the states (one more than ``lookups``) and the (position,
        channel) pairs of the jumps whose cell had to be resolved.
        """
        tab = self.table
        lookup, split = tab.lookup, tab.split
        lookups = lookups.tolist()
        s = self.state
        path = [s]
        resolved = []
        rest = iter(lookups)
        todo = rest
        while True:
            try:
                path += (s := lookup[i + s] for i in todo)
            except IndexError:  # the lookup after a split cell
                pass
            if path[-1] != split:
                return path, resolved
            m = len(path) - 2
            e = tab.resolve(path[m], float(us[m]))
            resolved.append((m, e))
            path[-1] = s = tab.to_state[e]
            # the failed lookup took lookups[m + 1] from `rest`; retry it first
            todo = itertools.chain(lookups[m + 1:m + 2], rest)

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
        exp, uni = tab.exp, tab.uni
        t = 0.0
        made = 0
        while True:
            if self.cursor == _BLOCK:  # cursor <= drawn, so every uniform of the block is drawn
                self.gen.standard_exponential(out=exp)  # = exponential(size=_BLOCK), bit for bit
                self.cursor = self.drawn = 0
            c = self.cursor
            if budget < math.inf:
                want = budget - made
            else:
                rate = made / t if made and t > 0 else self.rate
                expected = min((limit - t) * rate, _BLOCK)
                want = int(expected + 3.0 * math.sqrt(expected)) + 16
            k = min(_BLOCK - c, want)
            if c + k > self.drawn:
                self.gen.random(out=uni[self.drawn:c + k])
                self.drawn = c + k
            us = uni[c:c + k]
            offsets = tab.offsets(us)
            path, resolved = self._path(tab.chained(offsets), us)
            states = tab.fill(np.fromiter(path, dtype=np.intp, count=len(path)), offsets)
            before = states[:k]
            esc = tab.escape[before]
            a = k
            if tab.absorbing and (dead := np.flatnonzero(esc <= 0)).size:
                a = int(dead[0])
            waits = np.empty(a + 1)  # t, then the waits: their running sums are the jump times
            waits[0] = t
            dt = waits[1:]
            np.divide(exp[c:c + a], esc[:a], out=dt)
            times = np.add.accumulate(waits)
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
                tally(fired, before[:jumps], dt[:jumps], times[1:jumps + 1], states[1:jumps + 1])
            made += jumps
            t = float(times[jumps])
            self.state = int(states[jumps])
            self.cursor = c + used
            if stop:
                return t


class _Tally:
    """One trajectory's jump counts, occupation and dump lines, a chunk at a time.

    ``counts`` and ``occupation`` are the trajectory's rows of the call's
    arrays, added to in place.
    """

    def __init__(self, counts: np.ndarray, occupation: np.ndarray, dump: IO[str] | None):
        self.counts = counts
        self.occupation = occupation
        self.dump = dump

    def __call__(self, fired, before, waits, times, after) -> None:
        self.counts += np.bincount(fired, minlength=self.counts.size)
        np.add.at(self.occupation, before, waits)  # in jump order, as the scalar sums
        if self.dump is not None:
            lines = zip(times.tolist(), fired.tolist(), after.tolist())
            self.dump.write("".join(f"{t!r},{e},{s}\n" for t, e, s in lines))


def _initial_sampler(net: ChannelNetwork, cfg: SimConfig):
    if all_integers((cfg.initial,)):
        idx = int(cfg.initial)
        if not (0 <= idx < net.n_states):
            raise ValidationError(f"initial state {idx} out of range")
        return idx, None
    if cfg.initial is None:
        try:
            p = net.stationary.p
        except NonErgodicError:  # any other failed solve is a numerical error, exit 2
            raise ValidationError(
                "network is not ergodic; pass an explicit initial state or distribution"
            ) from None
    else:
        try:
            p = checked_probability(cfg.initial, net.n_states)
        except ValidationError:
            raise ValidationError("initial must be a probability vector over the states") from None
    return None, np.cumsum(p).tolist()


def _jump_rate(net: ChannelNetwork, escape: np.ndarray) -> float:
    """The stationary jump rate sum_s p_s esc_s, or the largest escape rate when there is no stationary state."""
    try:
        return float(net.stationary.p @ escape)
    except NumericalError:
        return float(escape.max())


def _check_expected_jumps(cfg: SimConfig, rate: float) -> float:
    """The run's expected jump count; a ValidationError past _MAX_EXPECTED_JUMPS.

    Per trajectory the count is (burn_in + t_max) * rate, or max_jumps +
    burn_in * rate, with ``_jump_rate``'s rate.  The bound also counts
    _TRAJECTORY_JUMPS per trajectory, the cost of one that makes no jump.
    """
    if cfg.t_max is not None:
        per_trajectory = (cfg.burn_in + cfg.t_max) * rate
    else:
        per_trajectory = min(cfg.max_jumps, 1e300) + cfg.burn_in * rate
    trajectories = min(cfg.n_trajectories, 1e300)  # a float: the products saturate to inf, never OverflowError
    expected = trajectories * per_trajectory
    work = expected + trajectories * _TRAJECTORY_JUMPS
    if not work <= _MAX_EXPECTED_JUMPS:
        raise ValidationError(
            f"the run would make about {work:.3g} jumps, more than {_MAX_EXPECTED_JUMPS:.0e} "
            f"(each trajectory counts {_TRAJECTORY_JUMPS} for its setup); "
            "shorten the window or the jump budget, or use fewer trajectories"
        )
    return expected


def _record_totals(net: ChannelNetwork, counts: np.ndarray) -> list[dict[str, float]]:
    """Each trajectory's record totals from its row of ``counts``.

    A total is the exact sum of increment * count over the channels with a
    nonzero count.  The terms are formed for blocks of trajectories of at
    most _TOTALS_CELLS (trajectory, record, channel) cells, in trajectory
    order, so the first total past the largest double is the one a
    trajectory-by-trajectory sum would refuse first.
    """
    increments = net.arrays.increments
    whats = [f"total of record {rec!r}" for rec in net.records]
    rows = max(1, _TOTALS_CELLS // max(1, increments.size))
    totals = []
    for first in range(0, len(counts), rows):
        block = counts[first:first + rows]
        k, e = np.nonzero(block)  # trajectory-major, as the terms are consumed
        terms = [iter(row) for row in (increments[:, e] * block[k, e]).tolist()]
        for used in np.bincount(k, minlength=len(block)).tolist():
            totals.append({rec: finite_fsum(itertools.islice(row, used), what)
                           for rec, row, what in zip(net.records, terms, whats)})
    return totals


def simulate(net: ChannelNetwork, cfg: SimConfig, dump: IO[str] | None = None) -> list[TrajectoryStats]:
    """Run independent trajectories and collect per-trajectory statistics.

    A state without outgoing rate ends the trajectory early (flagged
    absorbed); in the fixed-window mode the remaining time still counts as
    occupation of that state.  ``dump`` receives one "time,channel,state"
    line per jump, prefixed by a "# trajectory k" line per trajectory.  A
    run expected to make more than 1e9 jumps, counting 500 per trajectory,
    is a ValidationError; nothing is written to ``dump`` before it starts.
    A walk's first chunk is sized from ``_jump_rate``; chunking changes no
    stream, statistic or dump line.

    The trajectories are tallied into one (trajectory, channel) count array
    and one (trajectory, state) occupation array; each returned
    ``jump_counts`` and ``occupation`` is a read-only row of them.  The
    record totals are computed from the counts after the last trajectory,
    so a total past the largest double is a NumericalError raised after
    ``dump`` got every trajectory's jumps.
    """
    table = _ChannelTable(net)
    rate = _jump_rate(net, table.escape)  # bounds the run's work and sizes each walk's first chunk
    table.compose(_check_expected_jumps(cfg, rate))
    live = net.arrays.rate > 0
    src, dst = net.arrays.from_state[live], net.arrays.to_state[live]
    if -1 in graph_walk(net.n_states, src, dst, [0]) + graph_walk(net.n_states, dst, src, [0]):
        warnings.warn("simulating a non-ergodic network", stacklevel=2)
    fixed_initial, init_cum = _initial_sampler(net, cfg)
    time_mode = cfg.t_max is not None
    horizon = cfg.t_max if time_mode else math.inf
    budget = math.inf if time_mode else cfg.max_jumps

    n = cfg.n_trajectories
    # counts are whole numbers far below 2**53, so adding them as doubles is exact
    counts = np.zeros((n, net.n_channels))
    occupation = np.zeros((n, net.n_states))
    elapsed, absorbed = [], []
    # a wait or jump time past the largest double is inf and passes every window;
    # an infinite record total is refused by finite_fsum
    with np.errstate(over="ignore"):
        for k in range(n):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, k))))
            if fixed_initial is not None:
                s = fixed_initial
            else:
                s = min(bisect_right(init_cum, gen.random()), net.n_states - 1)
            walk = _Walk(table, gen, s, rate)
            if cfg.burn_in > 0:
                walk.run(cfg.burn_in, math.inf, "left")  # same dynamics, nothing recorded
            if dump is not None:
                dump.write(f"# trajectory {k}\n")
            t = walk.run(horizon, budget, "right", _Tally(counts[k], occupation[k], dump))
            if time_mode:
                occupation[k, walk.state] += horizon - t
                t = horizon
            elapsed.append(t)
            absorbed.append(walk.absorbed)
        totals = _record_totals(net, counts)
    n_jumps = counts.sum(axis=1).astype(np.int64).tolist()
    counts.flags.writeable = False
    occupation.flags.writeable = False
    return [
        TrajectoryStats(totals=totals[k], jump_counts=counts[k], elapsed=elapsed[k], n_jumps=n_jumps[k],
                        absorbed=absorbed[k], occupation=occupation[k])
        for k in range(n)
    ]


def _finite(report: CumulantReport) -> CumulantReport:
    """The report, or a NumericalError where a mean, a noise entry or a standard error overflowed.

    A noise standard error is NaN, not an overflow, when there are too few batches.
    """
    values = [*report.means.values(), *report.mean_errors.values()]
    noise = np.zeros(0) if report.noise is None else report.noise
    noise_errors = np.zeros(0) if report.noise_errors is None else report.noise_errors
    if not (np.isfinite(values).all() and np.isfinite(noise).all() and not np.isinf(noise_errors).any()):
        raise NumericalError("Monte Carlo estimates exceed the largest double; rescale the record increments")
    return report


def empirical_cumulants(stats: Sequence[TrajectoryStats]) -> CumulantReport:
    """Means pooled over pooled time and, over equal windows, the zero-frequency noise.

    When every window equals the first to within 1e-12 of it (a ``t_max``
    run), the noise is the across-trajectory covariance of the totals over
    the window; standard errors come from the per-trajectory rates and from
    10 contiguous trajectory batches (2 under 20 trajectories).  Otherwise
    (``max_jumps``) ``noise`` is None with a ``note``, and a mean's standard
    error is the ratio estimator's, sqrt(sum_k (X_k - m T_k)^2 / (n (n - 1)))
    / mean(T).  A total, time or estimate past the largest double is a
    NumericalError.
    """
    n = len(stats)
    if n < 2:
        raise ValidationError("need at least 2 trajectories to estimate cumulants")
    records = tuple(stats[0].totals.keys())
    q = len(records)
    X = np.array([[st.totals[rec] for rec in records] for st in stats]).reshape(n, q)
    T = np.array([st.elapsed for st in stats], dtype=float)
    total_time = finite_fsum(T, "pooled simulated time")
    if not total_time > 0:
        raise ValidationError("no simulated time elapsed: every trajectory started absorbed")
    means = {rec: finite_fsum(X[:, i], f"pooled total of record {rec!r}") / total_time for i, rec in enumerate(records)}
    window = T[0]
    noise = noise_errors = note = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite
        if (np.abs(T - window) <= 1e-12 * window).all():
            noise = np.cov(X, rowvar=False, ddof=1).reshape(q, q) / window
            per_rate = X / window
            errors = [np.std(per_rate[:, i], ddof=1) / math.sqrt(n) for i in range(q)]
            edges = np.linspace(0, n, (10 if n >= 20 else 2) + 1, dtype=int)
            batch_S = [np.cov(chunk, rowvar=False, ddof=1).reshape(q, q) / window
                       for chunk in np.split(X, edges[1:-1]) if len(chunk) >= 2]
            noise_errors = (
                np.std(np.array(batch_S), axis=0, ddof=1) / math.sqrt(len(batch_S))
                if len(batch_S) >= 2
                else np.full((q, q), np.nan)
            )
        else:
            residuals = X - np.outer(T, list(means.values()))
            errors = np.sqrt((residuals**2).sum(axis=0) / (n * (n - 1))) / (total_time / n)
            note = "noise needs equal observation windows; jump-budget trajectories have unequal ones"
    return _finite(CumulantReport(
        records=records,
        means=means,
        noise=noise,
        method="monte_carlo",
        mean_errors={rec: float(v) for rec, v in zip(records, errors)},
        noise_errors=noise_errors,
        note=note,
    ))
