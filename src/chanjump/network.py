"""Channel-resolved jump network data model.

A network is a finite set of states plus a list of directed transition
channels.  Each channel belongs to an ordered state pair, carries a reservoir
label, an optional filter label, a nonnegative rate, and a map of record
increments (heat, charge, ...) deposited every time the channel fires.
Several channels may share the same ordered state pair; the state generator
only sees their summed rates, which is exactly the ambiguity this library
quantifies.

Canonical orderings are part of the external contract:

* state index = position in the declared state list,
* channel index = position in the declared channel list,
* transition index = first appearance of an ordered state pair in the
  channel list.

Model files are JSON documents with top-level keys ``states``, ``records``
and ``channels``; see ``load_network`` for the schema.  A ``dot`` convenience
key builds an energy-filtered dot network (see :mod:`chanjump.dot`).
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import ChanjumpError, NumericalError, ValidationError

__all__ = [
    "TransitionChannel",
    "ChannelNetwork",
    "ChannelArrays",
    "StateGenerator",
    "ProjectionPair",
    "RecordMap",
    "load_network",
    "serialize_network",
    "build_generator",
    "build_projection",
    "build_record_map",
    "channel_counts",
]


@dataclass(frozen=True)
class TransitionChannel:
    """One reservoir/filter-resolved directed transition.

    ``increments`` maps record names to the value added to that record when
    the channel fires; missing records read as 0.  ``reservoir`` and
    ``filter`` are strings.
    """

    from_state: int
    to_state: int
    reservoir: str
    rate: float
    filter: str = ""
    increments: Mapping[str, float] = field(default_factory=dict)

    def increment(self, record: str) -> float:
        return float(self.increments.get(record, 0.0))


@dataclass(frozen=True)
class ChannelNetwork:
    """Validated immutable network: states, channels, declared records.

    Construction reads the channels as columns (from and to indices, rates,
    increment maps), validates them once, on the columns, and sets
    ``arrays``, the ChannelArrays built from the same columns.  Every
    network is made here: ``load_network`` builds one channel object per
    model-file entry and passes them in.
    """

    states: tuple[str, ...]
    channels: tuple[TransitionChannel, ...]
    records: tuple[str, ...]

    def __post_init__(self):
        states = tuple(self.states)
        channels = tuple(self.channels)
        records = tuple(str(r) for r in self.records)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "arrays", _checked_arrays(states, records, *_object_columns(channels)))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ValidationError(f"unknown state name {name!r}") from None

    def record_rows(self, names: Sequence[str]) -> list[int]:
        """Rows of the named records in ``arrays.increments``, in the given order."""
        unknown = [name for name in names if name not in self.records]
        if unknown:
            raise ValidationError(f"unknown record name {unknown[0]!r}")
        return [self.records.index(name) for name in names]

    def transitions(self) -> tuple[tuple[int, int], ...]:
        """Distinct ordered state pairs in first-appearance order."""
        return self.arrays.transitions

    @cached_property
    def generator(self) -> StateGenerator:
        """The state generator, assembled on first use and cached."""
        return build_generator(self)

    @property
    def stationary(self):
        """Stationary state of ``generator`` at DEFAULT_TOL, cached.

        A failed solve is cached too: every access re-raises its error, a
        NonErgodicError if there is no unique stationary state or the
        NumericalError the solve raised otherwise.
        """
        return _outcome(self._stationary)

    @property
    def drazin(self) -> np.ndarray:
        """Drazin inverse of ``generator`` at ``stationary``, cached like ``stationary``.

        A failed solve, or a failed stationary state, re-raises its error on
        every access.
        """
        return _outcome(self._drazin)

    @cached_property
    def _stationary(self):
        from .linalg import stationary_state

        try:
            return stationary_state(self.generator), None
        except NumericalError as exc:
            return None, exc

    @cached_property
    def _drazin(self):
        from .linalg import drazin_inverse

        try:
            return drazin_inverse(self.generator, self.stationary), None
        except ChanjumpError as exc:
            return None, exc


def _outcome(cached: tuple):
    """The value of a cached (value, error) pair, or its error raised afresh."""
    value, error = cached
    if error is not None:
        raise error.with_traceback(None)
    return value


@dataclass(frozen=True, eq=False)
class ChannelArrays:
    """The channel list as read-only arrays, one entry (column) per channel.

    ``transition`` indexes ``transitions``, ``counts`` holds the number of
    channels per transition and ``increments`` is the q x E increment matrix
    in declared-record order.  P is the grouping of channels by transition:
    summing columns by group applies P, and subtracting each group's mean
    projects onto ker P.  ``grouped`` lists the channels transition by
    transition (channel order within one), ``spans`` is each transition's
    slice of it and ``pairs`` the E0 x 2 array of ``transitions``.
    ``conjugate`` numbers the channels' conjugate groups, keys (reservoir,
    filter, lo, hi) with lo < hi, by first appearance; ``conjugate_keys`` lists them.
    """

    from_state: np.ndarray
    to_state: np.ndarray
    transition: np.ndarray
    rate: np.ndarray
    increments: np.ndarray
    counts: np.ndarray
    grouped: np.ndarray
    pairs: np.ndarray
    conjugate: np.ndarray
    transitions: tuple[tuple[int, int], ...]
    spans: tuple[tuple[int, int], ...]
    conjugate_keys: tuple[tuple[str, str, int, int], ...]

    @classmethod
    def from_columns(cls, records, frm, to, reservoirs, filters, rates, incs, values: np.ndarray) -> ChannelArrays:
        """Arrays of validated channel columns.

        ``incs`` holds every channel's increment map and ``values`` all their
        values, map after map, as floats; the q x E increment matrix is filled
        by one scatter.
        """
        transition, _ = _numbered(zip(frm, to))
        increments = np.zeros((len(records), len(frm)))
        rows = map({rec: i for i, rec in enumerate(records)}.__getitem__, chain.from_iterable(incs))
        columns = np.repeat(np.arange(len(frm)), list(map(len, incs)))
        increments[np.fromiter(rows, np.intp, len(values)), columns] = values
        counts = np.bincount(transition)
        frm, to = np.array(frm, dtype=np.intp), np.array(to, dtype=np.intp)
        lo, hi = np.minimum(frm, to).tolist(), np.maximum(frm, to).tolist()
        conjugate, keys = _numbered(zip(reservoirs, filters, lo, hi))
        grouped = np.argsort(transition, kind="stable")
        ends = np.cumsum(counts)
        first = grouped[ends - counts]  # the first channel of every transition
        pairs = np.empty((len(first), 2), dtype=np.intp)
        pairs[:, 0], pairs[:, 1] = frm[first], to[first]
        arrays = (
            frm,
            to,
            np.array(transition, dtype=np.intp),
            np.array(rates, dtype=float),
            increments,
            counts,
            grouped,
            pairs,
            np.array(conjugate, dtype=np.intp),
        )
        for arr in arrays:
            arr.flags.writeable = False
        transitions = tuple(zip(*pairs.T.tolist()))  # Python ints, whatever the index type
        ends = ends.tolist()
        return cls(*arrays, transitions=transitions, spans=tuple(zip([0] + ends[:-1], ends)), conjugate_keys=keys)

    @staticmethod
    def sum_by(X: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
        """Sum the columns of X (r x E) by index value, in channel order: r x size."""
        r = X.shape[0]
        flat = (np.arange(r)[:, None] * size + index).ravel()
        return np.bincount(flat, weights=X.ravel(), minlength=r * size).reshape(r, size)

    def centred(self, X: np.ndarray) -> np.ndarray:
        """X (r x E) minus its per-transition column means: X projected onto ker P."""
        means = self.sum_by(X, self.transition, len(self.counts)) / self.counts
        return X - means[:, self.transition]

    @cached_property
    def conjugate_slots(self) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """The channels sorted by conjugate group, forward before backward (from_state > to_state) within one,
        and each group's (start, mid, end) in that order; built once per network, on first use."""
        slot = 2 * self.conjugate + (self.from_state > self.to_state)
        ends = np.cumsum(np.bincount(slot, minlength=2 * len(self.conjugate_keys))).tolist()
        return np.argsort(slot, kind="stable"), list(zip([0] + ends[1:-1:2], ends[::2], ends[1::2]))

    @cached_property
    def _slices(self) -> list[slice]:
        return [slice(a, b) for a, b in self.spans]

    @cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """What ``_exact_totals`` reads: each transition's first and last grouped
        position, the first position of every grouped position's transition,
        and the exponent window (binades allowed below the first term's, and
        in all)."""
        first, ends = np.array(self.spans, dtype=np.intp).T
        width = 9 - (int(self.counts.max()) - 1).bit_length()
        return first, ends - 1, np.repeat(first, self.counts), width // 2, width

    def transition_totals(self, values: np.ndarray, n_states: int) -> np.ndarray:
        """Per-transition math.fsum totals of values at (to, from).

        ``values`` is one row of E values (an n x n result) or a K x E block
        (K x n x n).  fsum rounds once, so a total does not depend on channel
        order.  Values are rates: a total beyond the largest double reads inf.
        A block of at least _REDUCE_CELLS totals is summed by ``_exact_totals``,
        which is fsum bit for bit; a smaller one by the fsum loop.
        """
        block = np.atleast_2d(values)[:, self.grouped]
        if block.shape[0] * len(self.counts) >= _REDUCE_CELLS:
            totals = self._exact_totals(block)
        else:
            totals = self._fsum_totals(block)
        M = np.zeros((len(block), n_states, n_states))
        M[:, self.pairs[:, 1], self.pairs[:, 0]] = totals
        return M if values.ndim == 2 else M[0]

    def _fsum_totals(self, block: np.ndarray) -> list[list[float]]:
        """math.fsum of every transition's terms in each row of the K x E block (grouped order)."""
        rows = block.tolist()
        slices = self._slices
        try:
            return [list(map(math.fsum, map(row.__getitem__, slices))) for row in rows]
        except OverflowError:  # finite terms whose exact sum exceeds the largest double
            return [[_fsum(row[s]) for s in slices] for row in rows]

    def _exact_totals(self, block: np.ndarray) -> np.ndarray:
        """``_fsum_totals`` of the K x E block as one integer reduction, bit for bit.

        A term is m 2^e with m its frexp mantissa, so m 2^53 is an integer.
        Relative to its transition's first term, of exponent e1, a term with
        s = e - e1 + below in [0, width] becomes the integer m 2^(53 + s),
        less than 2^(53 + width) in size, and a transition's integers add up
        exactly in int64, since width + bit_length(largest group - 1) = 9.
        The exact sum, converted to a double once (round-half-even) and
        scaled by 2^(e1 - 53 - below), is fsum's correctly rounded sum
        whenever it is a normal double and the terms leave fsum no
        intermediate overflow, which e1 <= 1014 + below ensures: their sizes
        then add up to less than 2^1023.  Every other total (a nonzero term
        outside the window, an inf or NaN term, a zero or subnormal sum,
        terms near the largest double) is summed by math.fsum; a transition
        of more than 512 channels has no window, so all its totals are.
        """
        first, last, start_of, below, width = self._reduction
        finite = np.isfinite(block)
        all_finite = finite.all()
        m, e = np.frexp(block if all_finite else np.where(finite, block, 0.0))
        shift = e - e[:, start_of]
        shift += below
        outside = (shift < 0) | (shift > width)
        if not all_finite:
            outside |= ~finite
        # a term below the window makes a fraction, one above would overflow: both totals go to fsum
        np.minimum(shift, width, out=shift)
        shift += 53
        # int64 integers whose sum fits in int64 add up exactly in wrapping (uint64) arithmetic
        running = np.cumsum(np.ldexp(m, shift).astype(np.int64).view(np.uint64), axis=1)
        sums = running[:, last]
        sums[:, 1:] -= running[:, last[:-1]]
        e_first = e[:, first]
        fallback = e_first > 1014 + below
        np.minimum(e_first, 1014 + below, out=e_first)  # so that no scaled sum passes 2^1023
        totals = np.ldexp(sums.view(np.int64).astype(float), e_first - (53 + below))
        fallback |= np.abs(totals) < _TINY
        if outside.any():
            rows, columns = np.nonzero(outside)
            keep = block[rows, columns] != 0  # a zero term adds nothing wherever it sits
            fallback[rows[keep], self.transition[self.grouped[columns[keep]]]] = True
        if fallback.any():
            slices = self._slices
            for k, t in zip(*np.nonzero(fallback)):
                totals[k, t] = _fsum(block[k, slices[t]].tolist())
        return totals

    def weighted(self, rows: list[int], weights: Mapping[str, float]) -> list[float]:
        """Per channel, the correctly rounded sum of weights . increments[rows]; a finite weight per record name."""
        values = [checked_number(w, f"weight of record {name!r}") for name, w in weights.items()]
        for name, w in zip(weights, values):
            if not math.isfinite(w):
                raise ValidationError(f"weight of record {name!r} must be finite, got {w}")
        columns = self.increments[rows].T.tolist()
        try:
            return [math.fsum(map(operator.mul, values, col)) for col in columns]
        except (OverflowError, ValueError):  # finite terms past the largest double, or inf - inf
            raise NumericalError("weighted record increments exceed the largest double") from None


_TINY = float(np.finfo(float).tiny)  # the smallest normal double
# Blocks of fewer totals (K rows x E0 transitions) than this are summed by the fsum
# loop, larger ones by the integer reduction.  Measured on seeded ring-plus-chord
# networks (N = 6 to 80, 1 to 4 channels per transition, near-equal terms as in the
# finite-difference stack), best of 7 x 200 calls of each path on one block: the two
# cost the same, 40 to 70 us, between about 120 and 180 totals; below 100 the loop is
# faster (by up to 1.7x), above 250 the reduction (by 1.1 to 2x at 250 to 270 totals,
# 3 to 7x at 1264).
_REDUCE_CELLS = 160


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose exact sum exceeds the largest double
        return math.inf


def finite_fsum(terms, what: str) -> float:
    """Exact sum of the terms; a NumericalError naming ``what`` where it is not a finite double."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # finite terms past the largest double, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise NumericalError(f"{what} exceeds the largest double")
    return total


def checked_number(x, what: str) -> float:
    """float(x) for a number; a ValidationError naming ``what`` otherwise (a str, bytes or bool is not a number)."""
    try:
        return _number(x)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a float") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number") from None


def all_integers(values) -> bool:
    """Whether every value is a Python or a numpy integer and not a bool, with one type test per distinct type."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values)))


def checked_vector(x, size: int, what: str, unit: str = "") -> np.ndarray:
    """x as a float array of length size; a ValidationError naming ``what`` (and both lengths) otherwise."""
    try:
        screen = x.flat[:1] if isinstance(x, np.ndarray) and x.dtype != object else x  # an array by its dtype
        v = np.asarray(x, dtype=float) if _all_numbers(screen) else None
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, or an int past the largest double
        v = None
    if v is None or v.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of numbers")
    if v.size != size:
        raise ValidationError(f"{what} has length {v.size}, expected {size}{unit}")
    return v


def checked_probability(p, size: int) -> np.ndarray:
    """p as a float array of length size; a ValidationError unless it is a probability vector.

    p may be a StationaryState.  Entries may fall below 0 by 1e-12 and the sum may miss 1 by 1e-9.
    """
    pv = checked_vector(p.p if isinstance(p, StationaryState) else p, size, "probability vector")
    if not (pv.min() >= -1e-12 and abs(pv.sum() - 1.0) <= 1e-9):  # NaN and inf fail
        raise ValidationError("p must be a probability vector")
    return pv


def graph_walk(n: int, src: np.ndarray, dst: np.ndarray, roots=None) -> list[int]:
    """Label each of n states with the first root whose walk along the edges src -> dst reaches it; -1 if none.

    Roots default to every state, in order; with every edge given both ways, the labels are the components.
    """
    order = np.argsort(src, kind="stable")
    heads = dst[order].tolist()
    first = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    label = [-1] * n
    for root in range(n) if roots is None else roots:
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            s = stack.pop()
            for t in heads[first[s]:first[s + 1]]:
                if label[t] < 0:
                    label[t] = root
                    stack.append(t)
    return label


def _object_columns(channels: Sequence[TransitionChannel]) -> tuple[list, ...]:
    """Channel objects as columns: from and to indices, reservoirs, filters, rates, increment maps."""
    return tuple(
        list(map(operator.attrgetter(name), channels))
        for name in ("from_state", "to_state", "reservoir", "filter", "rate", "increments")
    )


def _numbered(keys) -> tuple[list[int], tuple]:
    """Every key's number in first-appearance order, and the distinct keys in that order."""
    index = {}
    return [index.setdefault(key, len(index)) for key in keys], tuple(index)


_NOT_NUMBERS = (str, bytes, bool, np.bool_)  # float() reads them, but a rate or an increment must be a number


def _number(value) -> float:
    """float(value); a TypeError for the _NOT_NUMBERS types."""
    if isinstance(value, _NOT_NUMBERS):
        raise TypeError("not a number")
    return float(value)


def _all_numbers(values) -> bool:
    """Whether no value is of a _NOT_NUMBERS type, with one type test per distinct type."""
    return not any(map(issubclass, set(map(type, values)), repeat(_NOT_NUMBERS)))


def _flat_values(incs: Sequence[Mapping]) -> np.ndarray:
    """The values of every increment map, map after map, as one float array; a TypeError for a _NOT_NUMBERS one."""
    values = list(chain.from_iterable(map(operator.methodcaller("values"), incs)))
    if not _all_numbers(values):
        raise TypeError("not a number")
    return np.fromiter(values, float, len(values))


def _checked_arrays(states: tuple, records: tuple, frm, to, reservoirs, filters, rates, incs) -> ChannelArrays:
    """Validate a network given by its channel columns; its ChannelArrays.

    The channel checks run once over the columns, with C-level builtins and
    one float array of the increment values; an undeclared record fails the
    scatter into the increment matrix.  Only when a check fails does the
    per-channel loop run, to name the first failing channel.
    """
    if len(states) < 2:
        raise ValidationError("a network needs at least 2 states")
    if len(set(states)) != len(states):
        raise ValidationError("duplicate state name")
    for s in states:
        if not isinstance(s, str) or not s:
            raise ValidationError(f"state names must be nonempty strings, got {s!r}")
    if len(frm) < 1:
        raise ValidationError("a network needs at least 1 channel")
    if len(set(records)) != len(records):
        raise ValidationError("duplicate record name")
    if not all(records):
        raise ValidationError("record names must be nonempty")
    try:
        values = _flat_values(incs)
        if (
            all_integers(chain(frm, to))
            and min(min(frm), min(to)) >= 0
            and max(max(frm), max(to)) < len(states)
            and not any(map(operator.eq, frm, to))
            and all(map(isinstance, chain(reservoirs, filters), repeat(str)))
            and _all_numbers(rates)
            and all(map(math.isfinite, rates))
            and min(rates) >= 0
            and np.isfinite(values).all()
        ):
            return ChannelArrays.from_columns(records, frm, to, reservoirs, filters, rates, incs, values)
    except (LookupError, TypeError, ValueError, OverflowError, AttributeError):  # KeyError: an undeclared record
        pass
    _first_bad_channel(len(states), records, frm, to, reservoirs, filters, rates, incs)


def _first_bad_channel(n: int, records: tuple[str, ...], frm, to, reservoirs, filters, rates, incs) -> None:
    """Run the checks channel by channel and raise for the first failing one."""
    declared = set(records)
    for e, increments in enumerate(incs):
        pair = (frm[e], to[e])
        if not (all_integers(pair) and all(0 <= i < n for i in pair)):
            raise ValidationError(f"channel {e}: state index must be an integer in [0, {n})")
        if frm[e] == to[e]:
            raise ValidationError(f"channel {e}: self-transition not allowed")
        for what, label in (("reservoir", reservoirs[e]), ("filter", filters[e])):
            if not isinstance(label, str):
                raise ValidationError(f"channel {e}: {what} must be a string, got {label!r}")
        rate = checked_number(rates[e], f"channel {e}: rate")
        if not math.isfinite(rate) or rate < 0:
            raise ValidationError(f"channel {e}: rate must be finite and >= 0, got {rates[e]!r}")
        if not isinstance(increments, Mapping):
            raise ValidationError(f"channel {e}: 'increments' must be an object")
        for key, val in increments.items():
            if key not in declared:
                raise ValidationError(f"channel {e}: undeclared record {key!r}")
            try:
                val = _number(val)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"channel {e}: increments must be numbers") from None
            if not math.isfinite(val):
                raise ValidationError(f"channel {e}: increment {key!r} is not finite")


# ---------------------------------------------------------------------------
# model file I/O

def load_network(document: str | bytes | dict) -> ChannelNetwork:
    """Parse and validate a model file.

    Schema: ``{"states": [str], "records": [str], "channels": [{"from": str,
    "to": str, "reservoir": str, "filter": str?, "rate": num,
    "increments": {record: num}?}]}``.  Alternatively a single ``dot`` key
    with an energy-filtered dot description (levels/reservoirs/couplings)
    which is expanded into channels before validation.

    Each channel entry is checked once, in one pass that names the first
    malformed entry, and becomes its ``TransitionChannel`` directly.  The
    ``ChannelNetwork`` constructor validates the channels once, on their
    column view, with the same messages as a per-channel pass.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed model document: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")

    if "dot" in doc:
        if any(k in doc for k in ("states", "channels", "records")):
            raise ValidationError("'dot' key is exclusive with explicit states/channels/records")
        from .dot import dot_spec_from_document, build_dot

        return build_dot(dot_spec_from_document(doc["dot"]))

    for key in ("states", "records", "channels"):
        if key not in doc:
            raise ValidationError(f"model document missing key {key!r}")
    states = doc["states"]
    if not isinstance(states, list):
        raise ValidationError("'states' must be an array")
    for name in states:
        if not isinstance(name, str):
            raise ValidationError(f"state names must be strings, got {name!r}")
    records = doc["records"]
    if not isinstance(records, list):
        raise ValidationError("'records' must be an array")
    entries = doc["channels"]
    if not isinstance(entries, list):
        raise ValidationError("'channels' must be an array")
    if len(set(states)) != len(states):
        raise ValidationError("duplicate state name")
    if len(states) < 2:
        raise ValidationError("a network needs at least 2 states")
    index = {name: i for i, name in enumerate(states)}

    return ChannelNetwork(states=states, channels=_entry_channels(entries, index), records=records)


def _entry_channels(entries: list, index: dict[str, int]) -> list[TransitionChannel]:
    """One channel per entry, raising for the first malformed entry.

    Rates are floats and increment maps fresh dicts of floats.
    """
    channels = []
    for e, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"channel {e}: must be an object")
        try:
            frm, to = entry["from"], entry["to"]
            rate = entry["rate"]
        except KeyError as exc:
            raise ValidationError(f"channel {e}: missing key {exc.args[0]!r}") from None
        for name in (frm, to):
            if not isinstance(name, str) or name not in index:
                raise ValidationError(f"channel {e}: unknown state {name!r}")
        if type(rate) is not float:  # an exact float is what checked_number returns
            rate = checked_number(rate, f"channel {e}: rate")
        incs = entry.get("increments", {})
        if not isinstance(incs, dict):
            raise ValidationError(f"channel {e}: 'increments' must be an object")
        if set(map(type, incs.values())) <= {float} and set(map(type, incs)) <= {str}:
            incs = dict(incs)  # what the conversion below gives, without a call per value
        else:
            try:
                incs = {str(k): _number(v) for k, v in incs.items()}
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"channel {e}: increments must be numbers") from None
        channels.append(TransitionChannel(
            index[frm], index[to], entry.get("reservoir", ""), rate, entry.get("filter", ""), incs
        ))
    return channels


def serialize_network(net: ChannelNetwork) -> str:
    """Emit the model-file JSON form, deterministically.

    Keys are sorted, arrays follow the canonical orderings, and floats use
    the shortest decimal text that round-trips to the exact same bits.
    """
    doc = {
        "states": list(net.states),
        "records": list(net.records),
        "channels": [
            {
                "from": net.states[ch.from_state],
                "to": net.states[ch.to_state],
                "reservoir": ch.reservoir,
                "filter": ch.filter,
                "rate": ch.rate,
                "increments": {k: ch.increments[k] for k in sorted(ch.increments)},
            }
            for ch in net.channels
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# derived linear structure

@dataclass(frozen=True)
class StationaryState:
    """Normalized null vector of an ergodic generator."""

    p: np.ndarray
    ergodic: bool


@dataclass(frozen=True)
class StateGenerator:
    """Generator matrix of the occupation master equation.

    Entry (n, m) for n != m is the total rate from state m to state n;
    diagonal entries make every column sum to zero.
    """

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjectionPair:
    """Channel-to-transition projection P and transition incidence B.

    P is E0 x E with a single 1 per column, summing channel currents into
    ordered-transition totals.  B is N x E0 with +1 at the destination state
    and -1 at the source, so B P j gives state velocities.
    """

    P: np.ndarray
    B: np.ndarray
    transitions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RecordMap:
    """Rows of per-channel record increments, one row per selected record."""

    D: np.ndarray
    records: tuple[str, ...]


def build_generator(net: ChannelNetwork) -> StateGenerator:
    """Assemble the state generator from channel rates.

    Off-diagonal (n, m) is the exact total rate of m -> n and each diagonal
    entry minus the exact sum of its column, so the result is bitwise
    invariant under any permutation of the channel list and under rate
    redistributions that preserve the exact per-transition totals.  An
    escape rate beyond the largest double is a ValidationError.
    """
    n = net.n_states
    L = net.arrays.transition_totals(net.arrays.rate, n)
    escape = [_fsum(col) for col in L.T.tolist()]
    if math.inf in escape:
        raise ValidationError(f"state {net.states[escape.index(math.inf)]!r}: total escape rate overflows")
    L.flat[:: n + 1] = [-x for x in escape]
    L.flags.writeable = False
    return StateGenerator(matrix=L)


def shift_rate(net: ChannelNetwork, gain: int, lose: int, eta: float) -> ChannelNetwork:
    """Move rate eta from channel ``lose`` to channel ``gain`` of the same transition; the new network.

    ``gain`` gets rate + eta or one ulp off it, ``lose`` the transition total minus the other rates (rounded once) or 0:
    whichever keeps the transition's ``fsum`` total, and so ``build_generator``, bit for bit.  eta == 0 returns ``net``.
    The total is read from ``net.generator``, so a transition total past the largest double is its ValidationError.
    """
    a = net.arrays
    for e in (gain, lose):
        if not (all_integers((e,)) and 0 <= e < net.n_channels):
            raise ValidationError(f"channel index must be an integer in [0, {net.n_channels}), got {e!r}")
    if gain == lose or a.transition[gain] != a.transition[lose]:
        raise ValidationError(f"gain {gain} and lose {lose} must be two channels of one transition")
    eta = checked_number(eta, "eta")
    rate_g, rate_l = a.rate[[gain, lose]].tolist()
    if not -rate_g <= eta <= rate_l:  # NaN fails too
        raise ValidationError(f"eta {eta:g} out of range; must keep rates in [{-rate_g:g}, {rate_l:g}] nonnegative")
    if eta == 0.0:
        return net
    t = a.transition[gain]
    members = a.grouped[slice(*a.spans[t])].tolist()
    others = [r for e, r in zip(members, a.rate[members].tolist()) if e not in (gain, lose)]
    frm, to = a.pairs[t].tolist()
    total, seed = float(net.generator.matrix[to, frm]), rate_g + eta  # the transition's fsum
    for g in (seed, math.nextafter(seed, math.inf), math.nextafter(seed, -math.inf)):
        with contextlib.suppress(OverflowError):  # near the largest double: a sum that overflows is not the total
            center = math.fsum([total, -g, *map(operator.neg, others)])
            for l in (center, 0.0):
                if min(g, l) >= 0 and math.fsum([g, l, *others]) == total:
                    channels = list(net.channels)
                    channels[gain], channels[lose] = replace(channels[gain], rate=g), replace(channels[lose], rate=l)
                    return ChannelNetwork(net.states, tuple(channels), net.records)
    raise NumericalError("could not rebalance rates while preserving the generator")


def build_projection(net: ChannelNetwork) -> ProjectionPair:
    arrays = net.arrays
    transitions = arrays.transitions
    e0, e = len(transitions), net.n_channels
    P = np.zeros((e0, e))
    P[arrays.transition, np.arange(e)] = 1.0
    B = np.zeros((net.n_states, e0))
    B[arrays.pairs[:, 1], np.arange(e0)] = 1.0
    B[arrays.pairs[:, 0], np.arange(e0)] = -1.0
    P.flags.writeable = False
    B.flags.writeable = False
    return ProjectionPair(P=P, B=B, transitions=transitions)


def build_record_map(net: ChannelNetwork, selected: Sequence[str]) -> RecordMap:
    """Increment matrix for the selected records, one row each.

    Rows follow the given selection order, columns the canonical channel
    index; increments missing from a channel read as 0.
    """
    D = net.arrays.increments[net.record_rows(selected)]
    D.flags.writeable = False
    return RecordMap(D=D, records=tuple(selected))


def channel_counts(net: ChannelNetwork) -> tuple[int, int]:
    """(E, E0): number of channels and of distinct ordered transitions."""
    return net.n_channels, len(net.arrays.counts)
