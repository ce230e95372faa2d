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

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

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
    the channel fires; missing records read as 0.
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
    network is made here: ``load_network`` builds the channel objects from
    the model file's columns and passes them in.
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
        """Stationary state of ``generator`` at DEFAULT_TOL, cached; NonErgodicError on every access if none.

        A failed solve is cached too: every access re-raises its error.
        """
        state, error = self._stationary
        if error is not None:
            raise error.with_traceback(None)
        return state

    @cached_property
    def _stationary(self):
        from .linalg import stationary_state

        try:
            return stationary_state(self.generator), None
        except NumericalError as exc:
            return None, exc


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
    """

    from_state: np.ndarray
    to_state: np.ndarray
    transition: np.ndarray
    rate: np.ndarray
    increments: np.ndarray
    counts: np.ndarray
    grouped: np.ndarray
    pairs: np.ndarray
    transitions: tuple[tuple[int, int], ...]
    spans: tuple[tuple[int, int], ...]

    @classmethod
    def from_columns(cls, records, frm, to, rates, incs, values: np.ndarray) -> ChannelArrays:
        """Arrays of validated channel columns.

        ``incs`` holds every channel's increment map and ``values`` all their
        values, map after map, as floats; the q x E increment matrix is filled
        by one scatter.
        """
        pairs = list(zip(frm, to))
        t_index = dict(zip(dict.fromkeys(pairs), range(len(pairs))))
        transition = list(map(t_index.__getitem__, pairs))
        increments = np.zeros((len(records), len(pairs)))
        rows = map({rec: i for i, rec in enumerate(records)}.__getitem__, chain.from_iterable(incs))
        columns = np.repeat(np.arange(len(pairs)), list(map(len, incs)))
        increments[np.fromiter(rows, np.intp, len(values)), columns] = values
        counts = np.bincount(transition, minlength=len(t_index))
        arrays = (
            np.array(frm, dtype=np.intp),
            np.array(to, dtype=np.intp),
            np.array(transition, dtype=np.intp),
            np.array(rates, dtype=float),
            increments,
            counts,
            np.argsort(transition, kind="stable"),
            np.array(list(t_index), dtype=np.intp),
        )
        for arr in arrays:
            arr.flags.writeable = False
        ends = np.cumsum(counts).tolist()
        return cls(*arrays, transitions=tuple(t_index), spans=tuple(zip([0] + ends[:-1], ends)))

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
    def _slices(self) -> list[slice]:
        return [slice(a, b) for a, b in self.spans]

    def transition_totals(self, values: np.ndarray, n_states: int) -> np.ndarray:
        """Per-transition math.fsum totals of values at (to, from).

        ``values`` is one row of E values (an n x n result) or a K x E block
        (K x n x n).  fsum rounds once, so a total does not depend on channel
        order.  Values are rates: a total beyond the largest double reads inf.
        """
        rows = np.atleast_2d(values)[:, self.grouped].tolist()
        slices = self._slices
        try:
            totals = [list(map(math.fsum, map(row.__getitem__, slices))) for row in rows]
        except OverflowError:  # finite terms whose exact sum exceeds the largest double
            totals = [[_fsum(row[s]) for s in slices] for row in rows]
        M = np.zeros((len(rows), n_states, n_states))
        M[:, self.pairs[:, 1], self.pairs[:, 0]] = totals
        return M if values.ndim == 2 else M[0]

    def weighted(self, rows: list[int], weights: list[float]) -> list[float]:
        """Per channel, the correctly rounded sum of weights . increments[rows]."""
        columns = self.increments[rows].T.tolist()
        try:
            return [math.fsum(map(operator.mul, weights, col)) for col in columns]
        except (OverflowError, ValueError):  # finite terms past the largest double, or inf - inf
            raise NumericalError("weighted record increments exceed the largest double") from None


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


def _object_columns(channels: Sequence[TransitionChannel]) -> tuple[list, list, list, list]:
    """Channel objects as columns: from and to indices, rates, increment maps."""
    return tuple(
        list(map(operator.attrgetter(name), channels))
        for name in ("from_state", "to_state", "rate", "increments")
    )


def _flat_values(incs: Sequence[Mapping]) -> np.ndarray:
    """The values of every increment map, map after map, as one float array."""
    return np.fromiter(chain.from_iterable(map(operator.methodcaller("values"), incs)), float)


def _checked_arrays(states: tuple, records: tuple[str, ...], frm, to, rates, incs) -> ChannelArrays:
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
    in_range = range(len(states)).__contains__  # False for NaN, which min/max can miss
    try:
        values = _flat_values(incs)
        if (
            all(map(in_range, frm))
            and all(map(in_range, to))
            and not any(map(operator.eq, frm, to))
            and all(map(math.isfinite, rates))
            and min(rates) >= 0
            and np.isfinite(values).all()
        ):
            return ChannelArrays.from_columns(records, frm, to, rates, incs, values)  # KeyError: undeclared record
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    _first_bad_channel(len(states), records, frm, to, rates, incs)
    # no channel fails a check: only a float index such as 1.5 gets here, and is truncated
    return ChannelArrays.from_columns(records, frm, to, rates, incs, _flat_values(incs))


def _first_bad_channel(n: int, records: tuple[str, ...], frm, to, rates, incs) -> None:
    """Run the checks channel by channel and raise for the first failing one."""
    declared = set(records)
    for e, increments in enumerate(incs):
        if not (0 <= frm[e] < n) or not (0 <= to[e] < n):
            raise ValidationError(f"channel {e}: state index out of range")
        if frm[e] == to[e]:
            raise ValidationError(f"channel {e}: self-transition not allowed")
        if not math.isfinite(rates[e]) or rates[e] < 0:
            raise ValidationError(f"channel {e}: rate must be finite and >= 0, got {rates[e]!r}")
        for key, val in increments.items():
            if key not in declared:
                raise ValidationError(f"channel {e}: undeclared record {key!r}")
            if not math.isfinite(float(val)):
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

    The channel entries are read in one pass into columns, which checks
    their types and names the first malformed entry.  The
    ``TransitionChannel`` objects are built from the columns and the
    ``ChannelNetwork`` constructor validates them once, on their column
    view, with the same messages as a per-channel pass.
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

    frm, to, rates, reservoirs, filters, incs = _entry_columns(entries, index)
    channels = tuple(map(TransitionChannel, frm, to, reservoirs, rates, filters, incs))
    return ChannelNetwork(states=states, channels=channels, records=records)


def _entry_columns(entries: list, index: dict[str, int]) -> tuple:
    """Columns of the channel entries, raising for the first malformed entry.

    From and to indices, float rates, reservoir and filter labels, and the
    increment maps as fresh dicts of floats.
    """
    columns = tuple([] for _ in range(6))
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
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ValidationError(f"channel {e}: rate must be a number")
        try:
            rate = float(rate)
        except OverflowError:
            raise ValidationError(f"channel {e}: rate is too large for a float") from None
        incs = entry.get("increments", {})
        if not isinstance(incs, dict):
            raise ValidationError(f"channel {e}: 'increments' must be an object")
        try:
            incs = {str(k): float(v) for k, v in incs.items()}
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"channel {e}: increments must be numbers") from None
        row = (index[frm], index[to], rate, str(entry.get("reservoir", "")), str(entry.get("filter", "")), incs)
        for column, value in zip(columns, row):
            column.append(value)
    return columns


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
