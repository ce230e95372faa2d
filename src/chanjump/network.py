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
from dataclasses import dataclass, field
from functools import cached_property
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
    """Validated immutable network: states, channels, declared records."""

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
        _validate(self)

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
    def arrays(self) -> ChannelArrays:
        """Array view of the channels, built on first use and cached."""
        return ChannelArrays.of(self)

    @cached_property
    def generator(self) -> StateGenerator:
        """The state generator, assembled on first use and cached."""
        return build_generator(self)

    @cached_property
    def stationary(self):
        """Stationary state of ``generator`` at DEFAULT_TOL, cached; NonErgodicError on every access if none."""
        from .linalg import stationary_state

        return stationary_state(self.generator)


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
    def of(cls, net: ChannelNetwork) -> ChannelArrays:
        chs = net.channels
        t_index: dict[tuple[int, int], int] = {}
        transition = [t_index.setdefault((ch.from_state, ch.to_state), len(t_index)) for ch in chs]
        r_index = {rec: i for i, rec in enumerate(net.records)}
        increments = np.zeros((len(net.records), len(chs)))
        for e, ch in enumerate(chs):
            for rec, val in ch.increments.items():
                increments[r_index[rec], e] = float(val)
        counts = np.bincount(transition, minlength=len(t_index))
        arrays = (
            np.array([ch.from_state for ch in chs], dtype=np.intp),
            np.array([ch.to_state for ch in chs], dtype=np.intp),
            np.array(transition, dtype=np.intp),
            np.array([ch.rate for ch in chs], dtype=float),
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

    def transition_totals(self, values: np.ndarray, n_states: int) -> np.ndarray:
        """n x n matrix of per-transition math.fsum totals of values at (to, from).

        fsum rounds once, so a total does not depend on channel order.  Values
        are rates: a total beyond the largest double reads inf.
        """
        ordered = values[self.grouped].tolist()
        M = np.zeros((n_states, n_states))
        M[self.pairs[:, 1], self.pairs[:, 0]] = [_fsum(ordered[a:b]) for a, b in self.spans]
        return M

    def weighted(self, rows: list[int], weights: list[float]) -> list[float]:
        """Per channel, the correctly rounded sum of weights . increments[rows]."""
        columns = self.increments[rows].T.tolist()
        try:
            return [math.fsum(w * x for w, x in zip(weights, col)) for col in columns]
        except (OverflowError, ValueError):  # finite terms past the largest double, or inf - inf
            raise NumericalError("weighted record increments exceed the largest double") from None


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose exact sum exceeds the largest double
        return math.inf


def _validate(net: ChannelNetwork) -> None:
    if len(net.states) < 2:
        raise ValidationError("a network needs at least 2 states")
    if len(set(net.states)) != len(net.states):
        raise ValidationError("duplicate state name")
    for s in net.states:
        if not isinstance(s, str) or not s:
            raise ValidationError(f"state names must be nonempty strings, got {s!r}")
    if len(net.channels) < 1:
        raise ValidationError("a network needs at least 1 channel")
    if len(set(net.records)) != len(net.records):
        raise ValidationError("duplicate record name")
    for r in net.records:
        if not r:
            raise ValidationError("record names must be nonempty")
    declared = set(net.records)
    n = len(net.states)
    for e, ch in enumerate(net.channels):
        if not (0 <= ch.from_state < n) or not (0 <= ch.to_state < n):
            raise ValidationError(f"channel {e}: state index out of range")
        if ch.from_state == ch.to_state:
            raise ValidationError(f"channel {e}: self-transition not allowed")
        if not math.isfinite(ch.rate) or ch.rate < 0:
            raise ValidationError(f"channel {e}: rate must be finite and >= 0, got {ch.rate!r}")
        for key, val in ch.increments.items():
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
    if not isinstance(doc["channels"], list):
        raise ValidationError("'channels' must be an array")
    if len(set(states)) != len(states):
        raise ValidationError("duplicate state name")
    if len(states) < 2:
        raise ValidationError("a network needs at least 2 states")
    index = {name: i for i, name in enumerate(states)}

    channels = []
    for e, entry in enumerate(doc["channels"]):
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
        channels.append(
            TransitionChannel(
                from_state=index[frm],
                to_state=index[to],
                reservoir=str(entry.get("reservoir", "")),
                rate=rate,
                filter=str(entry.get("filter", "")),
                increments=incs,
            )
        )
    return ChannelNetwork(states=tuple(states), channels=tuple(channels), records=tuple(records))


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
