"""The columnar loader against the per-channel loader it replaced.

``_reference_load`` is the earlier ``load_network`` (and the validation and
array building of the earlier ``ChannelNetwork``), kept as it was apart from
the names it builds.  Every document must give either an equal network (the
same states, records, channels with their increment key order, and every
``arrays`` field bit for bit) or the same ValidationError message.  Two
differences are intended.  The loader refuses string and bool increment
values, which the reference reads with float(), so a document holding one is
compared with the reference on a copy where such values are None.  And a
reservoir or filter label must be a string: the reference keeps labels as
given and refuses one that is not a string with the loader's message, and a
document holding one must be refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import ValidationError, load_network
from chanjump.network import ChannelArrays, TransitionChannel


# ---------------------------------------------------------------------------
# the reference: the per-channel loader, validation and array view


@dataclass(frozen=True)
class _ReferenceNetwork:
    states: tuple
    channels: tuple
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(str(r) for r in self.records))
        _validate(self)


def _validate(net) -> None:
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
        for what, label in (("reservoir", ch.reservoir), ("filter", ch.filter)):
            if not isinstance(label, str):
                raise ValidationError(f"channel {e}: {what} must be a string, got {label!r}")
        if not math.isfinite(ch.rate) or ch.rate < 0:
            raise ValidationError(f"channel {e}: rate must be finite and >= 0, got {ch.rate!r}")
        for key, val in ch.increments.items():
            if key not in declared:
                raise ValidationError(f"channel {e}: undeclared record {key!r}")
            if not math.isfinite(float(val)):
                raise ValidationError(f"channel {e}: increment {key!r} is not finite")


def _reference_load(document):
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed model document: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")

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
                reservoir=entry.get("reservoir", ""),
                rate=rate,
                filter=entry.get("filter", ""),
                increments=incs,
            )
        )
    return _ReferenceNetwork(states=tuple(states), channels=tuple(channels), records=tuple(records))


def _reference_arrays(net) -> ChannelArrays:
    chs = net.channels
    t_index: dict[tuple[int, int], int] = {}
    transition = [t_index.setdefault((ch.from_state, ch.to_state), len(t_index)) for ch in chs]
    r_index = {rec: i for i, rec in enumerate(net.records)}
    increments = np.zeros((len(net.records), len(chs)))
    for e, ch in enumerate(chs):
        for rec, val in ch.increments.items():
            increments[r_index[rec], e] = float(val)
    counts = np.bincount(transition, minlength=len(t_index))
    c_index: dict[tuple, int] = {}
    conjugate = [
        c_index.setdefault((ch.reservoir, ch.filter, *sorted((ch.from_state, ch.to_state))), len(c_index)) for ch in chs
    ]
    arrays = (
        np.array([ch.from_state for ch in chs], dtype=np.intp),
        np.array([ch.to_state for ch in chs], dtype=np.intp),
        np.array(transition, dtype=np.intp),
        np.array([ch.rate for ch in chs], dtype=float),
        increments,
        counts,
        np.argsort(transition, kind="stable"),
        np.array(list(t_index), dtype=np.intp),
        np.array(conjugate, dtype=np.intp),
    )
    ends = np.cumsum(counts).tolist()
    spans = tuple(zip([0] + ends[:-1], ends))
    return ChannelArrays(*arrays, transitions=tuple(t_index), spans=spans, conjugate_keys=tuple(c_index))


# ---------------------------------------------------------------------------
# documents: mostly well formed, with every kind of fault the loader names

_STATES = ["a", "b", "c"]
_RECORDS = ["x", "y", "z"]

_number = st.floats(-10, 10) | st.integers(-5, 5) | st.sampled_from([0.0, -0.0, 1e308, 5e-324])
_bad_number = st.sampled_from([math.nan, math.inf, -math.inf]) | st.sampled_from(
    [10**400, -(10**400), True, False, "2.5", "x", None, [1.0], {}]
)


_bad_rate = st.sampled_from([True, -1.0, "1", None, 10**400, math.nan])


@st.composite
def _documents(draw):
    """Half the documents are well formed; in the others each field is bad one time in 25."""
    faulty = draw(st.booleans())

    def pick(good, bad, odds=25):
        return draw(bad if faulty and draw(st.integers(1, odds)) == 1 else good)

    states = pick(
        st.lists(st.sampled_from(_STATES), min_size=2, max_size=3, unique=True),
        st.lists(st.sampled_from(_STATES + ["", 1]), max_size=3),
    )
    records = pick(
        st.lists(st.sampled_from(_RECORDS), max_size=3, unique=True),
        st.lists(st.sampled_from(_RECORDS + ["", 7]), max_size=3),
    )
    names = [s for s in states if isinstance(s, str)] or _STATES
    declared = [str(r) for r in records]

    def entry():
        if pick(st.just(False), st.just(True)):
            return draw(st.sampled_from([None, 1, "a", ["a", "b"]]))
        frm = draw(st.sampled_from(names))
        out = {
            "from": pick(st.just(frm), st.sampled_from(["q", 1, None, ["a"]])),
            "to": pick(st.sampled_from([n for n in names if n != frm] or names), st.just(frm)),
            "rate": pick(st.floats(0, 10) | st.integers(0, 9), _bad_rate, odds=8),
            "reservoir": pick(st.sampled_from(["L", "R", ""]), st.sampled_from([1, None])),
            "filter": pick(st.sampled_from(["", "f"]), st.just(2.5)),
        }
        if draw(st.integers(0, 4)):  # increments are optional
            keys = pick(st.lists(st.sampled_from(declared), unique=True) if declared else st.just([]), st.just(["w"]))
            out["increments"] = pick(
                st.just({key: pick(_number, _bad_number, odds=4) for key in keys}),
                st.sampled_from([["x"], "x", 1, None]),
            )
        if pick(st.just(False), st.just(True)):
            del out[draw(st.sampled_from(sorted(out)))]  # a missing key
        return out

    n_channels = pick(st.integers(1, 6), st.just(0))
    return {"states": states, "records": records, "channels": [entry() for _ in range(n_channels)]}


def _numbers_refused(doc):
    """doc with every string or bool increment value replaced by None.

    The reference reads such values with float(); the loader refuses them
    as it refuses None, so its outcome on doc is the reference's on this copy.
    """
    if not isinstance(doc.get("channels"), list):
        return doc
    channels = [
        {**entry, "increments": {
            k: None if isinstance(v, (str, bool)) else v for k, v in entry["increments"].items()
        }} if isinstance(entry, dict) and isinstance(entry.get("increments"), dict) else entry
        for entry in doc["channels"]
    ]
    return {**doc, "channels": channels}


def _labels_refused(doc) -> bool:
    """Whether some channel entry of doc holds a reservoir or filter label that is not a string."""
    entries = doc.get("channels") if isinstance(doc.get("channels"), list) else []
    return any(
        not isinstance(entry.get(key, ""), str) for entry in entries if isinstance(entry, dict) for key in ("reservoir", "filter")
    )


def _outcome(load, document):
    try:
        return load(document), None
    except ValidationError as exc:
        return None, str(exc)


def _assert_same_network(net, ref) -> None:
    assert net.states == ref.states and net.records == ref.records
    # repr shows the increment key order and the float type of every value
    assert repr(net.channels) == repr(ref.channels)
    expected = _reference_arrays(ref)
    for name in ChannelArrays.__dataclass_fields__:
        got, want = getattr(net.arrays, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_documents(), as_text=st.booleans())
def test_columnar_loader_matches_the_per_channel_loader(doc, as_text):
    refused = _numbers_refused(doc)
    document, reference = (json.dumps(doc), json.dumps(refused)) if as_text else (doc, refused)
    (net, error), (ref, ref_error) = _outcome(load_network, document), _outcome(_reference_load, reference)
    if refused != doc or _labels_refused(doc):  # a string or bool increment value or a label that is not a string
        assert error is not None  # is refused, or an earlier fault named
    assert error == ref_error
    if ref is not None:
        _assert_same_network(net, ref)


# one increment map of each kind the loader tells apart: all-float maps with
# str keys are copied, anything else goes through the per-value conversion
_INCREMENT_MAPS = {
    "all floats": ({"x": 0.5, "y": -1.25, "1": 0.0}, None),
    "ints": ({"x": 1, "y": -2}, None),
    "numpy floats": ({"x": np.float64(0.5), "y": np.float64(-3.0)}, None),
    "non-str keys": ({1: 0.5, "x": 2.0}, None),
    "str and float subclasses": ({np.str_("x"): 0.5, "y": np.float64(2.0)}, None),
    "empty": ({}, None),
    "nan": ({"x": 1.0, "y": math.nan}, "channel 0: increment 'y' is not finite"),
    "inf": ({"x": -math.inf}, "channel 0: increment 'x' is not finite"),
    "bool": ({"x": 1.0, "y": True}, "channel 0: increments must be numbers"),
    "str": ({"x": "2.5"}, "channel 0: increments must be numbers"),
}


@pytest.mark.parametrize("as_text", [False, True], ids=["dict", "text"])
@pytest.mark.parametrize("name", _INCREMENT_MAPS)
def test_each_kind_of_increment_map_loads_as_the_reference_loads_it(name, as_text):
    increments, message = _INCREMENT_MAPS[name]
    doc = {"states": ["a", "b"], "records": ["x", "y", "1"], "channels": [
        {"from": "a", "to": "b", "reservoir": "L", "rate": 1.5, "increments": increments},
        {"from": "b", "to": "a", "reservoir": "R", "rate": 0.5, "increments": {"y": 1.0}},
    ]}
    refused = _numbers_refused(doc)
    document, reference = (json.dumps(doc), json.dumps(refused)) if as_text else (doc, refused)
    (net, error), (ref, ref_error) = _outcome(load_network, document), _outcome(_reference_load, reference)
    assert error == ref_error == message
    if ref is not None:
        _assert_same_network(net, ref)
        assert {type(v) for ch in net.channels for v in ch.increments.values()} == {float}
        assert {type(k) for ch in net.channels for k in ch.increments} == {str}


@pytest.mark.parametrize(
    "channels, message",
    [
        ([{"from": "a", "to": "b", "rate": 1, "increments": {"x": math.nan}}], "channel 0: increment 'x' is not finite"),
        ([{"from": "a", "to": "b", "rate": 1}, {"from": "b", "to": "b", "rate": 1}], "channel 1: self-transition"),
        ([{"from": "a", "to": "b", "rate": 1, "increments": {"w": 1}}], "channel 0: undeclared record 'w'"),
        ([{"from": "a", "to": "b", "rate": 10**400}], "channel 0: rate is too large for a float"),
    ],
)
def test_the_first_failing_channel_is_named(channels, message):
    doc = {"states": ["a", "b"], "records": ["x"], "channels": channels}
    with pytest.raises(ValidationError, match=message):
        load_network(json.dumps(doc))
    with pytest.raises(ValidationError, match=message):
        _reference_load(json.dumps(doc))


def test_a_loaded_network_is_a_constructed_one():
    doc = {"states": ["a", "b"], "records": ["x", "y"], "channels": [
        {"from": "a", "to": "b", "reservoir": "L", "rate": 2, "increments": {"y": 1, "x": -0.5}},
        {"from": "b", "to": "a", "reservoir": "R", "filter": "f", "rate": 0.5},
    ]}
    net = load_network(json.dumps(doc))
    rebuilt = type(net)(states=net.states, channels=net.channels, records=net.records)
    assert rebuilt == net and repr(rebuilt.channels) == repr(net.channels)
    _assert_same_network(rebuilt, _reference_load(doc))
