"""The report encoder writes exactly what json.dumps(sort_keys=True, indent=2) writes."""

from __future__ import annotations

import json
import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump.report import to_json


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, 0.1])
# ASCII, escaped controls, quotes, non-ASCII, a character outside the BMP and a lone surrogate
_characters = ["a", "Z", " ", "\x00", "\x1f", "\x7f", '"', "\\", "\u00e9", "\U0001f600", "\ud800"]
_text = st.text(st.sampled_from(_characters), max_size=6)
_leaves = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    _text,
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_text, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=_trees)
def test_to_json_is_json_dumps_byte_for_byte(tree):
    assert to_json(tree) == _reference(tree)


class _Level(IntEnum):
    HIGH = 3


class _Name(str):
    pass


class _Rate(float):
    def __repr__(self):
        return "a rate"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [math.nan, math.inf, -math.inf, -0.0],
        {"level": _Level.HIGH, _Name("name"): _Name("x\ny"), "rate": _Rate(0.5), "np": np.float64(1e-300)},
        {"schema": 1, "nested": [[1.0, 2.0], [3.0, [True, False, None]]]},
    ],
    ids=["empty-dict", "empty-list", "empty-tuple", "empty-members", "non-finite", "subclasses", "nested"],
)
def test_to_json_edge_cases(obj):
    assert to_json(obj) == _reference(obj)


@pytest.mark.parametrize(
    "obj", [{1: "a"}, {"a": 1, 2: "b"}, {("a",): 1}, [np.int64(1)], {"x": object()}, {"x": {1, 2}}]
)
def test_to_json_refuses_what_a_report_cannot_hold(obj):
    with pytest.raises(TypeError):
        to_json(obj)
