"""``report.to_json`` writes the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)``, the oracle here, and refuses what a report never holds."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactres.lie_core import SimpleType
from contactres.report import to_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# every code point class the escaping must get right: ASCII, quotes and
# backslashes, control characters, non-ASCII, and beyond the BMP
texts = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
    st.characters()), max_size=8)

scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
    st.integers(-2**70, 2**70), texts)

int_lists = st.lists(st.integers(-2**70, 2**70), max_size=6)

trees = st.recursive(
    st.one_of(scalars, int_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5)),
    max_leaves=20)


class TestMatchesStdlib:
    @given(trees)
    @settings(max_examples=150, derandomize=True)
    def test_random_trees(self, obj):
        assert to_json(obj) == oracle(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
        [True, False, 1, 0], [1, True], [0, False, None], {"": None},
        [2**64, -2**64 - 1, 2**200], "café \"q\" \\ \n\x01",
        {"é": 1, "e": 2, "E": 3, "\x00": 4, '"': 5},
    ], ids=repr)
    def test_edge_cases(self, obj):
        assert to_json(obj) == oracle(obj)

    def test_deep_nesting(self):
        lists, dicts = [7], {"k": 7}
        for depth in range(60):
            lists = [lists, depth]
            dicts = {"k": dicts, str(depth): (depth,)}
        assert to_json(lists) == oracle(lists)
        assert to_json(dicts) == oracle(dicts)


class TestRefuses:
    @pytest.mark.parametrize("obj", [
        1.5, [0.0], {"x": float("nan")}, {1, 2}, frozenset(), Fraction(1, 2),
        b"bytes", pytest.param(object(), id="object"), {1: "int key"}, {None: 0}, {("a",): 0},
        {"a": 1, 2: "mixed keys"},
        # a record is a named tuple: only the exact type test refuses it
        pytest.param(SimpleType("A", 1), id="record"),
        pytest.param([SimpleType("A", 1)], id="record-in-list"),
    ], ids=repr)
    def test_type_error(self, obj):
        with pytest.raises(TypeError):
            to_json(obj)
