"""``report.to_json`` writes the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)``, the oracle here, and refuses what a report never holds.
It writes a tuple that comes back, at any indent, from the text it
already wrote, so the report functions must keep handing it the records'
own tuples."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactres.lie_core import SimpleType
from contactres.orbits import parse_orbit
from contactres.report import (
    chamber_complex_dict,
    resolution_report_dict,
    to_json,
)
from contactres.resolutions import (
    ample_cone,
    contact_resolution_exists,
    movable_chambers,
)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _nest(obj, depth):
    for _ in range(depth):
        obj = [obj]
    return obj


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


@st.composite
def shared_trees(draw):
    """A tree in which the same tuple objects recur: at several depths,
    inside lists, tuples and dict values, and twice at one depth."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        # a later tuple may hold an earlier one
        items = st.one_of(scalars, st.sampled_from(pool)) if pool else scalars
        pool.append(draw(st.one_of(
            st.lists(st.integers(-5, 5), min_size=1, max_size=4),
            st.lists(items, min_size=1, max_size=3),
            st.lists(trees, min_size=1, max_size=2)).map(tuple)))
    shared = st.sampled_from(pool)
    tree = draw(st.recursive(
        st.one_of(shared, scalars),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(texts, inner, max_size=4)),
        max_leaves=12))
    first = pool[0]
    return [tree, tree, first, [first, (first,)], {"a": first, "b": [first]}]


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


class TestSharedTuples:
    @given(shared_trees())
    @settings(max_examples=150, derandomize=True)
    def test_shared_tuples_match_stdlib(self, obj):
        assert to_json(obj) == oracle(obj)

    @pytest.mark.parametrize("shape", [
        lambda t: [t, [[t]]],             # depth 1, then depth 3
        lambda t: {"a": [[t]], "b": t},   # depth 3, then depth 1
        lambda t: [t, t, [[t, t]], t],
        lambda t: [[[t]], t, [[t]]],      # deep, shallow, deep again
        lambda t: [t, (t, [t]), [[(t, [t])]], [(t, [t])]],  # nested shares
        lambda t: [_nest(t, 60), t],      # depth 61, then depth 1
        lambda t: [t, _nest(t, 60)],      # depth 1, then depth 61
        lambda t: {"a": _nest(t, 60), "b": [t], "c": _nest([t], 30)},
    ], ids=["1-then-3", "3-then-1", "mixed", "3-1-3", "nested",
            "61-then-1", "1-then-61", "61-2-32"])
    def test_text_is_reindented_at_any_depth(self, shape):
        # an identity-only memo would write the second copy at the
        # first one's indent; a replace in the wrong direction would
        # indent the lines of a shallower copy deeper, or fail to
        # match at a deeper one
        t = (1, (2, "x\n  y"), [3], {"k": ("z",)})
        obj = shape(t)
        assert to_json(obj) == oracle(obj)

    def test_reports_hand_over_the_records_tuples(self):
        # the sharing that lets to_json write each value once survives
        # into the report: the orthant and the chambers' compositions
        cc = movable_chambers(parse_orbit("A8:6,2,1"))
        d = chamber_complex_dict(cc)
        orthant = ample_cone(cc.chambers[0].parabolic).extreme_rays
        compositions = {id(ch.composition) for ch in cc.chambers}
        assert len(d["chambers"]) == 30 and d["walls"]
        for ch, row in zip(cc.chambers, d["chambers"]):
            assert row["ample_cone"]["extreme_rays"] is orthant
            assert row["label"] is ch.composition
            assert row["composition"] is ch.composition
            assert row["marked_roots"] is ch.parabolic.marked
        entries = {}
        for wall in d["walls"]:
            assert id(wall["chamber_a"]) in compositions
            assert id(wall["chamber_b"]) in compositions
            # walls with equal (a, b) hand over one entries tuple
            pair = entries.setdefault(wall["entries"], wall["entries"])
            assert pair is wall["entries"]
        assert len(entries) < len(d["walls"])

    def test_chamber_rows_share_the_polarization_rows_tuples(self):
        # in a classify report the chamber rows (depth 5) come before the
        # polarization rows (depth 4): the second copy is shallower
        r = resolution_report_dict(
            contact_resolution_exists(parse_orbit("A8:6,2,1")), [])
        rows = {row["composition"]: row for row in r["polarizations"]}
        assert len(rows) == len(r["chamber_complex"]["chambers"]) == 30
        for ch in r["chamber_complex"]["chambers"]:
            row = rows[ch["composition"]]
            assert row["composition"] is ch["composition"]
            assert row["marked_roots"] is ch["marked_roots"]
        assert to_json(r) == oracle(r)


class Key(str):
    """Equal to, and hashed as, the plain ``str`` it wraps."""


class TestRefuses:
    @pytest.mark.parametrize("obj", [
        1.5, [0.0], {"x": float("nan")}, {1, 2}, frozenset(), Fraction(1, 2),
        b"bytes", pytest.param(object(), id="object"), {1: "int key"}, {None: 0}, {("a",): 0},
        {"a": 1, 2: "mixed keys"},
        # a record is a named tuple: only the exact type test refuses it
        pytest.param(SimpleType("A", 1), id="record"),
        pytest.param([SimpleType("A", 1)], id="record-in-list"),
        pytest.param({Key("a"): 0}, id="str-subclass-key"),
    ], ids=repr)
    def test_type_error(self, obj):
        with pytest.raises(TypeError):
            to_json(obj)

    def test_str_subclass_equal_to_a_written_key(self):
        # the key prefixes of each depth are kept across calls, so an
        # equal str subclass must fail the type test before any lookup
        first = {"k": {"earlier-call": 1, "second": 2}}
        assert to_json(first) == oracle(first)
        for obj in [
            {"k": {Key("earlier-call"): 1}},               # a first key
            {"k": {"earlier-call": 1, Key("second"): 2}},  # a later key
            # written at the same depth earlier in the same call
            {"j": {"same-call": 1}, "k": {Key("same-call"): 2}},
        ]:
            with pytest.raises(TypeError):
                to_json(obj)
