import hashlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from contactres import orbits
from contactres.errors import (
    InvalidPartition,
    SizeCapExceeded,
    UnknownClassification,
    UnknownExceptionalKey,
)
from contactres.lie_core import SimpleType, build_root_system
from contactres.oracle_lab import addim, jordan_nilpotent
from contactres.orbits import (
    dual_partition,
    exceptional_entry,
    exceptional_table,
    is_very_even,
    minimal_orbit_dimension,
    minimal_orbit_label,
    orbit_dimension,
    orbit_record,
    orbits_of,
    parse_orbit,
    partitions_of,
    table_version,
    validate_orbit,
)
from contactres.report import orbit_record_dict
from contactres.resolutions import polarizations

SMALL_CLASSICAL = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
    SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
    SimpleType("C", 2), SimpleType("C", 3), SimpleType("D", 4),
]


def reference_orbits(t):
    """Reference path for ``orbits_of``, by brute force: each partition
    that ``validate_orbit`` accepts, a very-even one once per tag, and the
    table's orbits of ``t`` sorted by dimension."""
    if not t.is_classical:
        found = [validate_orbit(t, key) for f, r, key in exceptional_table()
                 if (f, r) == (t.family, t.rank)]
        return sorted(found, key=orbit_dimension)
    total = {"A": t.rank + 1, "B": 2 * t.rank + 1,
             "C": 2 * t.rank, "D": 2 * t.rank}[t.family]
    found = []
    for part in partitions_of(total):
        try:
            validate_orbit(t, part)
        except InvalidPartition:
            continue
        for tag in ("I", "II") if is_very_even(t, part) else (None,):
            found.append(validate_orbit(t, part, very_even_tag=tag))
    return found


def reference_minimal_label(t):
    """Reference path for ``minimal_orbit_label``, the partitions the
    package listed per family before it read them off the parity rule,
    and its scan of the table for E/F/G."""
    n = t.rank
    if t.is_classical:
        return validate_orbit(t, {
            "A": (2,) + (1,) * (n - 1), "B": (2, 2) + (1,) * (2 * n - 3),
            "C": (2,) + (1,) * (2 * n - 2),
            "D": (2, 2) + (1,) * (2 * n - 4)}[t.family])
    [key] = [key for (f, r, key), entry in exceptional_table().items()
             if (f, r) == (t.family, n)
             and entry.dimension == minimal_orbit_dimension(t)]
    return validate_orbit(t, key)


def reference_regular_label(t):
    """Reference path for the regular orbit, the partitions the package
    listed per family before the decision read it off the dimension: one
    part in A, B and C, and 2n - 1, 1 in D."""
    n = t.rank
    return validate_orbit(t, {"A": (n + 1,), "B": (2 * n + 1,), "C": (2 * n,),
                              "D": (2 * n - 1, 1)}[t.family])


def dimension_by_dual_partition(o):
    """Reference path for ``orbit_dimension`` on a classical orbit, the
    sum the package took over the dual partition before it read the sum
    off the parts: dim g + 1 - sum d^2 in A, and dim g - (sum d^2 -+
    #odd parts) / 2 in B/D and C."""
    t = o.simple_type
    dim_g = 2 * t.num_positive_roots + t.rank
    sq = sum(d * d for d in dual_partition(o.partition))
    odd = sum(1 for p in o.partition if p % 2)
    if t.family == "A":
        return dim_g + 1 - sq
    return dim_g - (sq + (odd if t.family == "C" else -odd)) // 2


CLASSICAL_UP_TO_RANK_8 = [
    SimpleType(f, n) for f, low in [("A", 1), ("B", 2), ("C", 2), ("D", 3)]
    for n in range(low, 9)]
TABLE_TYPES = sorted({SimpleType(f, r) for f, r, _ in exceptional_table()})


def is_minimal(o):
    return orbit_record(o).is_minimal


def zero_by_parts(o):
    """Reference path for ``orbit_record(o).is_zero``, the rule the
    package used before the record decided it from the dimension: every
    part is 1, or the table dimension is 0."""
    if o.is_exceptional:
        return exceptional_entry(o).dimension == 0
    return all(p == 1 for p in o.partition)


class TestValidation:
    def test_a3_examples(self):
        assert validate_orbit(SimpleType("A", 3), [2, 1, 1]).partition == \
            (2, 1, 1)
        assert validate_orbit(SimpleType("A", 3), [1, 2, 1]).partition == \
            (2, 1, 1)

    def test_c2_odd_multiplicity_rejected(self):
        with pytest.raises(InvalidPartition):
            validate_orbit(SimpleType("C", 2), [3, 1])

    def test_b_even_multiplicity_rule(self):
        validate_orbit(SimpleType("B", 2), [2, 2, 1])
        with pytest.raises(InvalidPartition):
            validate_orbit(SimpleType("B", 3), [4, 2, 1])

    def test_wrong_total(self):
        with pytest.raises(InvalidPartition):
            validate_orbit(SimpleType("A", 3), [2, 1])

    def test_nonpositive_parts(self):
        with pytest.raises(InvalidPartition):
            validate_orbit(SimpleType("A", 3), [4, 0])

    def test_float_parts_refused(self):
        # int() truncated them: [2.7, 1.2, 1] was A3:2,1,1
        with pytest.raises(TypeError):
            validate_orbit(SimpleType("A", 3), [2.7, 1.2, 1])

    def test_exceptional_key(self):
        o = parse_orbit("G2:dim8")
        assert o.exceptional_key == "dim8"
        assert orbit_dimension(o) == 8

    def test_unknown_key(self):
        with pytest.raises(UnknownExceptionalKey):
            parse_orbit("G2:dim7")

    def test_partition_for_exceptional_rejected(self):
        with pytest.raises(InvalidPartition):
            validate_orbit(SimpleType("G", 2), [2, 1, 1])
        # and a table key for a classical type
        with pytest.raises(InvalidPartition,
                           match="classical type B3 takes a partition"):
            validate_orbit(SimpleType("B", 3), "dim8")

    def test_very_even_tags(self):
        one = parse_orbit("D4:2,2,2,2/I")
        two = parse_orbit("D4:2,2,2,2/II")
        assert one.very_even_tag == "I" and two.very_even_tag == "II"
        # the tag never changes anything computable in scope
        assert orbit_dimension(one) == orbit_dimension(two)

    def test_tag_rejected_when_not_very_even(self):
        with pytest.raises(InvalidPartition):
            parse_orbit("D4:3,3,1,1/I")
        # a very-even partition takes only I or II
        with pytest.raises(InvalidPartition,
                           match="very-even tag must be I or II, got 'III'"):
            parse_orbit("D4:2,2,2,2/III")

    @pytest.mark.parametrize("label, shown", [
        ("A3:4/I", "A3:4"), ("D4:3,1,1,1,1,1/I", "D4:3,1,1,1,1,1"),
        ("D4:1,3,1,1,1,1/II", "D4:3,1,1,1,1,1")])
    def test_tag_refusal_names_the_label(self, label, shown):
        # the refusal printed the partition as a Python tuple, "A3:(4,)"
        with pytest.raises(InvalidPartition) as info:
            parse_orbit(label)
        assert str(info.value) == \
            f"{shown} is not very even; no I/II tag applies"

    @pytest.mark.parametrize("space", ["\x1c", "\x1f", "\x85", "\u3000"])
    def test_whitespace_around_the_parts_is_stripped(self, space):
        # str.strip removes U+001C-U+001F and int() does not, so the parts
        # are converted after the strip
        assert parse_orbit(f"A3:{space}2,1,1{space}") == \
            parse_orbit("A3:2,1,1")


class TestDimension:
    def test_a3_oracle_derived_examples(self):
        # expected values frozen from the ad-rank oracle
        assert addim(jordan_nilpotent((2, 1, 1))) == 6
        assert orbit_dimension(parse_orbit("A3:2,1,1")) == 6
        assert addim(jordan_nilpotent((2, 2))) == 8
        assert orbit_dimension(parse_orbit("A3:2,2")) == 8

    def test_type_a_matches_oracle_exhaustively(self):
        for rank in range(1, 5):
            for o in orbits_of(SimpleType("A", rank)):
                assert orbit_dimension(o) == \
                    addim(jordan_nilpotent(o.partition)), \
                    f"dimension formula disagrees with oracle at {o}"

    def test_dimension_always_even(self):
        for t in SMALL_CLASSICAL:
            for o in orbits_of(t):
                assert orbit_dimension(o) % 2 == 0

    def test_regular_orbit_dimensions(self):
        # dim of the nilpotent cone is dim g - rank
        expected = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
                    "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1)}
        for t in SMALL_CLASSICAL:
            reg = reference_regular_label(t)
            assert orbit_dimension(reg) == expected[t.family](t.rank) - t.rank

    @pytest.mark.parametrize("t", CLASSICAL_UP_TO_RANK_8, ids=str)
    def test_matches_dual_partition_formula(self, t):
        for o in orbits_of(t):
            assert orbit_dimension(o) == dimension_by_dual_partition(o), o

    @pytest.mark.parametrize("t", CLASSICAL_UP_TO_RANK_8, ids=str)
    def test_regular_is_the_one_orbit_of_its_dimension(self, t):
        # 2 |positive roots| = dim g - rank, the nilpotent cone's dimension
        regular = [o for o in orbits_of(t)
                   if orbit_dimension(o) == 2 * t.num_positive_roots]
        assert regular == [reference_regular_label(t)]

    def test_exceptional_dimensions(self):
        assert orbit_dimension(parse_orbit("G2:dim10")) == 10
        assert orbit_dimension(parse_orbit("F4:dim16")) == 16


class TestDualPartition:
    def test_examples(self):
        assert dual_partition((2, 1, 1)) == (3, 1)
        assert dual_partition((4,)) == (1, 1, 1, 1)
        assert dual_partition((3, 2, 1)) == (3, 2, 1)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=8))
    @settings(max_examples=80, derandomize=True)
    def test_involution_and_weight(self, parts):
        part = tuple(sorted(parts, reverse=True))
        dual = dual_partition(part)
        assert dual_partition(dual) == part
        assert sum(dual) == sum(part)
        assert all(dual[i] >= dual[i + 1] for i in range(len(dual) - 1))


class TestMinimalOrbits:
    def test_examples(self):
        assert is_minimal(parse_orbit("A2:2,1")) is True
        assert is_minimal(parse_orbit("A3:2,2")) is False
        assert is_minimal(parse_orbit("G2:dim6")) is True

    def test_a2_minimal_dimension_from_oracle(self):
        # 2h-check - 2 = 4 for sl_3, and the oracle agrees on E_13-type e
        assert addim(jordan_nilpotent((2, 1))) == 4
        assert minimal_orbit_dimension(SimpleType("A", 2)) == 4

    def test_minimal_formula_cross_checks(self):
        # type A against the matrix oracle, type C against the closed form
        for rank in range(1, 5):
            t = SimpleType("A", rank)
            o = minimal_orbit_label(t)
            assert addim(jordan_nilpotent(o.partition)) == \
                minimal_orbit_dimension(t)
        for rank in range(2, 6):
            t = SimpleType("C", rank)
            assert orbit_dimension(minimal_orbit_label(t)) == \
                minimal_orbit_dimension(t)

    def test_exactly_one_minimal_orbit_per_type(self):
        for t in SMALL_CLASSICAL:
            minimal = [o for o in orbits_of(t)
                       if not zero_by_parts(o) and is_minimal(o)]
            assert len(minimal) == 1
            assert minimal[0] == minimal_orbit_label(t)


class TestWalk:
    @pytest.mark.parametrize("t", CLASSICAL_UP_TO_RANK_8 + TABLE_TYPES,
                             ids=str)
    def test_walk_is_the_brute_force_reference(self, t):
        assert list(orbits_of(t)) == reference_orbits(t)

    def test_walk_validates_no_label(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the walk validated a label")
        monkeypatch.setattr(orbits, "validate_orbit", refuse)
        assert len(list(orbits_of(SimpleType("D", 6)))) == 31

    @pytest.mark.parametrize("t", CLASSICAL_UP_TO_RANK_8 + TABLE_TYPES,
                             ids=str)
    def test_minimal_label_is_unchanged(self, t):
        assert minimal_orbit_label(t) == reference_minimal_label(t)

    @pytest.mark.parametrize("family", "ABCD")
    def test_minimal_label_is_closed_form_at_high_rank(self, family,
                                                       monkeypatch):
        def refuse(n):
            raise AssertionError("the minimal orbit was found by walking")
        monkeypatch.setattr(orbits, "partitions_of", refuse)
        t = SimpleType(family, 100_000)
        o = minimal_orbit_label(t)
        assert o.partition[:2] == ((2, 1) if family in "AC" else (2, 2))
        assert orbit_dimension(o) == minimal_orbit_dimension(t)


class TestOrbitRecord:
    def test_dimension_refused_exactly_where_str_refuses(self, monkeypatch):
        # 10^640 - 2 has 640 digits and 10^640 has 641; 640 is the least
        # limit Python takes, and 0 lifts it
        o = parse_orbit("A3:2,2")
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(orbits, "orbit_dimension", lambda o: dim)
        try:
            sys.set_int_max_str_digits(640)
            dim = 10**640 - 2
            assert len(str(orbit_record(o).dim_orbit)) == 640
            dim = 10**640
            with pytest.raises(ValueError):
                str(dim)
            with pytest.raises(SizeCapExceeded, match="more than 640 digits"):
                orbit_record(o)
            sys.set_int_max_str_digits(0)
            assert orbit_record(o).dim_orbit == dim
        finally:
            sys.set_int_max_str_digits(limit)

    def test_contact_n(self):
        rec = orbit_record(parse_orbit("A3:2,2"))
        assert rec.dim_orbit == 8
        assert rec.contact_n == 3
        assert rec.canonical_bundle_exponent == 4

    def test_singularity_flags_constant(self):
        rec = orbit_record(parse_orbit("B2:2,2,1"))
        assert orbit_record_dict(rec)["singularity_flags"] == {
            "projectively_normal": True, "rational_gorenstein": True}

    def test_zero_orbit_record(self):
        rec = orbit_record(parse_orbit("A2:1,1,1"))
        assert rec.is_zero and rec.contact_n is None
        assert rec.is_minimal is False

    def test_zero_is_dimension_zero_against_the_parts(self):
        # the record's zero flag (dimension 0) against the reference path
        types = ([SimpleType("A", n) for n in range(1, 8)]
                 + [SimpleType(f, n) for f in "BC" for n in range(2, 5)]
                 + [SimpleType("D", 4), SimpleType("D", 5)] + TABLE_TYPES)
        zeros = 0
        for o in (o for t in types for o in orbits_of(t)):
            assert orbit_record(o).is_zero == zero_by_parts(o), o
            zeros += zero_by_parts(o)
        # one zero orbit per type, and the table lists each type's zero orbit
        assert zeros == len(types)

    def test_smooth_projectivisation_cases_are_exactly_the_two(self):
        # exhaustive over the listed families plus all G2 orbits
        for t in SMALL_CLASSICAL:
            for o in orbits_of(t):
                rec = orbit_record(o)
                assert rec.proj_normalization_smooth == rec.is_minimal
        g2 = SimpleType("G", 2)
        for key in ("dim6", "dim8", "dim10", "dim12"):
            rec = orbit_record(validate_orbit(g2, key))
            assert rec.proj_normalization_smooth == (key in ("dim6", "dim8"))


# sha256 of repr(list(exceptional_table().values())) under each version
TABLE_DIGESTS = {
    "1": "efdf01f56f990aea4c7eff60af81b4bef9124ad5ac6b66b769f06dbee0bd3610"}


class TestExceptionalTable:
    def test_table_version_names_the_rows(self):
        # a changed row needs a table_version bump and a new digest
        rows = list(exceptional_table().values())
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert TABLE_DIGESTS[table_version()] == digest

    @pytest.mark.parametrize("entry", orbits._EXCEPTIONAL_ORBITS, ids=[
        f"{e.family}{e.rank}:{e.key}" for e in orbits._EXCEPTIONAL_ORBITS])
    def test_row_names_its_orbit(self, entry):
        # an exceptional type's key, parsed back to this very row, and an
        # even dimension
        text = f"{entry.family}{entry.rank}:{entry.key}"
        o = parse_orbit(text)
        assert not o.simple_type.is_classical
        assert str(o) == text and exceptional_entry(o) is entry
        assert entry.dimension % 2 == 0
        assert orbit_dimension(o) == entry.dimension

    def test_rows_are_well_formed(self):
        # no repeated key; the walk reads the rows in order, so each
        # type's dimensions increase
        rows = orbits._EXCEPTIONAL_ORBITS
        keys = [(entry.family, entry.rank, entry.key) for entry in rows]
        assert len(set(keys)) == len(rows) == 17
        assert list(exceptional_table().items()) == list(zip(keys, rows))
        by_type = {}
        for entry in rows:
            by_type.setdefault(SimpleType(entry.family, entry.rank),
                               []).append(entry.dimension)
        for t, dims in by_type.items():
            assert dims == sorted(set(dims)), t
            assert [orbit_dimension(o) for o in orbits_of(t)] == dims

    @pytest.mark.parametrize("name", [
        "is_richardson", "admits_symplectic_resolution", "polarizations",
        "springer_degree"])
    def test_a_derived_fact_has_no_field(self, name):
        # the decision derives these, so a row may not state them
        assert name not in orbits.ExceptionalOrbitEntry._fields
        with pytest.raises(TypeError, match=name):
            orbits.ExceptionalOrbitEntry("G", 2, "dim12", 12, **{name: True})

    def test_version_and_g2_completeness(self):
        assert table_version() == "1"
        keys = [o.exceptional_key for o in orbits_of(SimpleType("G", 2))]
        assert keys == ["dim0", "dim6", "dim8", "dim10", "dim12"]

    def test_every_entry_has_provenance(self):
        for entry in exceptional_table().values():
            assert entry.provenance

    def test_g2_dim8_note_mentions_so7(self):
        entry = exceptional_entry(parse_orbit("G2:dim8"))
        assert "so_7" in entry.note

    def test_g2_dim10_is_honestly_unknown(self):
        o = parse_orbit("G2:dim10")
        entry = exceptional_entry(o)
        assert entry.note is None and "left unknown" in entry.provenance
        with pytest.raises(UnknownClassification):
            polarizations(o)

    def test_minimal_entries_match_dual_coxeter_dimension(self):
        # one entry per type at 2 h-check - 2, noted as the minimal orbit,
        # and the decision's smooth-closure rule leaves it unresolved
        for t in {SimpleType(f, r) for f, r, _ in exceptional_table()}:
            [o] = [o for o in orbits_of(t)
                   if orbit_dimension(o) == minimal_orbit_dimension(t)]
            assert exceptional_entry(o).note.startswith("minimal orbit")
            assert polarizations(o) == [], o

    def test_regular_entries_carry_borel_polarization(self):
        # reference path: the regular dimension dim g - rank from the
        # generated root system, as the package found it before
        for t in [SimpleType("G", 2), SimpleType("F", 4), SimpleType("E", 6)]:
            want = 2 * len(build_root_system(t).positive_roots)
            [o] = [o for o in orbits_of(t) if orbit_dimension(o) == want]
            [pol] = polarizations(o)
            assert pol.parabolic.marked == tuple(range(1, t.rank + 1))

    def test_full_listed_exactly_at_the_regular_dimension(self):
        for (family, rank, key), entry in exceptional_table().items():
            t = SimpleType(family, rank)
            if entry.dimension == 0:
                continue
            try:
                found = polarizations(validate_orbit(t, key))
            except UnknownClassification:
                found = []
            full = tuple(range(1, rank + 1)) in [p.parabolic.marked
                                                 for p in found]
            assert full == (entry.dimension == 2 * t.num_positive_roots), key


class TestGrammar:
    @pytest.mark.parametrize("text", [
        "A3:2,1,1", "G2:dim8", "D4:2,2,2,2/I", "B3:3,3,1", "C3:2,2,1,1",
    ])
    def test_round_trip(self, text):
        assert str(parse_orbit(text)) == text

    def test_bad_strings(self):
        with pytest.raises(InvalidPartition):
            parse_orbit("A3")
        with pytest.raises(InvalidPartition):
            parse_orbit("G2:dim8/I")

    @pytest.mark.parametrize("text, tail", [
        ("A3:2,,1", "2,,1"), ("A3:2 1", "2 1"), ("A1:2,", "2,"),
        ("D4:2,,2,2,2/I", "2,,2,2,2"), ("C3:x", "x"),
    ])
    def test_malformed_partition_is_named(self, text, tail):
        # a classical tail that does not parse is a bad partition, not a key
        with pytest.raises(InvalidPartition) as err:
            parse_orbit(text)
        assert repr(tail) in str(err.value)
        assert "comma-separated" in str(err.value)
        assert "not a key" not in str(err.value)
