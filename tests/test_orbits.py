import pytest
from hypothesis import given, settings, strategies as st

from contactres import orbits
from contactres.errors import (
    InvalidPartition,
    TableFormatError,
    UnknownExceptionalKey,
    ZeroOrbit,
)
from contactres.lie_core import SimpleType
from contactres.oracle_lab import addim, jordan_nilpotent
from contactres.orbits import (
    dual_partition,
    exceptional_entry,
    exceptional_table,
    is_minimal_orbit,
    is_zero_orbit,
    minimal_orbit_dimension,
    minimal_orbit_label,
    orbit_dimension,
    orbit_record,
    parse_orbit,
    partitions_of,
    regular_orbit_label,
    table_version,
    validate_orbit,
)

SMALL_CLASSICAL = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
    SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
    SimpleType("C", 2), SimpleType("C", 3), SimpleType("D", 4),
]


def orbits_of(t):
    total = {"A": t.rank + 1, "B": 2 * t.rank + 1,
             "C": 2 * t.rank, "D": 2 * t.rank}[t.family]
    for part in partitions_of(total):
        try:
            yield validate_orbit(t, part)
        except InvalidPartition:
            continue


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

    def test_very_even_tags(self):
        one = parse_orbit("D4:2,2,2,2/I")
        two = parse_orbit("D4:2,2,2,2/II")
        assert one.very_even_tag == "I" and two.very_even_tag == "II"
        # the tag never changes anything computable in scope
        assert orbit_dimension(one) == orbit_dimension(two)

    def test_tag_rejected_when_not_very_even(self):
        with pytest.raises(InvalidPartition):
            parse_orbit("D4:3,3,1,1/I")


class TestDimension:
    def test_a3_oracle_derived_examples(self):
        # expected values frozen from the ad-rank oracle
        assert addim(jordan_nilpotent((2, 1, 1))) == 6
        assert orbit_dimension(parse_orbit("A3:2,1,1")) == 6
        assert addim(jordan_nilpotent((2, 2))) == 8
        assert orbit_dimension(parse_orbit("A3:2,2")) == 8

    def test_type_a_matches_oracle_exhaustively(self):
        for n in range(2, 6):
            t = SimpleType("A", n - 1)
            for part in partitions_of(n):
                o = validate_orbit(t, part)
                assert orbit_dimension(o) == addim(jordan_nilpotent(part)), \
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
            reg = regular_orbit_label(t)
            assert orbit_dimension(reg) == expected[t.family](t.rank) - t.rank

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
        assert is_minimal_orbit(parse_orbit("A2:2,1")) is True
        assert is_minimal_orbit(parse_orbit("A3:2,2")) is False
        assert is_minimal_orbit(parse_orbit("G2:dim6")) is True

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
                       if not is_zero_orbit(o) and is_minimal_orbit(o)]
            assert len(minimal) == 1
            assert minimal[0] == minimal_orbit_label(t)

    def test_zero_orbit_rejected(self):
        with pytest.raises(ZeroOrbit):
            is_minimal_orbit(parse_orbit("A3:1,1,1,1"))


class TestOrbitRecord:
    def test_contact_n(self):
        rec = orbit_record(parse_orbit("A3:2,2"))
        assert rec.dim_orbit == 8
        assert rec.contact_n == 3
        assert rec.canonical_bundle_exponent == 4

    def test_singularity_flags_constant(self):
        rec = orbit_record(parse_orbit("B2:2,2,1"))
        assert rec.singularity_flags == {
            "projectively_normal": True, "rational_gorenstein": True}

    def test_zero_orbit_record(self):
        rec = orbit_record(parse_orbit("A2:1,1,1"))
        assert rec.is_zero and rec.contact_n is None

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


class TestExceptionalTable:
    def test_version_and_g2_completeness(self):
        assert table_version() == "1"
        keys = {k for (f, r, k) in exceptional_table() if (f, r) == ("G", 2)}
        assert keys == {"dim0", "dim6", "dim8", "dim10", "dim12"}

    def test_every_entry_has_provenance(self):
        for entry in exceptional_table().values():
            assert entry.provenance

    def test_g2_dim8_note_mentions_so7(self):
        entry = exceptional_entry(parse_orbit("G2:dim8"))
        assert "so_7" in entry.note
        assert entry.admits_symplectic_resolution is False

    def test_g2_dim10_is_honestly_unknown(self):
        entry = exceptional_entry(parse_orbit("G2:dim10"))
        assert entry.is_richardson is True
        assert entry.admits_symplectic_resolution is None

    def test_minimal_entries_match_dual_coxeter_dimension(self):
        for (family, rank, _key), entry in exceptional_table().items():
            t = SimpleType(family, rank)
            if entry.dimension == minimal_orbit_dimension(t):
                assert entry.admits_symplectic_resolution is False

    def test_regular_entries_carry_borel_polarization(self):
        for t in [SimpleType("G", 2), SimpleType("F", 4), SimpleType("E", 6)]:
            reg = regular_orbit_label(t)
            entry = exceptional_entry(reg)
            assert entry.polarizations == (tuple(range(1, t.rank + 1)),)
            assert entry.springer_degree == 1


# A well-formed table; each refusal test below breaks it in one place.
VALID_TABLE = """\
# table_version: 1

orbit: G2:dim6
dimension: 6
is_richardson: false
admits_symplectic_resolution: false

orbit: G2:dim12
dimension: 12
admits_symplectic_resolution: true
polarizations: full
springer_degree: 1
"""


@pytest.fixture
def load_table_text(monkeypatch):
    """Load a table from the given text instead of the shipped file."""
    def load(text):
        monkeypatch.setattr(orbits, "_table_text", lambda: text)
        orbits._load_table.cache_clear()
        return orbits._load_table()
    yield load
    monkeypatch.undo()
    orbits._load_table.cache_clear()


class TestTableLoader:
    def test_valid_text_loads(self, load_table_text):
        version, table = load_table_text(VALID_TABLE)
        assert version == "1"
        assert table[("G", 2, "dim12")].polarizations == ((1, 2),)

    @pytest.mark.parametrize("old, new, message", [
        ("orbit: G2:dim12", "orbit: G2:dim6", "duplicate table key"),
        ("dimension: 12", "dimension: 11", "odd orbit dimension"),
        ("is_richardson: false", "is_richardson: yes", "expected true/false"),
        ("# table_version: 1", "# version one", "table_version"),
        ("polarizations: full\n", "",
         "admits_symplectic_resolution without polarizations"),
        ("admits_symplectic_resolution: true\n", "",
         "polarizations without admits_symplectic_resolution"),
        ("admits_symplectic_resolution: true",
         "admits_symplectic_resolution: false",
         "polarizations without admits_symplectic_resolution"),
        ("polarizations: full", "polarizations: {}",
         "bad polarization entry"),
        ("polarizations: full", "polarizations: {1,,2}",
         "bad polarization entry"),
        ("polarizations: full", "polarizations: {1,3}", "outside 1..2"),
        ("polarizations: full", "polarizations: {0}", "outside 1..2"),
        ("dimension: 12", "dimension: seven", "expected an integer"),
        ("springer_degree: 1", "springer_degree: 1.5",
         "expected an integer"),
    ], ids=["duplicate-key", "odd-dimension", "bad-boolean",
            "missing-version", "resolution-without-polarizations",
            "polarizations-without-resolution",
            "polarizations-with-false-resolution", "empty-polarization",
            "blank-mark", "mark-above-rank", "mark-zero",
            "non-integer-dimension", "non-integer-springer-degree"])
    def test_malformed_text_refused(self, load_table_text, old, new, message):
        assert old in VALID_TABLE
        with pytest.raises(TableFormatError, match=message):
            load_table_text(VALID_TABLE.replace(old, new, 1))


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
