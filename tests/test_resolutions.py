import math
from fractions import Fraction
from itertools import permutations

import pytest

from contactres import resolutions
from contactres.errors import (
    EmptyMarking,
    InvalidPartition,
    UnknownClassification,
    UnsupportedType,
    ZeroOrbit,
)
from contactres.lie_core import SimpleType, flag_dimension, parabolic, parse_parabolic
from contactres.orbits import (
    dual_partition,
    exceptional_entry,
    exceptional_table,
    is_very_even,
    minimal_orbit_label,
    orbit_dimension,
    parse_orbit,
    partitions_of,
    validate_orbit,
)
from contactres.resolutions import (
    NOTE_MINIMAL_NON_A,
    canonical_degree_on_curve,
    composition_from_marking,
    compositions_of,
    contact_resolution_exists,
    equivalent_parabolics,
    is_twistor_space,
    parabolic_from_composition,
    polarizations,
    richardson_partition,
)


def multinomial_of_dual(part):
    dual = dual_partition(part)
    count = math.factorial(len(dual))
    for v in set(dual):
        count //= math.factorial(dual.count(v))
    return count


class TestCompositions:
    def test_marking_round_trip(self):
        for n in range(2, 7):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                p = parabolic_from_composition(comp)
                assert composition_from_marking(p) == comp

    def test_examples(self):
        assert parabolic_from_composition((1, 3)).marked == (1,)
        assert parabolic_from_composition((3, 1)).marked == (3,)
        assert parabolic_from_composition((1, 1, 1, 1)).marked == (1, 2, 3)


class TestRichardson:
    def test_examples(self):
        t = SimpleType("A", 3)
        assert richardson_partition(
            t, parabolic_from_composition((1, 3))).partition == (2, 1, 1)
        assert richardson_partition(
            t, parabolic_from_composition((1, 1, 1, 1))).partition == (4,)
        assert richardson_partition(
            t, parabolic_from_composition((2, 2))).partition == (2, 2)

    def test_round_trip_law(self):
        for n in range(2, 7):
            t = SimpleType("A", n - 1)
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                orbit = richardson_partition(t, parabolic_from_composition(comp))
                expected = dual_partition(tuple(sorted(comp, reverse=True)))
                assert orbit.partition == expected
                assert comp in [q.composition for q in polarizations(orbit)]

    def test_unsupported_types(self):
        for t in [SimpleType("B", 2), SimpleType("C", 3), SimpleType("G", 2)]:
            with pytest.raises(UnsupportedType):
                richardson_partition(t, parabolic(t, (1,)))


class TestPolarizations:
    def test_examples(self):
        assert [q.composition for q in polarizations(parse_orbit("A3:2,1,1"))] \
            == [(1, 3), (3, 1)]
        assert [q.composition for q in polarizations(parse_orbit("A3:2,2"))] \
            == [(2, 2)]
        assert len(polarizations(parse_orbit("A5:3,2,1"))) == 6

    def test_count_is_multinomial_of_dual(self):
        for n in range(2, 8):
            t = SimpleType("A", n - 1)
            for part in partitions_of(n):
                if part == (1,) * n:
                    continue
                o = validate_orbit(t, part)
                assert len(polarizations(o)) == multinomial_of_dual(part)

    def test_dimension_match_invariant(self):
        for n in range(2, 7):
            t = SimpleType("A", n - 1)
            for part in partitions_of(n):
                if part == (1,) * n:
                    continue
                o = validate_orbit(t, part)
                for q in polarizations(o):
                    assert orbit_dimension(o) == 2 * flag_dimension(q.parabolic)
                    assert q.springer_degree == 1 and q.is_birational

    def test_sorted_lexicographically(self):
        comps = [q.composition for q in polarizations(parse_orbit("A5:3,2,1"))]
        assert comps == sorted(comps)

    def test_distinct_orderings_match_permutation_set(self, monkeypatch):
        # the enumeration must never walk all n! permutations
        def refuse(*args):
            raise AssertionError("factorial enumeration used")
        monkeypatch.setattr(resolutions, "permutations", refuse)
        for n in range(2, 9):
            t = SimpleType("A", n - 1)
            for part in partitions_of(n):
                if part == (1,) * n:
                    continue
                o = validate_orbit(t, part)
                expected = sorted(set(permutations(dual_partition(part))))
                assert [q.composition for q in polarizations(o)] == expected

    def test_regular_rank_eleven_has_one_polarization(self):
        pols = polarizations(parse_orbit("A11:12"))
        assert [q.composition for q in pols] == [(1,) * 12]

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbit):
            polarizations(parse_orbit("A3:1,1,1,1"))

    def test_non_a_minimal_is_definitively_empty(self):
        assert polarizations(parse_orbit("B3:2,2,1,1,1")) == []
        assert polarizations(parse_orbit("G2:dim6")) == []

    def test_non_a_regular_is_borel(self):
        pols = polarizations(parse_orbit("B2:5"))
        assert len(pols) == 1
        assert pols[0].parabolic.marked == (1, 2)
        assert pols[0].springer_degree == 1
        pols = polarizations(parse_orbit("G2:dim12"))
        assert pols[0].parabolic.marked == (1, 2)

    def test_unknown_cases_raise(self):
        with pytest.raises(UnknownClassification):
            polarizations(parse_orbit("G2:dim10"))
        with pytest.raises(UnknownClassification):
            polarizations(parse_orbit("B3:3,3,1"))


class TestEquivalence:
    def test_examples(self):
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((3, 1)))]
        assert cls == [(1, 3), (3, 1)]
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((2, 2)))]
        assert cls == [(2, 2)]
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((1, 2, 3)))]
        assert len(cls) == 6

    def test_is_an_equivalence_relation(self):
        for n in range(2, 6):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                p = parabolic_from_composition(comp)
                cls = equivalent_parabolics(p)
                assert p in cls  # reflexive
                for q in cls:   # symmetric + transitive: same class
                    assert equivalent_parabolics(q) == cls

    def test_against_permutation_reference(self):
        # the enumeration equivalent_parabolics used before it derived the
        # class from polarizations
        for n in range(2, 8):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                reference = [parabolic_from_composition(c)
                             for c in sorted(set(permutations(comp)))]
                assert equivalent_parabolics(
                    parabolic_from_composition(comp)) == reference

    def test_borel_is_alone_outside_type_a(self):
        t = SimpleType("B", 3)
        borel = parabolic(t, (1, 2, 3))
        assert equivalent_parabolics(borel) == [borel]

    def test_errors(self):
        with pytest.raises(EmptyMarking):
            equivalent_parabolics(parabolic(SimpleType("A", 3), ()))
        with pytest.raises(UnknownClassification):
            equivalent_parabolics(parabolic(SimpleType("B", 3), (1,)))


def reference_affine_flag(o):
    """The affine-closure flag as stated before it derived from the
    polarization list: type A always, the table's own key for E/F/G,
    the polarization list elsewhere."""
    if o.simple_type.family == "A":
        return True
    if o.is_exceptional:
        return exceptional_entry(o).admits_symplectic_resolution
    try:
        return bool(polarizations(o))
    except UnknownClassification:
        return None


def nonzero_orbits(t):
    total = {"A": t.rank + 1, "B": 2 * t.rank + 1,
             "C": 2 * t.rank, "D": 2 * t.rank}[t.family]
    for part in partitions_of(total):
        if all(p == 1 for p in part):
            continue
        try:
            validate_orbit(t, part)
        except InvalidPartition:
            continue
        tags = ("I", "II") if is_very_even(t, part) else (None,)
        for tag in tags:
            yield validate_orbit(t, part, very_even_tag=tag)


class TestAffineFlag:
    TYPES = ([SimpleType("A", n) for n in range(1, 7)]
             + [SimpleType(f, n) for f in "BC" for n in range(2, 5)]
             + [SimpleType("D", 4), SimpleType("D", 5)])

    @pytest.mark.parametrize("t", TYPES, ids=str)
    def test_classical_against_reference(self, t):
        for o in nonzero_orbits(t):
            rep = contact_resolution_exists(o, with_oracles=False)
            assert rep.affine_closure_admits_symplectic_resolution \
                == reference_affine_flag(o), o

    def test_table_entries_against_reference(self):
        for (family, rank, key), entry in sorted(exceptional_table().items()):
            if entry.dimension == 0:
                continue
            o = validate_orbit(SimpleType(family, rank), key)
            rep = contact_resolution_exists(o, with_oracles=False)
            assert rep.affine_closure_admits_symplectic_resolution \
                == reference_affine_flag(o), o


class TestTrichotomy:
    def test_minimal_type_a(self):
        r = contact_resolution_exists(parse_orbit("A2:2,1"))
        assert r.verdict == "SmoothAlready" and r.reason == "Minimal"
        assert r.affine_closure_admits_symplectic_resolution is True
        assert len(r.polarizations) == 2

    def test_generic_type_a(self):
        r = contact_resolution_exists(parse_orbit("A3:2,2"))
        assert r.verdict == "ContactResolutionsExist"
        assert r.reason == "SymplecticResolution"
        assert [q.composition for q in r.polarizations] == [(2, 2)]

    def test_g2_dim8(self):
        r = contact_resolution_exists(parse_orbit("G2:dim8"))
        assert r.verdict == "SmoothAlready" and r.reason == "G2dim8"
        assert r.affine_closure_admits_symplectic_resolution is False
        assert any("so_7" in note for note in r.notes)

    def test_b3_minimal_boundary_fixture(self):
        r = contact_resolution_exists(minimal_orbit_label(SimpleType("B", 3)))
        assert r.verdict == "SmoothAlready" and r.reason == "Minimal"
        assert r.affine_closure_admits_symplectic_resolution is False
        assert NOTE_MINIMAL_NON_A in r.notes
        assert r.polarizations == ()

    def test_unknown_is_a_verdict_not_an_error(self):
        r = contact_resolution_exists(parse_orbit("G2:dim10"))
        assert r.verdict == "Unknown" and r.reason == "Indeterminate"
        assert r.affine_closure_admits_symplectic_resolution is None

    def test_definitive_no_requires_table_say_so(self):
        # non-minimal, non-smooth cases with admits=false do not exist in
        # the shipped classical rules; classify cannot say NoContactResolution
        # without data, so unknown classical cases stay Unknown
        r = contact_resolution_exists(parse_orbit("B3:3,3,1"))
        assert r.verdict == "Unknown"

    def test_type_a_totality(self):
        for n in range(2, 8):
            t = SimpleType("A", n - 1)
            for part in partitions_of(n):
                if part == (1,) * n:
                    continue
                r = contact_resolution_exists(validate_orbit(t, part),
                                              with_oracles=False)
                assert r.verdict != "Unknown"
                assert r.resolution_exists
                assert r.polarizations

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbit):
            contact_resolution_exists(parse_orbit("A1:1,1"))

    def test_report_coherence(self):
        for text in ["A2:2,1", "A3:2,2", "A4:3,2", "G2:dim8", "G2:dim10",
                     "B2:2,2,1", "B2:5", "C3:2,2,2", "G2:dim12"]:
            r = contact_resolution_exists(parse_orbit(text),
                                          with_oracles=False)
            assert r.crepant_equals_contact_equals_minimal is True
            assert (r.verdict == "SmoothAlready") == \
                r.orbit.proj_normalization_smooth
            assert r.resolution_exists == (
                bool(r.polarizations) or r.reason in ("Minimal", "G2dim8"))
            assert r.canonical_bundle_exponent == r.orbit.dim_orbit // 2

    def test_oracle_block_agrees(self):
        r = contact_resolution_exists(parse_orbit("A3:2,2"), seed=5)
        assert r.oracle_checks
        assert all(c.agrees for c in r.oracle_checks)
        names = {c.oracle for c in r.oracle_checks}
        assert {"ad-rank", "kks-rank", "richardson-jordan-type",
                "springer-fiber-count"} <= names

    def test_regular_orbit_above_cone_cap(self):
        r = contact_resolution_exists(parse_orbit("A9:10"),
                                      with_oracles=False)
        assert r.verdict == "ContactResolutionsExist"
        assert [p.composition for p in r.polarizations] == [(1,) * 10]
        assert r.chamber_complex.chamber_count == 1
        rays = r.chamber_complex.chambers[0].ample.extreme_rays
        assert len(rays) == 9 and all(sorted(v) == [0] * 8 + [1] for v in rays)

    def test_chamber_complex_attached(self):
        r = contact_resolution_exists(parse_orbit("A3:2,1,1"),
                                      with_oracles=False)
        assert r.chamber_complex is not None
        assert r.chamber_complex.chamber_count == 2


class TestCanonicalDegree:
    def test_examples(self):
        assert canonical_degree_on_curve(2, 1) == -3
        assert canonical_degree_on_curve(7, 0) == 0
        assert canonical_degree_on_curve(3, 2) == -8

    def test_exact_rationals(self):
        assert canonical_degree_on_curve(1, Fraction(1, 2)) == -1
        assert canonical_degree_on_curve(4, Fraction(-2, 5)) == Fraction(2)

    def test_exceptional_classes_always_zero(self):
        for n in range(0, 9):
            assert canonical_degree_on_curve(n, 0) == 0


class TestTwistor:
    def test_examples(self):
        assert is_twistor_space(parse_parabolic("A3:{1}")) is True
        assert is_twistor_space(parse_parabolic("A3:{2}")) is False
        assert is_twistor_space(parse_parabolic("A3:{1,2}")) is False

    def test_polarizations_of_minimal_sl_n_are_twistor(self):
        # P(T*P^{n-1}) over the minimal orbit is the twistor case
        o = parse_orbit("A3:2,1,1")
        for q in polarizations(o):
            assert is_twistor_space(q.parabolic) is True
