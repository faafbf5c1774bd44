import hashlib
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from contactres import lie_core, resolutions
from contactres.cli import main
from contactres.errors import (
    ContactresError,
    EmptyMarking,
    SizeCapExceeded,
    UnknownClassification,
    UnsupportedType,
    ZeroOrbit,
)
from contactres.lie_core import (
    MAX_ROOT_SYSTEM_RANK,
    SimpleType,
    flag_dimension,
    is_projective_space,
    parabolic,
    parse_parabolic,
)
from contactres.orbits import (
    dual_partition,
    exceptional_table,
    minimal_orbit_label,
    orbit_dimension,
    orbits_of,
    parse_orbit,
    validate_orbit,
)
from contactres.report import resolution_report_dict
from contactres.resolutions import (
    NOTE_MINIMAL_NON_A,
    ample_cone,
    canonical_degree_on_curve,
    composition_from_marking,
    compositions_of,
    contact_resolution_exists,
    equivalent_parabolics,
    movable_chambers,
    polarizations,
    richardson_partition,
)


def nonzero_orbits(t):
    """The walk's classical orbits but the zero orbit, whose parts are 1."""
    return (o for o in orbits_of(t) if o.partition[0] > 1)


def multinomial_of_dual(part):
    dual = dual_partition(part)
    count = math.factorial(len(dual))
    for v in set(dual):
        count //= math.factorial(dual.count(v))
    return count


class TestCompositions:
    def test_marking_round_trip(self, parabolic_from_composition):
        for n in range(2, 7):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                p = parabolic_from_composition(comp)
                assert composition_from_marking(p) == comp

    def test_examples(self, parabolic_from_composition):
        assert parabolic_from_composition((1, 3)).marked == (1,)
        assert parabolic_from_composition((3, 1)).marked == (3,)
        assert parabolic_from_composition((1, 1, 1, 1)).marked == (1, 2, 3)


class TestRichardson:
    def test_examples(self, parabolic_from_composition):
        assert richardson_partition(
            parabolic_from_composition((1, 3))).partition == (2, 1, 1)
        assert richardson_partition(
            parabolic_from_composition((1, 1, 1, 1))).partition == (4,)
        assert richardson_partition(
            parabolic_from_composition((2, 2))).partition == (2, 2)

    def test_round_trip_law(self, parabolic_from_composition):
        for n in range(2, 7):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                orbit = richardson_partition(parabolic_from_composition(comp))
                expected = dual_partition(tuple(sorted(comp, reverse=True)))
                assert orbit.partition == expected
                assert comp in [q.composition for q in polarizations(orbit)]

    def test_unsupported_types(self):
        for t in [SimpleType("B", 2), SimpleType("C", 3), SimpleType("G", 2)]:
            with pytest.raises(UnsupportedType):
                richardson_partition(parabolic(t, (1,)))


class TestPolarizations:
    def test_examples(self):
        assert [q.composition for q in polarizations(parse_orbit("A3:2,1,1"))] \
            == [(1, 3), (3, 1)]
        assert [q.composition for q in polarizations(parse_orbit("A3:2,2"))] \
            == [(2, 2)]
        assert len(polarizations(parse_orbit("A5:3,2,1"))) == 6

    def test_count_is_multinomial_of_dual(self, type_a_orbits):
        for o in type_a_orbits(6):
            part = o.partition
            assert len(polarizations(o)) == multinomial_of_dual(part)
            assert resolutions.distinct_ordering_count(
                dual_partition(part)) == multinomial_of_dual(part)

    def test_dimension_match_invariant(self, type_a_orbits):
        for o in type_a_orbits(5):
            for q in polarizations(o):
                assert orbit_dimension(o) == 2 * flag_dimension(q.parabolic)
                assert q.flag_dimension == flag_dimension(q.parabolic)

    def test_sorted_lexicographically(self):
        comps = [q.composition for q in polarizations(parse_orbit("A5:3,2,1"))]
        assert comps == sorted(comps)

    def test_distinct_orderings_match_permutation_set(self, monkeypatch,
                                                      type_a_orbits):
        # the enumeration must never walk all n! permutations
        def refuse(*args):
            raise AssertionError("factorial enumeration used")
        monkeypatch.setattr(resolutions, "permutations", refuse)
        for o in type_a_orbits(7):
            expected = sorted(set(permutations(dual_partition(o.partition))))
            assert [q.composition for q in polarizations(o)] == expected

    def test_parabolics_are_cut_from_orderings(self, type_a_orbits,
                                               parabolic_from_composition):
        # markings cut without re-validation equal the validated recipe's
        for o in type_a_orbits(7):
            orderings = sorted(set(permutations(dual_partition(o.partition))))
            assert [q.parabolic for q in polarizations(o)] \
                == [parabolic_from_composition(c) for c in orderings]

    def test_regular_rank_eleven_has_one_polarization(self):
        pols = polarizations(parse_orbit("A11:12"))
        assert [q.composition for q in pols] == [(1,) * 12]

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbit):
            polarizations(parse_orbit("A3:1,1,1,1"))

    def test_over_cap_refused_before_enumeration(self, monkeypatch):
        def refuse(items):
            raise AssertionError("an over-cap orbit was enumerated")
        monkeypatch.setattr(resolutions, "_distinct_orderings", refuse)
        o = parse_orbit("A35:8,7,6,5,4,3,2,1")     # 8! orderings
        for answer in (polarizations, movable_chambers,
                       contact_resolution_exists):
            with pytest.raises(SizeCapExceeded):
                answer(o)

    def test_regular_over_rank_cap_builds_no_marking(self, monkeypatch):
        # the Borel's marking is as long as the rank, so the rank is
        # refused before it is built, in the words of the root system's cap
        lengths = []
        build = resolutions.parabolic
        monkeypatch.setattr(resolutions, "parabolic", lambda t, marked: (
            lengths.append(len(marked)) or build(t, marked)))
        with pytest.raises(SizeCapExceeded, match="^C1000000 has rank "
                           "1000000, over the root-system cap of 40$"):
            polarizations(parse_orbit("C1000000:2000000"))
        assert [n for n in lengths if n > MAX_ROOT_SYSTEM_RANK] == []

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(resolutions, "MAX_CHAMBERS", 6)
        assert len(polarizations(parse_orbit("A5:3,2,1"))) == 6
        with pytest.raises(SizeCapExceeded):
            polarizations(parse_orbit("A9:4,3,2,1"))   # 4! orderings

    def test_cap_admits_the_seven_step_staircase(self, monkeypatch):
        staircase = (7, 6, 5, 4, 3, 2, 1)
        assert dual_partition(staircase) == staircase
        assert resolutions.distinct_ordering_count(staircase) \
            == resolutions.MAX_CHAMBERS == math.factorial(7)
        walked = []
        monkeypatch.setattr(resolutions, "_distinct_orderings",
                            lambda items: walked.append(items) or ())
        assert polarizations(parse_orbit("A27:7,6,5,4,3,2,1")) == []
        assert walked == [staircase]

    def test_cap_enumeration_caches_nothing_per_parabolic(self, monkeypatch):
        # 5,040 polarizations, each checking dim O = 2 dim G/P; a flag
        # dimension is the bit count of the marked nodes' root bitsets,
        # so no root tuple is listed
        listed = []
        monkeypatch.setattr(lie_core, "_nilradical_roots",
                            lambda p: listed.append(p) or ())
        pols = polarizations(parse_orbit("A27:7,6,5,4,3,2,1"))
        assert len(pols) == resolutions.MAX_CHAMBERS
        assert listed == []

    def test_one_flag_dimension_per_polarization(self, monkeypatch):
        # the decision computes each flag dimension once, and the report
        # reads the stored values back
        calls = []
        monkeypatch.setattr(resolutions, "flag_dimension",
                            lambda p: calls.append(p) or flag_dimension(p))
        report = contact_resolution_exists(parse_orbit("A27:7,6,5,4,3,2,1"))
        resolution_report_dict(report, ())
        assert len(report.polarizations) == resolutions.MAX_CHAMBERS
        assert len(calls) == resolutions.MAX_CHAMBERS

    def test_one_orbit_dimension_per_decision(self, monkeypatch):
        # zero, minimal and every dim O = 2 dim G/P check read the one
        # orbit record, in each branch of the decision; the wall graph is
        # checked by a count, and the report holds one polarization tuple
        calls = []
        dimension = orbit_dimension
        for mod in list(sys.modules.values()):
            if getattr(mod, "orbit_dimension", None) is dimension:
                monkeypatch.setattr(mod, "orbit_dimension", lambda o: (
                    calls.append(o) or dimension(o)))
        reads = []
        connected = resolutions.ChamberComplex.is_connected
        monkeypatch.setattr(resolutions.ChamberComplex, "is_connected",
                            property(lambda cc: reads.append(cc)
                                     or connected.fget(cc)))
        complexes = []
        for text in ("A3:2,1,1", "A27:7,6,5,4,3,2,1", "B2:5", "B3:3,3,1",
                     "C3:2,1,1,1,1", "G2:dim8", "G2:dim12"):
            calls.clear()
            o = parse_orbit(text)
            report = contact_resolution_exists(o)
            resolution_report_dict(report, ())
            assert calls == [o]
            cc = report.chamber_complex
            if cc is not None:
                assert report.polarizations is cc.chambers
                assert movable_chambers(o) == cc
                complexes.append(text)
        assert complexes == ["A3:2,1,1", "A27:7,6,5,4,3,2,1", "B2:5",
                             "G2:dim12"]
        assert reads == []

    def test_label_is_the_composition_else_the_marking(self):
        a = polarizations(parse_orbit("A3:2,1,1"))
        assert [q.label for q in a] == [q.composition for q in a]
        assert all(q.composition is not None for q in a)
        for text in ("B2:5", "G2:dim12"):
            (q,) = polarizations(parse_orbit(text))
            assert q.composition is None
            assert q.label == q.parabolic.marked == (1, 2)

    def test_ample_is_the_cone_of_the_own_parabolic(self):
        for text in ("A3:2,1,1", "A4:3,1,1", "B2:5"):
            for q in polarizations(parse_orbit(text)):
                assert q.ample == ample_cone(q.parabolic)
                assert q.ample.ambient_dim == len(q.parabolic.marked)

    def test_non_a_minimal_is_definitively_empty(self):
        assert polarizations(parse_orbit("B3:2,2,1,1,1")) == []
        assert polarizations(parse_orbit("G2:dim6")) == []

    def test_non_a_regular_is_borel(self):
        pols = polarizations(parse_orbit("B2:5"))
        assert len(pols) == 1
        assert pols[0].parabolic.marked == (1, 2)
        pols = polarizations(parse_orbit("G2:dim12"))
        assert pols[0].parabolic.marked == (1, 2)

    def test_non_a_complex_of_two_chambers_is_refused(self):
        # the walls between chambers are curated in type A only; both
        # maximal parabolics of B2 have flag dimension 3, half of
        # dim B2:3,1,1
        t = SimpleType("B", 2)
        pair = [resolutions.Polarization(parabolic(t, (i,)), None, 3)
                for i in (1, 2)]
        with pytest.raises(UnknownClassification,
                           match="wall structure outside type A"):
            resolutions.chamber_complex_for(parse_orbit("B2:3,1,1"), pair)
        one = resolutions.chamber_complex_for(parse_orbit("B2:3,1,1"),
                                              pair[:1])
        assert one.chambers == (pair[0],) and one.walls == ()

    def test_unknown_cases_raise(self):
        with pytest.raises(UnknownClassification):
            polarizations(parse_orbit("G2:dim10"))
        with pytest.raises(UnknownClassification):
            polarizations(parse_orbit("B3:3,3,1"))


class TestEquivalence:
    def test_examples(self, parabolic_from_composition):
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((3, 1)))]
        assert cls == [(1, 3), (3, 1)]
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((2, 2)))]
        assert cls == [(2, 2)]
        cls = [composition_from_marking(q) for q in
               equivalent_parabolics(parabolic_from_composition((1, 2, 3)))]
        assert len(cls) == 6

    def test_is_an_equivalence_relation(self, parabolic_from_composition):
        for n in range(2, 6):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                p = parabolic_from_composition(comp)
                cls = equivalent_parabolics(p)
                assert p in cls  # reflexive
                for q in cls:   # symmetric + transitive: same class
                    assert equivalent_parabolics(q) == cls

    def test_against_permutation_reference(self, parabolic_from_composition):
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


# Each table orbit's answer as it stood while the table still stated the
# resolution facts that the decision now derives: (verdict, reason,
# affine-closure flag, polarization markings, notes); None for a zero
# orbit, which has no report.
MINIMAL = ("minimal orbit",)
REGULAR = ("regular orbit; closure is the nilpotent cone",)
G2_DIM6_NOTE = ("minimal orbit; the punctured closure is smooth but the "
                "affine closure has no symplectic resolution")
G2_DIM8_NOTE = ("punctured closure W0 is singular; its normalization is the "
                "minimal nilpotent orbit closure of so_7, which is smooth and "
                "symplectic, and that resolution of W0 does not extend over "
                "the origin")
EXISTS = ("ContactResolutionsExist", "SymplecticResolution", True)
TABLE_ANSWERS = {
    "G2:dim0": None,
    "G2:dim6": ("SmoothAlready", "Minimal", False, (), (G2_DIM6_NOTE,)),
    "G2:dim8": ("SmoothAlready", "G2dim8", False, (), (G2_DIM8_NOTE,)),
    "G2:dim10": ("Unknown", "Indeterminate", None, (), ()),
    "G2:dim12": (*EXISTS, ((1, 2),), REGULAR),
    "F4:dim0": None,
    "F4:dim16": ("SmoothAlready", "Minimal", False, (), MINIMAL),
    "F4:dim48": (*EXISTS, ((1, 2, 3, 4),), REGULAR),
    "E6:dim0": None,
    "E6:dim22": ("SmoothAlready", "Minimal", False, (), MINIMAL),
    "E6:dim72": (*EXISTS, ((1, 2, 3, 4, 5, 6),), REGULAR),
    "E7:dim0": None,
    "E7:dim34": ("SmoothAlready", "Minimal", False, (), MINIMAL),
    "E7:dim126": (*EXISTS, ((1, 2, 3, 4, 5, 6, 7),), REGULAR),
    "E8:dim0": None,
    "E8:dim58": ("SmoothAlready", "Minimal", False, (), MINIMAL),
    "E8:dim240": (*EXISTS, ((1, 2, 3, 4, 5, 6, 7, 8),), REGULAR),
}

# sha256 of ``COMMAND ORBIT --json`` for every table orbit, from the same
# tree. ``polarizations`` and ``chambers`` of G2:dim10 are left out: their
# error message now has the classical wording.
TABLE_DIGESTS = {
    "classify G2:dim0":
        "c000eb69e727ac457de7716d83b417b63bcaa0edc6b602f379bddc3c3888f8a4",
    "polarizations G2:dim0":
        "c82bb2a61d2617864a06abe01fcf20ba376b8672b564210ae4b6a5f508b4ea54",
    "chambers G2:dim0":
        "ea05f32abf060de378f4daca0e89c8e28fcb40f2bc16cec7687dd78c7ac54cec",
    "classify G2:dim6":
        "738da6b18aa81a259412bdf2b4de3752c3d273bde66ab98bb56f10dfa171f432",
    "polarizations G2:dim6":
        "d86b592cdb4e293717f36d7d80dbf28ed1b6348869f03a24539af537f8f0b505",
    "chambers G2:dim6":
        "8b7f50dd4f43a619ecd964f76d11946390f8d3732855842775ba8e28d932b26d",
    "classify G2:dim8":
        "bd369d0378939ebe87d8433b0cca06780eb580419b1a8d8a57c6df3b92a933e4",
    "polarizations G2:dim8":
        "332ab711e096662231dda7f9e8b4d2f07b524365408df8f63cafbef7519709b8",
    "chambers G2:dim8":
        "12e57970d7982ebdae425bbdf0611c33614ba77fd2cb03d092dffd9acdec18e8",
    "classify G2:dim10":
        "45f338da883ad11e759bca1757e6ac51ccbb3476f594b729ab2834eb20e6e8fd",
    "classify G2:dim12":
        "7718b6946acb357bd817e31101fee88a261b97af3a3ea33b7d60dda24d51309a",
    "polarizations G2:dim12":
        "8be67c4ed7f10260242bb8536bca15927e527a8e6168f4c96c33ef5006b7e274",
    "chambers G2:dim12":
        "ed84224e66e782d45f6466f9237f0a0977adcb9250e6dee6a78b7fbdcb6eeebe",
    "classify F4:dim0":
        "69eec20cd02dd9dc757fab667bd9300c389a68f7ce94a77bd500a36640ef300c",
    "polarizations F4:dim0":
        "179eebaf677f9d6402fd218ea90a363142f0c95be6c5efce7d280ff379af3926",
    "chambers F4:dim0":
        "2324a0dc4878b11176bf2f6bc58cb23d3cc018f6cdd1cee11cde9ac56e49bcd5",
    "classify F4:dim16":
        "7c02966dcc3df1876036cffe3e5800dbede087edea01cb9c3cf4be259d469330",
    "polarizations F4:dim16":
        "8d9efc934c5cf2ce8c6c86c6c1acf3713524f2c780d10de2466bc4d3318a3d2c",
    "chambers F4:dim16":
        "ec80cc6d3c437e7a0117a5ca0214d55bc7874ee91733e015e335f3ae83693ba9",
    "classify F4:dim48":
        "62de58c45316767cf96cefa52af6c50d7c5a1ff78905478ea5e7f025a878e05b",
    "polarizations F4:dim48":
        "4c07d457a3db448710103fe15983dcb77fdb4845e705ae7a5b85de93228b156e",
    "chambers F4:dim48":
        "1513c76448f3e07f63d61681eb25918722a75b55ca932c2c526d644c28da3979",
    "classify E6:dim0":
        "ab979eb487dc00cfb70f2f47568d8c4820079b371b1b602dd8081dd02d5d0a19",
    "polarizations E6:dim0":
        "fd60b987cac2d40e89094095fea6cb107e4f3de38fe4295a3b01ebb514bdc385",
    "chambers E6:dim0":
        "3319f287d40ed5b5df47364e77abc7aad71b3ca5a5c371ad907cb53a0609ea2b",
    "classify E6:dim22":
        "70b8172ccb8b5a9f4bcb5905da086e8c5078cc1d3873d10a236c0359bd825ed4",
    "polarizations E6:dim22":
        "cc9417cc6c7b053df5db70d0ba663dea2105c883c39ad181bc0fe7f05b942100",
    "chambers E6:dim22":
        "b51a8f706cac2baa9a73935be8795f5e8396c05bd859e98d02ae31dd8dde18bf",
    "classify E6:dim72":
        "7e94bf801a4e5b2a3005d891735b7ecb3df467bea9f611c951c93bf394a90ffe",
    "polarizations E6:dim72":
        "2d5aed2f837cd447758f71132aaaa6f5980b744e3da817c74a9e9a3a51a121e4",
    "chambers E6:dim72":
        "c138ac242566b857d26fad47ab8188e04749d623ba4852e49dd42fadd50e6680",
    "classify E7:dim0":
        "4e40eefee8d28a92e994849e4ff7440cb118103d5813889f1bd8a5ec7b20826c",
    "polarizations E7:dim0":
        "b40f6ed78e697a7ab9e26771fea379167afbc46a9004dc21e18b88d30f35a477",
    "chambers E7:dim0":
        "aa05be576c8f51e251086b44dd03704488ee5ac9fdeb06ba43aa3151025bed99",
    "classify E7:dim34":
        "e3ef94317cfcbd38e4bc5347c150ebc9ae4bfc7ca9b712e423611555c3c4d71b",
    "polarizations E7:dim34":
        "6568cf1ae2513e88671970b6806a91007d77c9ff7457750ee5da2fff51f5ea2a",
    "chambers E7:dim34":
        "f5e3ff37780901fddd4dffa9372a9fa1b9703814ac82bcf10d8de950c1c4f069",
    "classify E7:dim126":
        "0876d62d1afe050d21555f362252de0526de246abd9905acab336308c6468fb1",
    "polarizations E7:dim126":
        "c005302b426ab7d45baac965c621b391ec329d88b83d76486fe5f18d27e32095",
    "chambers E7:dim126":
        "f3085cb96a3865436c922493a83f5f336bd16bb40671052e1c3c0733c376e64e",
    "classify E8:dim0":
        "81a1ba04221fd416902a3000583b93a9338d61b2f56f0addf006a38c60c493dd",
    "polarizations E8:dim0":
        "14e9c85d3e0de9765f9afe93a3d1e43912be5b9be2eee44c9860c8d9305c68c5",
    "chambers E8:dim0":
        "5780db503e14e12c2676f1b35b15461932a6c6405d19a62194cf7f56d7fb5669",
    "classify E8:dim58":
        "e68cb34fc80d5e4f78a1b0256f4d402d908b9df89f44892a7b50de6689039f11",
    "polarizations E8:dim58":
        "d832e4b40f6495c6e66bb564669cf96081553732f813c5278402dfd9818411d6",
    "chambers E8:dim58":
        "452ea5911fb7bb6237eca3fa3988cb9f728459834d853152298ece53326898d2",
    "classify E8:dim240":
        "2583a760c959bcc875fc1d3d30803fb82934b8f8befaea350bc1c4acff1a26dc",
    "polarizations E8:dim240":
        "1cd94c3245a23bcdf4a434bf0a37f004c6e6b3ae6ab27effd8048bd48df42d1b",
    "chambers E8:dim240":
        "f055a4443f22e518d14dc1e56eb4967514fddf1f12e5d7d590967bbfaf1059fb",
}


class TestTableOrbits:
    """Every table orbit is decided by the rules that decide B-D: its
    report and its documents are the ones pinned above."""

    @pytest.mark.parametrize("label", TABLE_ANSWERS)
    def test_answer_pinned(self, label):
        o = parse_orbit(label)
        if TABLE_ANSWERS[label] is None:
            with pytest.raises(ZeroOrbit):
                contact_resolution_exists(o)
            return
        r = contact_resolution_exists(o)
        assert (r.verdict, r.reason,
                r.affine_closure_admits_symplectic_resolution,
                tuple(p.parabolic.marked for p in r.polarizations),
                r.notes) == TABLE_ANSWERS[label]

    def test_every_table_orbit_is_pinned(self):
        assert sorted(TABLE_ANSWERS) == sorted(
            f"{f}{r}:{key}" for f, r, key in exceptional_table())

    @pytest.mark.parametrize("command", TABLE_DIGESTS)
    def test_json_bytes_pinned(self, capsys, command):
        main([*command.split(), "--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            TABLE_DIGESTS[command]


def reference_affine_flag(o):
    """The affine-closure flag as stated before it derived from the
    polarization list: type A always, the pinned answer for E/F/G, the
    polarization list elsewhere."""
    if o.simple_type.family == "A":
        return True
    if o.is_exceptional:
        return TABLE_ANSWERS[str(o)][2]
    try:
        return bool(polarizations(o))
    except UnknownClassification:
        return None


class TestAffineFlag:
    TYPES = ([SimpleType("A", n) for n in range(1, 7)]
             + [SimpleType(f, n) for f in "BC" for n in range(2, 5)]
             + [SimpleType("D", 4), SimpleType("D", 5)])

    @pytest.mark.parametrize("t", TYPES, ids=str)
    def test_classical_against_reference(self, t):
        for o in nonzero_orbits(t):
            rep = contact_resolution_exists(o)
            assert rep.affine_closure_admits_symplectic_resolution \
                == reference_affine_flag(o), o

    def test_table_entries_against_reference(self):
        types = sorted({SimpleType(f, r) for f, r, _ in exceptional_table()})
        for o in (o for t in types for o in orbits_of(t)):
            if orbit_dimension(o) == 0:
                continue
            rep = contact_resolution_exists(o)
            assert rep.affine_closure_admits_symplectic_resolution \
                == reference_affine_flag(o), o


class TestDecisionCensus:
    """How many orbits the decision procedure decides: every nonzero
    orbit of A1-A8, B2-B8, C2-C8 and D4-D8 (a very-even partition once
    per tag) and every table orbit. A change that moves a count edits
    this pin and lists the moved orbits in CHANGES.md."""

    RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9),
             "D": range(4, 9)}

    @pytest.mark.parametrize("family, counts", [
        ("A", {"ContactResolutionsExist": 79, "SmoothAlready": 8}),
        ("B", {"ContactResolutionsExist": 7, "Unknown": 200,
               "SmoothAlready": 7}),
        ("C", {"ContactResolutionsExist": 7, "Unknown": 233,
               "SmoothAlready": 7}),
        ("D", {"ContactResolutionsExist": 5, "Unknown": 162,
               "SmoothAlready": 5})])
    def test_classical_verdict_counts(self, family, counts):
        verdicts = Counter(
            contact_resolution_exists(o).verdict
            for rank in self.RANKS[family]
            for o in nonzero_orbits(SimpleType(family, rank)))
        assert verdicts == counts

    def test_table_verdict_counts(self):
        verdicts, unknown = Counter(), []
        for family, rank, key in sorted(exceptional_table()):
            o = validate_orbit(SimpleType(family, rank), key)
            try:
                verdict = contact_resolution_exists(o).verdict
            except ZeroOrbit:
                verdict = "ZeroOrbit"
            verdicts[verdict] += 1
            if verdict == "Unknown":
                unknown.append(str(o))
        assert verdicts == {"ContactResolutionsExist": 5, "SmoothAlready": 6,
                            "Unknown": 1, "ZeroOrbit": 5}
        assert unknown == ["G2:dim10"]

    # sha256 of repr(rows), one row per orbit counted above, in the same
    # order: (label, verdict, reason, sorted polarization markings). Two
    # swapped verdicts or a changed polarization list move no count, but
    # they move this digest.
    ROW_DIGESTS = {
        "A":
            "97c3e24ae54f0fa736225682511c7c3f0ae640538b4e5e756bfd7ffadb42a4b7",
        "B":
            "7f9a45d47560c96f0dd049e43b9b8d5aa907306a3c2e9a6d3bf8d0208e2839d7",
        "C":
            "9019b4f84e0fd701379a082759598679911e4adbc8b3fcd0686fabe6d1b86f35",
        "D":
            "43afe04f5ac1efdca0703aab18ee8a320732cedde26964a0476d8d2c1c1c792f",
        "table":
            "72525fd1d5fafc9481f74d32c9f63b43157dc5321e926fa2148a630b4315bacd",
    }

    def census_rows(self, family):
        if family == "table":
            orbits = [validate_orbit(SimpleType(f, rank), key)
                      for f, rank, key in sorted(exceptional_table())]
        else:
            orbits = [o for rank in self.RANKS[family]
                      for o in nonzero_orbits(SimpleType(family, rank))]
        rows = []
        for o in orbits:
            try:
                r = contact_resolution_exists(o)
            except ZeroOrbit:
                rows.append((str(o), "ZeroOrbit", None, []))
                continue
            rows.append((str(o), r.verdict, r.reason,
                         sorted([q.parabolic.marked for q in r.polarizations])))
        return rows

    @pytest.mark.parametrize("family", [*RANKS, "table"])
    def test_orbit_rows(self, family):
        rows = self.census_rows(family)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.ROW_DIGESTS[family]


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

    def test_d3_minimal_has_no_false_no(self):
        # so_6 = sl_4 and D3:2,2,1,1 is A3:2,1,1, whose closure has two
        # polarizations: the non-A minimal rule leaves D3 out
        o = parse_orbit("D3:2,2,1,1")
        with pytest.raises(UnknownClassification):
            polarizations(o)
        r = contact_resolution_exists(o)
        assert r.verdict == "SmoothAlready" and r.reason == "Minimal"
        assert r.affine_closure_admits_symplectic_resolution is None
        assert r.notes == ()

    def test_unknown_is_a_verdict_not_an_error(self):
        r = contact_resolution_exists(parse_orbit("G2:dim10"))
        assert r.verdict == "Unknown" and r.reason == "Indeterminate"
        assert r.affine_closure_admits_symplectic_resolution is None

    def test_definitive_no_requires_table_say_so(self):
        # no rule says "no" of an orbit whose projectivised normalization
        # is not smooth, so the cases no rule decides stay Unknown
        r = contact_resolution_exists(parse_orbit("B3:3,3,1"))
        assert r.verdict == "Unknown"

    def test_type_a_totality(self, type_a_orbits):
        for o in type_a_orbits(6):
            r = contact_resolution_exists(o)
            assert r.verdict != "Unknown"
            assert r.resolution_exists
            assert r.polarizations

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbit):
            contact_resolution_exists(parse_orbit("A1:1,1"))

    def test_report_coherence(self):
        for text in ["A2:2,1", "A3:2,2", "A4:3,2", "G2:dim8", "G2:dim10",
                     "B2:2,2,1", "B2:5", "C3:2,2,2", "G2:dim12"]:
            r = contact_resolution_exists(parse_orbit(text))
            assert (r.verdict == "SmoothAlready") == \
                r.orbit.proj_normalization_smooth
            assert r.resolution_exists == (
                bool(r.polarizations) or r.reason in ("Minimal", "G2dim8"))
            assert r.orbit.canonical_bundle_exponent == r.orbit.dim_orbit // 2

    def test_regular_orbit_above_cone_cap(self):
        r = contact_resolution_exists(parse_orbit("A9:10"))
        assert r.verdict == "ContactResolutionsExist"
        assert [p.composition for p in r.polarizations] == [(1,) * 10]
        assert r.chamber_complex.chamber_count == 1
        rays = r.chamber_complex.chambers[0].ample.extreme_rays
        assert len(rays) == 9 and all(sorted(v) == [0] * 8 + [1] for v in rays)

    def test_chamber_complex_attached(self):
        r = contact_resolution_exists(parse_orbit("A3:2,1,1"))
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

    def test_float_refused(self):
        with pytest.raises(TypeError, match="float 0.1 is not exact"):
            canonical_degree_on_curve(2, 0.1)

    def test_negative_contact_dimension_refused(self):
        with pytest.raises(ContactresError, match="must be nonnegative"):
            canonical_degree_on_curve(-1, 1)

    def test_exceptional_classes_always_zero(self):
        for n in range(0, 9):
            assert canonical_degree_on_curve(n, 0) == 0


class TestTwistor:
    def test_examples(self):
        assert is_projective_space(parse_parabolic("A3:{1}")) is True
        assert is_projective_space(parse_parabolic("A3:{2}")) is False
        assert is_projective_space(parse_parabolic("A3:{1,2}")) is False

    def test_polarizations_of_minimal_sl_n_are_twistor(self):
        # P(T*P^{n-1}) over the minimal orbit is the twistor case
        o = parse_orbit("A3:2,1,1")
        for q in polarizations(o):
            assert is_projective_space(q.parabolic) is True
