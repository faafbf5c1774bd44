import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from contactres.errors import (
    DimensionMismatch,
    EmptyMarking,
    NoPolarization,
    SizeCapExceeded,
    ZeroOrbit,
)
from contactres import cones, resolutions
from contactres.cones import (
    MAX_AMBIENT_DIM,
    _polar_rays,
    cone_from_generators,
    dual_cone,
)
from contactres.lie_core import (
    MAX_ROOT_SYSTEM_RANK,
    SimpleType,
    parabolic,
    parse_parabolic,
)
from contactres.orbits import parse_orbit
from contactres.ratlinalg import dot, nullspace, primitive, rref
from contactres.resolutions import _orthant, ample_cone, movable_chambers


def reference_polar_rays(constraints, dim):
    """The naive polar pass, kept as the oracle for ``cones._polar_rays``.

    Candidate rays are nullspaces of (d-1)-subsets of the constraint rows
    and of the +/- lineality vectors, kept when they clear every row.
    """
    constraints = [primitive(c) for c in constraints]
    constraints = [c for c in constraints if any(c)]
    identity = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    kernel = nullspace(constraints) if constraints else identity
    lineality = tuple(map(tuple, rref(kernel)[0]))
    rows = list(dict.fromkeys(constraints))
    for vec in lineality:
        rows.append(vec)
        rows.append(tuple(-x for x in vec))
    if dim == 1:
        candidates = [(1,)]
    else:
        candidates = []
        for subset in combinations(rows, dim - 1):
            kernel = nullspace(list(subset))
            if len(kernel) == 1:
                candidates.append(kernel[0])
    rays = set()
    for cand in candidates:
        signs = [dot(row, cand) for row in rows]
        if all(s == 0 for s in signs):
            continue  # lineality direction, carried separately
        if all(s >= 0 for s in signs):
            rays.add(primitive(cand))
        elif all(s <= 0 for s in signs):
            rays.add(primitive([-x for x in cand]))
    return tuple(sorted(rays)), lineality


class TestCanonicalForm:
    def test_interior_generator_dropped(self):
        c = cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
        assert c.extreme_rays == ((0, 1), (1, 0))
        assert c.lineality_basis == ()

    def test_primitive_scaling(self):
        c = cone_from_generators(2, [(2, 0)])
        assert c.extreme_rays == ((1, 0),)
        c = cone_from_generators(3, [(4, 6, 2)])
        assert c.extreme_rays == ((2, 3, 1),)

    def test_simplicial_coordinate_cone(self):
        c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert c.extreme_rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert c.is_simplicial

    def test_opposite_rays_become_lineality(self):
        c = cone_from_generators(2, [(1, 0), (-1, 0)])
        assert c.extreme_rays == ()
        assert c.lineality_basis == ((1, 0),)

    def test_facets_are_the_dual_generators(self):
        # each constructor states the facets it holds: the canonical
        # generators of the dual, so equal cones have equal facets
        c = cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
        for cone in (c, dual_cone(c), cone_from_generators(2, [(1, 0)]),
                     ample_cone(parse_parabolic("A3:{1,3}"))):
            assert cone.facet_normals == dual_cone(cone).generators

    def test_no_attribute_beside_the_fields(self):
        c = cone_from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(AttributeError):
            c._facets = ((-1, 0),)
        with pytest.raises(AttributeError):
            c.note = "x"
        assert c.contains((1, 1)) and not hasattr(c, "__dict__")

    def test_zero_cone(self):
        c = cone_from_generators(3, [(0, 0, 0)])
        assert c.extreme_rays == () and c.lineality_basis == ()

    def test_rational_input(self):
        from fractions import Fraction
        c = cone_from_generators(2, [(Fraction(1, 2), Fraction(1, 3))])
        assert c.extreme_rays == ((3, 2),)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            cone_from_generators(2, [(1, 0, 0)])
        with pytest.raises(DimensionMismatch, match="must be positive"):
            cone_from_generators(0, [])
        with pytest.raises(SizeCapExceeded):
            cone_from_generators(9, [tuple([1] + [0] * 8)])


class TestDuality:
    def test_first_quadrant_self_dual(self):
        c = cone_from_generators(2, [(1, 0), (0, 1)])
        assert dual_cone(c) == c

    def test_ray_dualizes_to_halfplane(self):
        ray = cone_from_generators(2, [(1, 0)])
        half = dual_cone(ray)
        assert half.extreme_rays == ((1, 0),)
        assert half.lineality_basis == ((0, 1),)
        assert set(half.generators) == {(1, 0), (0, 1), (0, -1)}

    def test_curve_cone_dualizes_to_weight_cone(self):
        # identity pairing: the dual of the Schubert-curve coordinate cone
        # is the coordinate cone on the weight basis
        for k in (1, 2, 3, 4):
            ne = cone_from_generators(
                k, [tuple(int(i == j) for j in range(k)) for i in range(k)])
            assert dual_cone(ne) == ne

    def test_double_dual_is_identity(self):
        cones = [
            cone_from_generators(2, [(1, 0)]),
            cone_from_generators(2, [(1, 1), (1, -1)]),
            cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
            cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
            cone_from_generators(1, [(1,)]),
        ]
        for c in cones:
            assert dual_cone(dual_cone(c)) == c

    def test_facets_support_generators(self):
        c = cone_from_generators(3, [(1, 2, 0), (0, 1, 1), (1, 0, 3)])
        from contactres.ratlinalg import dot
        for h in c.facet_normals:
            assert all(dot(h, g) >= 0 for g in c.generators)

    def test_contains(self):
        c = cone_from_generators(2, [(1, 0), (1, 2)])
        assert c.contains((1, 1)) and c.contains((0, 0))
        assert not c.contains((0, 1)) and not c.contains((-1, 0))
        assert c.contains((F(1, 2), F(1, 3))) and not c.contains((F(-1, 9), 1))
        with pytest.raises(DimensionMismatch,
                           match="vector of length 3 in dim 2"):
            c.contains((1, 1, 1))

    def test_floats_refused(self):
        with pytest.raises(TypeError, match="float 0.1 is not exact"):
            cone_from_generators(2, [(0.1, 1), (1, 0)])
        with pytest.raises(TypeError, match="float 0.5 is not exact"):
            cone_from_generators(2, [(1, 0), (1, 2)]).contains((0.5, 1))


class TestOneDoor:
    """``cone_from_generators`` normalizes each outside vector once; the
    polar pass takes canonical generators as they are."""

    def test_one_primitive_call_per_outside_vector(self, monkeypatch):
        calls = []

        def counting(vec):
            calls.append(vec)
            return primitive(vec)

        # the door lives in cones, ``contains`` beside the record
        monkeypatch.setattr(cones, "primitive", counting)
        monkeypatch.setattr(resolutions, "primitive", counting)
        c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                     (1, 1, 1), (0, 0, 0), (2, 0, 0)])
        assert len(calls) == 6
        calls.clear()
        dual_cone(c)
        assert calls == []
        assert c.contains((1, 2, 3)) and len(calls) == 1

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_same_cone_for_any_presentation(self, dim, data):
        # shuffled, scaled by positive ints and Fractions, with repeats
        # and zero vectors: the same cone; a float anywhere is refused
        gens = data.draw(st.lists(
            st.tuples(*([st.integers(min_value=-3, max_value=3)] * dim)),
            min_size=1, max_size=dim + 2))
        c = cone_from_generators(dim, gens)
        scales = st.one_of(st.integers(min_value=1, max_value=6), st.builds(
            F, st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6)))
        moved = [tuple(k * x for x in g)
                 for g, k in zip(gens, data.draw(st.lists(
                     scales, min_size=len(gens), max_size=len(gens))))]
        moved += data.draw(st.lists(st.sampled_from(gens), max_size=3))
        moved += [(0,) * dim] * data.draw(st.integers(0, 2))
        shuffled = data.draw(st.permutations(moved))
        assert cone_from_generators(dim, shuffled) == c
        i = data.draw(st.integers(0, len(moved) - 1))
        j = data.draw(st.integers(0, dim - 1))
        floated = [list(g) for g in moved]
        floated[i][j] = float(floated[i][j])
        with pytest.raises(TypeError, match="is not exact"):
            cone_from_generators(dim, floated)


class TestReferencePolarRays:
    """Incremental double description against the subset enumeration."""

    @staticmethod
    def seeded_inputs():
        rng = random.Random("test-polar")
        yield from ((dim, []) for dim in range(1, 7))
        yield 3, [(0, 0, 0), (0, 0, 0)]
        for _ in range(400):
            dim = rng.randint(1, 5)
            bound = rng.choice([1, 1, 2, 4])
            rows = [tuple(rng.randint(-bound, bound) for _ in range(dim))
                    for _ in range(rng.randint(1, dim + 3))]
            if rng.random() < 0.3:
                rows.append(tuple([0] * dim))
            if rng.random() < 0.3:
                rows.append(rows[0])  # duplicate
            if rng.random() < 0.3:
                rows.append(tuple(3 * x for x in rows[0]))  # same direction
            if rng.random() < 0.3:
                rows.append(tuple(-x for x in rows[-1]))  # opposite pair
            if rng.random() < 0.3 and dim > 1:
                # rank-deficient: every row has a zero last coordinate
                rows = [r[:-1] + (0,) for r in rows]
            yield dim, rows
        rng = random.Random("test-polar-6")
        for _ in range(40):
            bound = rng.choice([1, 2])
            yield 6, [tuple(rng.randint(-bound, bound) for _ in range(6))
                      for _ in range(rng.randint(3, 9))]

    def test_matches_reference(self):
        for dim, rows in self.seeded_inputs():
            assert _polar_rays(rows, dim) == reference_polar_rays(rows, dim)

    @staticmethod
    def simple_inputs():
        """Cones over polytopes whose adjacent rays share exactly d - 2 zero
        constraints, the least the adjacency prefilter admits. Given by
        its vertices, a polytope's rays are its facets, and adjacent ones
        meet in a ridge of d - 2 vertices: a vertex of a polygon, an edge
        of a prism, a triangle of a product of two triangles. Given by its
        facets, a cube's rays are its vertices, each on d - 1 facets."""
        polygons = [
            [(0, 0), (1, 0), (0, 1)],
            [(0, 0), (2, 0), (2, 1), (0, 1)],
            [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)],
            [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)],
        ]
        for poly in polygons:
            yield 3, [(1,) + v for v in poly]
            yield 4, [(1,) + v + (t,) for t in (0, 1) for v in poly]
        for k in (3, 4, 5):
            units = [tuple(int(i == j) for j in range(k + 1))
                     for i in range(k + 1)]
            yield k + 1, units[1:] + [tuple(x - y for x, y in zip(units[0], u))
                                      for u in units[1:]]
        triangle = [(0, 0), (1, 0), (0, 1)]
        yield 5, [(1,) + u + v for u in triangle for v in triangle]

    def degenerate_inputs(self):
        """The simple inputs, their polars where the reference stays
        cheap, the same shuffled, and each embedded with a sheared
        two-dimensional lineality."""
        rng = random.Random("test-polar-simple")
        for dim, rows in self.simple_inputs():
            yield dim, rows
            if len(rows) <= 9:
                yield dim, list(reference_polar_rays(rows, dim)[0])
            yield dim, rng.sample(rows, len(rows))
            if dim <= 4:
                # c -> c U for a unimodular U: the lineality (the kernel)
                # is the image under U^-1 of the padded coordinates
                big = dim + 2
                shear = [[int(i == j) or (j > i) * rng.randint(-2, 2)
                          for j in range(big)] for i in range(big)]
                padded = [tuple(r) + (0, 0) for r in rows]
                yield big, [tuple(dot(r, col) for col in zip(*shear))
                            for r in padded]

    def test_degenerate_families_match_reference(self):
        for dim, rows in self.degenerate_inputs():
            assert _polar_rays(rows, dim) == reference_polar_rays(rows, dim)

    @staticmethod
    def kernel_inputs():
        """Constraints of rank r < dim whose kernel, the lineality, is a
        seeded integer subspace of dimension 1-3 rather than a coordinate
        axis; a pass with rays among them reruns inside the row space."""
        rng = random.Random("test-polar-kernel")

        def draw(rows_of, r):
            while True:
                rows = rows_of()
                if len(rref(rows)[0]) == r:
                    return rows

        for _ in range(80):
            dim = rng.randint(2, 6)
            k = rng.randint(1, min(3, dim - 1))
            kernel = draw(lambda: [tuple(rng.randint(-3, 3)
                                         for _ in range(dim))
                                   for _ in range(k)], k)
            normals = nullspace(kernel)  # a basis of the row space W
            rows = draw(lambda: [
                tuple(map(sum, zip(*[[c * x for x in v] for c, v in zip(
                    [rng.randint(-2, 2) for _ in normals], normals)])))
                for _ in range(rng.randint(dim - k, dim + 1))], dim - k)
            yield dim, rows, kernel

    def test_non_axis_kernels_match_reference(self):
        with_rays = 0
        for dim, rows, kernel in self.kernel_inputs():
            rays, lineality = _polar_rays(rows, dim)
            assert (rays, lineality) == reference_polar_rays(rows, dim)
            assert lineality == tuple(map(tuple, rref(kernel)[0]))
            with_rays += bool(rays)
        assert with_rays >= 40

    def test_examples(self):
        # the orthant, a half-plane and the whole space
        assert _polar_rays([(1, 0), (0, 1)], 2) == (((0, 1), (1, 0)), ())
        assert _polar_rays([(1, 0)], 2) == (((1, 0),), ((0, 1),))
        assert _polar_rays([], 2) == ((), ((1, 0), (0, 1)))
        assert _polar_rays([(1,), (-1,)], 1) == ((), ())


class TestEliminationCount:
    """A polar pass whose constraints span R^dim eliminates nothing; with a
    lineality left it eliminates that and the constraints, at most once
    each."""

    def test_no_elimination_at_full_rank(self, eliminations):
        rng = random.Random("test-polar-eliminations")
        for dim in range(1, 7):
            units = [tuple(int(i == j) for j in range(dim))
                     for i in range(dim)]
            rows = units + [tuple(rng.randint(-3, 3) for _ in range(dim))
                            for _ in range(3)]
            eliminations.clear()
            _polar_rays(rows, dim)
            assert len(eliminations) == 0

    def test_at_most_two_with_lineality(self, eliminations):
        for rows, dim in [([(1, 0, 0), (1, 1, 0)], 3), ([(1, 2, 3)], 3),
                          ([(0, 0, 0)], 3), ([], 4)]:
            eliminations.clear()
            assert _polar_rays(rows, dim)[1]
            assert len(eliminations) <= 2


class TestCapDimensions:
    """Cones at and just below MAX_AMBIENT_DIM finish and round-trip."""

    @pytest.mark.parametrize("dim", [7, MAX_AMBIENT_DIM])
    def test_round_trip_at_cap(self, dim):
        rng = random.Random(f"test-dd-cap-{dim}")
        # one generic cone and one pointed cone (first coordinate positive)
        for low in (-5, 1):
            gens = [tuple(rng.randint(low if i == 0 else -5, 5)
                          for i in range(dim)) for _ in range(dim + 3)]
            c = cone_from_generators(dim, gens)
            assert dual_cone(cone_from_generators(dim, c.facet_normals)) == c
            assert dual_cone(dual_cone(c)) == c
            assert all(c.contains(g) for g in gens)
        assert not c.lineality_basis and len(c.extreme_rays) > dim


class TestRoundTripSeeded:
    def test_seeded_random_cones(self):
        rng = random.Random("test-dd")
        for _ in range(60):
            dim = rng.randint(1, 4)
            gens = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(1, dim + 3))]
            c = cone_from_generators(dim, gens)
            assert dual_cone(cone_from_generators(dim, c.facet_normals)) == c
            assert dual_cone(dual_cone(c)) == c
            # canonicalization is idempotent
            assert cone_from_generators(dim, c.generators) == c

    def test_higher_dimensions(self):
        rng = random.Random("test-dd-hi")
        for dim in (5, 6):
            for _ in range(5):
                gens = [tuple(rng.randint(-2, 2) for _ in range(dim))
                        for _ in range(rng.randint(1, dim + 1))]
                c = cone_from_generators(dim, gens)
                assert dual_cone(
                    cone_from_generators(dim, c.facet_normals)) == c
                assert dual_cone(dual_cone(c)) == c

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_roundtrip_property(self, dim, data):
        gens = data.draw(st.lists(
            st.tuples(*([st.integers(min_value=-3, max_value=3)] * dim)),
            min_size=1, max_size=5))
        c = cone_from_generators(dim, gens)
        assert dual_cone(dual_cone(c)) == c
        assert cone_from_generators(dim, c.generators) == c
        for g in gens:
            assert c.contains(g)
        assert _polar_rays(gens, dim) == reference_polar_rays(gens, dim)


class TestAmpleCone:
    def test_examples(self):
        c = ample_cone(parse_parabolic("A3:{1,3}"))
        assert c.extreme_rays == ((0, 1), (1, 0))
        c = ample_cone(parse_parabolic("A3:{2}"))
        assert c.extreme_rays == ((1,),)
        c = ample_cone(parse_parabolic("A4:{1,2,3,4}"))
        assert len(c.extreme_rays) == 4 and c.is_simplicial

    def test_simplicial_with_marked_count_rays(self):
        for t in [SimpleType("A", 4), SimpleType("B", 3),
                  SimpleType("D", 4), SimpleType("G", 2)]:
            for mask in range(1, 2 ** t.rank):
                marks = tuple(i + 1 for i in range(t.rank) if mask >> i & 1)
                c = ample_cone(parabolic(t, marks))
                assert c.is_simplicial
                assert len(c.extreme_rays) == len(marks)

    def test_empty_marking(self):
        with pytest.raises(EmptyMarking):
            ample_cone(parabolic(SimpleType("A", 2), ()))

    def test_uncapped_above_double_description_cap(self):
        # closed form: no double description, so MAX_AMBIENT_DIM (8) is moot
        c = ample_cone(parabolic(SimpleType("A", 9), range(1, 10)))
        assert c.ambient_dim == 9 and c.is_simplicial
        assert sorted(c.extreme_rays) == sorted(
            tuple(int(i == j) for j in range(9)) for i in range(9))

    def test_closed_form_matches_double_description(self):
        # double description of the unit vectors stays the reference
        for k in range(1, 7):
            c = ample_cone(parabolic(SimpleType("A", k), range(1, k + 1)))
            identity = [tuple(int(i == j) for j in range(k))
                        for i in range(k)]
            ref = cone_from_generators(k, identity)
            assert c == ref
            assert c.facet_normals == ref.facet_normals
            assert dual_cone(c) == dual_cone(ref)

    def test_one_orthant_per_rank(self):
        # the closed form is shared, not rebuilt, across equal ranks
        a = ample_cone(parse_parabolic("A5:{1,4}"))
        assert a is ample_cone(parse_parabolic("A5:{2,3}"))
        assert a is ample_cone(parse_parabolic("D4:{1,3}"))
        assert a is not ample_cone(parse_parabolic("A5:{1,2,4}"))
        assert a.facet_normals is a.extreme_rays
        # A8:6,2,1 has dual partition 3,2,1,1,1,1: 30 chambers of rank 5
        cc = movable_chambers(parse_orbit("A8:6,2,1"))
        assert len(cc.chambers) == 30
        five = ample_cone(parabolic(SimpleType("A", 8), range(1, 6)))
        assert all(c.ample is five for c in cc.chambers)

    def test_orthant_cache_holds_one_entry_per_rank(self):
        assert _orthant.cache_info().maxsize == MAX_ROOT_SYSTEM_RANK
        ample_cone(parabolic(SimpleType("A", 7), (2, 4, 6)))
        size = _orthant.cache_info().currsize
        ample_cone(parabolic(SimpleType("B", 3), (1, 2, 3)))
        ample_cone(parabolic(SimpleType("A", 3), (1, 2, 3)))
        assert _orthant.cache_info().currsize == size


class TestChamberComplex:
    def test_two_chamber_flop(self):
        cc = movable_chambers(parse_orbit("A3:2,1,1"))
        assert cc.chamber_count == 2
        assert [c.composition for c in cc.chambers] == [(1, 3), (3, 1)]
        assert len(cc.walls) == 1
        wall = cc.walls[0]
        assert wall.chamber_a == (1, 3) and wall.chamber_b == (3, 1)
        assert wall.position == 1 and wall.entries == (1, 3)
        assert cc.is_connected

    def test_unique_resolution(self):
        cc = movable_chambers(parse_orbit("A3:2,2"))
        assert cc.chamber_count == 1 and cc.walls == ()
        assert cc.is_connected

    def test_hexagon(self):
        cc = movable_chambers(parse_orbit("A5:3,2,1"))
        assert cc.chamber_count == 6
        assert len(cc.walls) == 6
        assert cc.is_connected
        # Cayley graph of S3 with adjacent transpositions: 2-regular hexagon
        degree = Counter(end for w in cc.walls
                         for end in {w.chamber_a, w.chamber_b})
        for ch in cc.chambers:
            assert degree[ch.composition] == 2

    def test_degree_rule(self, type_a_orbits):
        for o in type_a_orbits(5):
            cc = movable_chambers(o)
            assert cc.is_connected
            degree = Counter(end for w in cc.walls
                             for end in {w.chamber_a, w.chamber_b})
            for ch in cc.chambers:
                comp = ch.composition
                expected = sum(1 for i in range(len(comp) - 1)
                               if comp[i] != comp[i + 1])
                assert degree[comp] == expected

    def test_chambers_carry_own_basis_cones(self):
        cc = movable_chambers(parse_orbit("A4:3,1,1"))
        for ch in cc.chambers:
            assert ch.ample.ambient_dim == len(ch.parabolic.marked)
            assert ch.ample.is_simplicial

    def test_single_chamber_for_non_a_regular(self):
        cc = movable_chambers(parse_orbit("G2:dim12"))
        assert cc.chamber_count == 1
        assert cc.chambers[0].parabolic.marked == (1, 2)
        assert cc.chambers[0].composition is None
        assert cc.walls == ()

    def test_no_polarization(self):
        with pytest.raises(NoPolarization):
            movable_chambers(parse_orbit("B3:2,2,1,1,1"))

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbit):
            movable_chambers(parse_orbit("A2:1,1,1"))


class TestChamberCounts:
    def test_counts_match_distinct_orderings(self, type_a_orbits):
        # independent oracle: count orderings of the dual partition directly
        from itertools import permutations
        from contactres.orbits import dual_partition
        for o in type_a_orbits(6):
            cc = movable_chambers(o)
            expected = len(set(permutations(dual_partition(o.partition))))
            assert cc.chamber_count == expected
