import pytest
from fractions import Fraction
from functools import lru_cache

from contactres import lie_core
from contactres.errors import (
    DimensionMismatch,
    EmptyMarking,
    InternalInvariantError,
    InvalidRank,
    SizeCapExceeded,
)
from contactres.lie_core import (
    MAX_ROOT_SYSTEM_RANK,
    RANK_BOUNDS,
    ParabolicType,
    SimpleType,
    _divide_one_minus_power,
    build_root_system,
    flag_dimension,
    is_projective_space,
    parabolic,
    parse_parabolic,
    parse_simple_type,
    poincare_polynomial,
)
from contactres.resolutions import compositions_of

from linalg_reference import reference_det, reference_inverse

ALL_SMALL_TYPES = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
    SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
    SimpleType("B", 4), SimpleType("C", 2), SimpleType("C", 3),
    SimpleType("C", 4), SimpleType("D", 3), SimpleType("D", 4),
    SimpleType("F", 4), SimpleType("G", 2),
]

INDEX_OF_CONNECTION = {
    "A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
    "D": lambda n: 4, "E": lambda n: 9 - n, "F": lambda n: 1,
    "G": lambda n: 1,
}


def types_up_to_rank(max_rank):
    for family, (lo, hi) in RANK_BOUNDS.items():
        for n in range(lo, min(max_rank, hi or max_rank) + 1):
            yield SimpleType(family, n)


def all_markings(t, nonempty=True):
    n = t.rank
    for mask in range(1 if nonempty else 0, 2 ** n):
        yield tuple(i + 1 for i in range(n) if mask >> i & 1)


def reference_roots(cartan):
    """Reference for the package's generator: the whole root system, by
    closing the simple roots under every simple reflection with each
    pairing recomputed, checked to be symmetric under negation; returns
    its positive half, sorted."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for j in range(n):
            k = sum(ci * cartan[i][j] for i, ci in enumerate(beta))
            image = tuple(c - k * (i == j) for i, c in enumerate(beta))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    assert roots == {tuple(-c for c in r) for r in roots}
    positive = sorted(r for r in roots if all(c >= 0 for c in r))
    assert 2 * len(positive) == len(roots)
    return tuple(positive)


class TestRootSystems:
    def test_a1(self):
        rs = build_root_system(SimpleType("A", 1))
        assert rs.cartan_matrix == ((2,),)
        assert rs.positive_roots == ((1,),)

    def test_a2(self):
        rs = build_root_system(SimpleType("A", 2))
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_g2(self):
        rs = build_root_system(SimpleType("G", 2))
        assert rs.cartan_matrix == ((2, -1), (-3, 2))
        # cross-check: |positive roots| = (dim g - rank) / 2 = (14 - 2) / 2
        assert len(rs.positive_roots) == 6
        assert set(rs.positive_roots) == {
            (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}

    @pytest.mark.parametrize("family,rank,count", [
        ("A", 5, 15), ("B", 4, 16), ("C", 4, 16), ("D", 5, 20),
        ("E", 6, 36), ("E", 7, 63), ("E", 8, 120), ("F", 4, 24),
    ])
    def test_positive_root_counts(self, family, rank, count):
        t = SimpleType(family, rank)
        assert len(build_root_system(t).positive_roots) == count
        assert t.num_positive_roots == count

    @pytest.mark.parametrize("t", ALL_SMALL_TYPES, ids=str)
    def test_fundamental_weights_dual_to_coroots(self, t):
        # The weights are the rows of C^-1, and det(C) is the index of
        # connection, so a singular or mis-bonded Cartan matrix fails here.
        cm = build_root_system(t).cartan_matrix
        n = t.rank
        assert reference_det(cm) == INDEX_OF_CONNECTION[t.family](n)
        weights = reference_inverse(cm)
        for b in range(n):
            for c in range(n):
                pairing = sum(weights[b][i] * cm[i][c] for i in range(n))
                assert pairing == int(b == c)

    @pytest.mark.parametrize("t", [
        *types_up_to_rank(8),
        *(SimpleType(f, n) for f in "ABCD" for n in range(9, 17))], ids=str)
    def test_against_reference_closure(self, t):
        rs = build_root_system(t)
        assert rs.positive_roots == reference_roots(rs.cartan_matrix)
        # node i's bitset: the positive roots with a nonzero alpha_{i+1}
        # coefficient, bit k for positive_roots[k]
        assert rs.node_roots == tuple(
            sum(1 << k for k, r in enumerate(rs.positive_roots) if r[i])
            for i in range(t.rank))

    def test_cartan_sign_pattern(self):
        for t in ALL_SMALL_TYPES:
            cm = build_root_system(t).cartan_matrix
            for i, row in enumerate(cm):
                assert row[i] == 2
                assert all(x <= 0 for j, x in enumerate(row) if j != i)

    @pytest.mark.parametrize("family", "ABCD")
    def test_rank_cap(self, family):
        cap = MAX_ROOT_SYSTEM_RANK
        assert cap >= 27    # the chamber-cap staircase A27:7,6,5,4,3,2,1
        rs = build_root_system(SimpleType(family, cap))
        assert len(rs.positive_roots) == {
            "A": cap * (cap + 1) // 2, "B": cap * cap, "C": cap * cap,
            "D": cap * (cap - 1)}[family]
        # a valid type, refused for its size before any root is generated
        with pytest.raises(SizeCapExceeded, match="root-system cap"):
            build_root_system(SimpleType(family, cap + 1))

    def test_invalid_ranks(self):
        for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2),
                             ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("X", 1)]:
            with pytest.raises(InvalidRank):
                SimpleType(family, rank)
        with pytest.raises(InvalidRank):
            parse_simple_type("H3")


class TestFlagDimension:
    def test_full_flag_a3(self):
        assert flag_dimension(parse_parabolic("A3:{1,2,3}")) == 6

    def test_projective_space_a3(self):
        # positive roots of A3 containing alpha_1, counted by hand
        a3 = {(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (0, 1, 1), (1, 1, 1)}
        by_hand = sum(1 for r in a3 if r[0] != 0)
        assert by_hand == 3
        assert flag_dimension(parse_parabolic("A3:{1}")) == 3

    def test_c2_marked_1(self):
        # positive roots of C2: a1, a2, a1+a2, 2a1+a2; three contain a1
        assert flag_dimension(parse_parabolic("C2:{1}")) == 3

    def test_empty_marking(self):
        with pytest.raises(EmptyMarking):
            flag_dimension(parabolic(SimpleType("A", 3), ()))

    def test_full_marking_counts_all_roots(self):
        for t in ALL_SMALL_TYPES:
            rs = build_root_system(t)
            full = parabolic(t, range(1, t.rank + 1))
            assert flag_dimension(full) == len(rs.positive_roots)

    def test_monotone_under_inclusion(self):
        for t in [SimpleType("A", 3), SimpleType("B", 3), SimpleType("C", 3),
                  SimpleType("D", 4), SimpleType("G", 2)]:
            marks = list(all_markings(t))
            dims = {m: flag_dimension(parabolic(t, m)) for m in marks}
            for small in marks:
                for big in marks:
                    if set(small) <= set(big):
                        assert dims[small] <= dims[big]

    def test_cached_value_matches_uncached_count(self):
        # every marking of A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4 and G2:
        # the bitsets give the literal support rule, a positive root with
        # a nonzero coefficient on a marked node, in positive_roots order
        for t in types_up_to_rank(8):
            roots = build_root_system(t).positive_roots
            for marks in all_markings(t):
                p = parabolic(t, marks)
                literal = tuple([r for r in roots
                                 if any([r[i - 1] for i in marks])])
                assert lie_core._nilradical_roots(p) == literal
                for _ in range(2):
                    assert flag_dimension(p) == len(literal)
        # the node bitsets live in the one cached root system, read once
        # on every call: one hit and no miss on a type already built
        before = build_root_system.cache_info()
        flag_dimension(parabolic(SimpleType("A", 3), (1,)))
        after = build_root_system.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        with pytest.raises(EmptyMarking):
            flag_dimension(parabolic(SimpleType("A", 3), ()))

    def test_type_a_block_formula(self, parabolic_from_composition):
        # root count must match sum_{i<j} c_i c_j for the block composition
        for n in range(2, 8):
            for comp in compositions_of(n):
                if len(comp) == 1:
                    continue
                p = parabolic_from_composition(comp)
                expected = sum(comp[i] * comp[j]
                               for i in range(len(comp))
                               for j in range(i + 1, len(comp)))
                assert flag_dimension(p) == expected


# --- Weyl groups, materialized: the oracle for Poincare polynomials --------

WEYL_ENUMERATION_MAX_RANK = 6


def weyl_order(rs):
    """|W|, evaluated from the height product at t = 1."""
    prod = Fraction(1)
    for root in rs.positive_roots:
        h = sum(root)
        prod *= Fraction(h + 1, h)
    assert prod.denominator == 1, "|W| must be an integer"
    return prod.numerator


def _reflection_matrix(cartan, j):
    n = len(cartan)
    m = [[int(i == k) for k in range(n)] for i in range(n)]
    for i in range(n):
        m[j][i] = int(i == j) - cartan[i][j]
    return tuple(tuple(row) for row in m)


def weyl_elements(rs):
    """All elements of W as matrices on simple-root coordinates, by
    closing the identity under the simple reflections (desk scale only)."""
    n = rs.simple_type.rank
    assert n <= WEYL_ENUMERATION_MAX_RANK, \
        f"refusing to enumerate W for rank {n}"
    cartan = rs.cartan_matrix
    gens = [_reflection_matrix(cartan, j) for j in range(n)]
    identity = tuple(tuple(int(i == k) for k in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        w = frontier.pop()
        for g in gens:
            prod = tuple(
                tuple(sum(g[i][k] * w[k][j] for k in range(n))
                      for j in range(n))
                for i in range(n))
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    return sorted(seen)


def weyl_length(rs, w):
    """Length of w = number of positive roots mapped to negative roots."""
    n = rs.simple_type.rank
    count = 0
    for root in rs.positive_roots:
        image = [sum(w[i][k] * root[k] for k in range(n)) for i in range(n)]
        if all(c <= 0 for c in image):
            count += 1
    return count


def enumerated_coset_poincare(t, marked):
    """Independent oracle: sum q^len(w) over minimal coset representatives,
    materializing W and counting inversions."""
    rs = build_root_system(t)
    n = rs.simple_type.rank
    unmarked0 = [i for i in range(n) if (i + 1) not in marked]
    coeffs = {}
    for w in weyl_elements(rs):
        keeps_levi_positive = True
        for j in unmarked0:
            image = tuple(w[i][j] for i in range(n))
            if all(c <= 0 for c in image):
                keeps_levi_positive = False
                break
        if keeps_levi_positive:
            length = weyl_length(rs, w)
            coeffs[length] = coeffs.get(length, 0) + 1
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(num[k + len(den) - 1], den[-1])
        assert rest == 0, "inexact polynomial division"
        q[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    assert not any(num), "inexact polynomial division"
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return q


@lru_cache(maxsize=None)
def _length_generating_function(positive_roots):
    """Macdonald's product over root heights, as dense polynomials."""
    num = [1]
    den = [1]
    for root in positive_roots:
        h = sum(root)
        num = _poly_mul(num, [1] + [0] * h + [-1])
        den = _poly_mul(den, [1] + [0] * (h - 1) + [-1])
    return _poly_div_exact(num, den)


def dense_poincare(p):
    """Reference for poincare_polynomial: the dense quotient of the length
    generating functions of W and of the Levi Weyl group."""
    marked0 = [i - 1 for i in p.marked]
    roots = p.root_system.positive_roots
    levi = tuple(r for r in roots if all(r[i] == 0 for i in marked0))
    return tuple(_poly_div_exact(_length_generating_function(roots),
                                 _length_generating_function(levi)))


class TestPoincare:
    @pytest.mark.parametrize("t", [
        SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
        SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
        SimpleType("B", 4), SimpleType("C", 3), SimpleType("C", 4),
        SimpleType("D", 3), SimpleType("D", 4), SimpleType("F", 4),
        SimpleType("G", 2),
    ], ids=str)
    def test_weyl_order_against_enumeration(self, t):
        rs = build_root_system(t)
        assert weyl_order(rs) == len(weyl_elements(rs))

    @pytest.mark.parametrize("t", [
        SimpleType("A", 2), SimpleType("A", 3), SimpleType("B", 2),
        SimpleType("B", 3), SimpleType("C", 3), SimpleType("G", 2),
    ], ids=str)
    def test_coset_polynomial_against_enumeration(self, t):
        for marks in all_markings(t):
            assert poincare_polynomial(parabolic(t, marks)) == \
                enumerated_coset_poincare(t, marks)

    @pytest.mark.parametrize("t", list(types_up_to_rank(6)), ids=str)
    def test_against_dense_reference(self, t):
        for marks in all_markings(t):
            p = parabolic(t, marks)
            assert poincare_polynomial(p) == dense_poincare(p)

    @pytest.mark.parametrize("text", ["E8:{1}", "E8:{8}"])
    def test_e8_against_dense_reference(self, text):
        p = parse_parabolic(text)
        assert poincare_polynomial(p) == dense_poincare(p)

    def test_inexact_division_raises(self):
        # 1 + t^2 is not a multiple of 1 - t
        with pytest.raises(InternalInvariantError):
            _divide_one_minus_power([1, 0, 1], 1)
        q = [1, 0, 0, -1]  # 1 - t^3 = (1 - t)(1 + t + t^2)
        _divide_one_minus_power(q, 1)
        assert q == [1, 1, 1]

    def test_value_at_one_is_index(self):
        # |W| / |W_Levi|, for every rank <= 4 type and marking
        for t in ALL_SMALL_TYPES:
            rs = build_root_system(t)
            order = weyl_order(rs)
            for marks in all_markings(t):
                poly = poincare_polynomial(parabolic(t, marks))
                levi_order = sum(poly) and order // sum(poly)
                assert sum(poly) * levi_order == order

    def test_no_cache_grows_per_parabolic(self):
        # the nilradical roots are recomputed on each call rather than
        # kept, so the caches grow with the types asked about, not with
        # the 210 distinct parabolics
        caches = [f for f in vars(lie_core).values()
                  if hasattr(f, "cache_info")]
        before = [f.cache_info().currsize for f in caches]
        t = SimpleType("A", 20)
        for i in range(1, 21):
            for j in range(i, 21):
                p = parabolic(t, (i, j))
                assert len(poincare_polynomial(p)) == flag_dimension(p) + 1
                is_projective_space(p)
        grown = [f.cache_info().currsize - b for f, b in zip(caches, before)]
        assert max(grown) <= 1, dict(zip(caches, grown))

    def test_empty_marking(self):
        with pytest.raises(EmptyMarking):
            poincare_polynomial(parabolic(SimpleType("A", 3), ()))

    def test_known_polynomials(self):
        assert poincare_polynomial(parse_parabolic("A3:{1}")) == (1, 1, 1, 1)
        assert poincare_polynomial(parse_parabolic("C2:{1}")) == (1, 1, 1, 1)
        # Gr(2,4) has b_4 = 2
        assert poincare_polynomial(parse_parabolic("A3:{2}")) == \
            (1, 1, 2, 1, 1)


class TestIsProjectiveSpace:
    def test_examples(self):
        assert is_projective_space(parse_parabolic("A3:{1}")) is True
        assert is_projective_space(parse_parabolic("A3:{2}")) is False
        assert is_projective_space(parse_parabolic("C2:{1}")) is True
        # b_2 = 2 already rules out P^n
        assert is_projective_space(parse_parabolic("A3:{1,2}")) is False

    def test_type_a_exactly_the_two_end_nodes(self):
        for n in range(2, 6):
            t = SimpleType("A", n)
            for marks in all_markings(t):
                expected = marks in ((1,), (n,))
                assert is_projective_space(parabolic(t, marks)) == expected

    def test_kobayashi_ochiai_maximal_parabolics(self):
        # P^N among all maximal parabolics of rank <= 8: the A_n end nodes,
        # C_n:{1} = P^{2n-1}, and B2:{2}, D3:{2}, D3:{3} (B2 = C2, D3 = A3)
        accepted = {str(parabolic(t, (i,)))
                    for t in types_up_to_rank(8)
                    for i in range(1, t.rank + 1)
                    if is_projective_space(parabolic(t, (i,)))}
        expected = {"B2:{2}", "D3:{2}", "D3:{3}"}
        expected |= {f"A{n}:{{{i}}}" for n in range(1, 9) for i in (1, n)}
        expected |= {f"C{n}:{{1}}" for n in range(2, 9)}
        assert accepted == expected

    @pytest.mark.parametrize("text", [
        "B2:{1}", "B3:{1}", "B5:{1}", "B8:{1}", "C2:{2}", "G2:{1}", "G2:{2}",
    ])
    def test_all_ones_betti_is_not_sufficient(self, text):
        # odd quadrics, LG(2,4) = Q^3 and the G2 flag varieties have
        # all-ones Poincare polynomials but Fano index below N + 1
        p = parse_parabolic(text)
        assert set(poincare_polynomial(p)) == {1}
        assert is_projective_space(p) is False

    def test_all_ones_betti_is_necessary(self):
        for t in types_up_to_rank(8):
            for marks in all_markings(t):
                p = parabolic(t, marks)
                if is_projective_space(p):
                    assert set(poincare_polynomial(p)) == {1}, str(p)

    def test_empty_marking(self):
        with pytest.raises(EmptyMarking):
            is_projective_space(parabolic(SimpleType("A", 3), ()))


class TestParabolicValue:
    def test_fields_are_type_and_marking(self):
        assert ParabolicType._fields == ("simple_type", "marked")

    def test_equal_markings_are_equal_values(self):
        t = SimpleType("A", 3)
        p, q = parabolic(t, (3, 1, 3)), parabolic(t, (1, 3))
        assert p == q and hash(p) == hash(q)
        assert p.simple_type is t and p.marked == (1, 3)
        assert p != parabolic(SimpleType("B", 3), (1, 3))
        assert p.root_system is build_root_system(t)

    @pytest.mark.parametrize("marked", [(1.5,), (1, 2.0), (Fraction(1),)])
    def test_a_mark_that_is_not_an_int_is_refused(self, marked):
        # 1.5 used to print as A3:{1.5}, and 2.0 as a second copy of 2
        with pytest.raises(TypeError):
            parabolic(SimpleType("A", 3), marked)


class TestGrammar:
    def test_round_trip(self):
        p = parse_parabolic("A3:{1,3}")
        assert str(p) == "A3:{1,3}"
        assert p.marked == (1, 3)

    def test_marking_canonicalized(self):
        p = parse_parabolic("A5:{3,1,3}")
        assert p.marked == (1, 3)

    def test_bad_strings(self):
        for text in ["A3", "A3:1,3", "A3:{1,3", "X2:{1}"]:
            with pytest.raises((DimensionMismatch, InvalidRank)):
                parse_parabolic(text)

    def test_non_integer_mark(self):
        # an empty mark is no integer either, and "{1 3}" lacks a comma
        for text in ["A3:{x}", "A3:{1,x}", "A3:{1.5}", "A3:{1,,2}",
                     "A3:{1,}", "A3:{,}", "A3:{1 3}"]:
            with pytest.raises(DimensionMismatch, match="cannot parse"):
                parse_parabolic(text)

    def test_empty_marking_parses(self):
        assert parse_parabolic("A3:{}").marked == ()
        assert parse_parabolic("A3:{ 3 , 1 }").marked == (1, 3)

    def test_out_of_range_mark(self):
        for text in ["A3:{4}", "A3:{0}", "A3:{1,5}"]:
            with pytest.raises(DimensionMismatch):
                parse_parabolic(text)
