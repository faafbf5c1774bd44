import random
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from contactres import ratlinalg
from contactres.errors import DimensionMismatch
from contactres.ratlinalg import (
    _eliminate,
    _int_row,
    _skew_steps,
    adjugate,
    dot,
    echelon_basis,
    mat_mul,
    nullspace,
    primitive,
    rank,
    row_basis,
    rref,
    skew_null_vector,
    skew_rank,
)

from linalg_reference import _skew_upper, mat_vec, pivot_solution, solve

F = Fraction

small_entries = st.integers(min_value=-6, max_value=6)
rational_entries = st.builds(F, small_entries,
                             st.integers(min_value=1, max_value=6))
ENTRIES = {"int": small_entries, "rational": rational_entries}


def matrices(max_rows=5, max_cols=5, entries=small_entries):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def square_matrices(max_n=4, entries=small_entries):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def sparse(entries):
    """Zero with weight 3 in 5, so most pivot steps leave rows alone."""
    return st.one_of(st.just(0), st.just(0), st.just(0), entries, entries)


SPARSE_ENTRIES = {kind: sparse(e) for kind, e in ENTRIES.items()}


def cleared(rows):
    """Each row scaled to ints by the lcm of its denominators, as a
    Fraction row must be before the kernel takes it (the eliminations
    take ints only); row scaling moves no row space, kernel or rank."""
    return [_int_row(row) for row in rows]


@st.composite
def column_sparse(draw, entries, max_rows=12, max_cols=9):
    """At most two nonzeros per column, the pattern of ad_e on the sl_n
    basis: on tall shapes most rows skip most pivot steps."""
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rows = [[0] * ncols for _ in range(nrows)]
    for c in range(ncols):
        for i in draw(st.lists(st.integers(min_value=0, max_value=nrows - 1),
                               max_size=2, unique=True)):
            rows[i][c] = draw(entries.filter(bool))
    return rows


# --- reference: the eager Bareiss step the deferred scaling replaced ---------

def reference_eliminate(rows, reduce):
    """``_eliminate`` with every row left alone by a pivot step rescaled
    by p / prev at once."""
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return m, [], 1
    nrows, ncols = len(m), len(m[0])
    pivots = []
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            a = row[c]
            if a:
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


@st.composite
def skew_matrices(draw, entries, max_n=10):
    """A skew-symmetric n x n matrix, n <= ``max_n``, with the rows and
    columns of some indices zeroed: of low rank (a sum of u v^T - v u^T,
    u and v dense or sparse), sparse, or with at most 2n nonzeros above
    the diagonal, as sparse as the KKS form of a Jordan model. Sparse
    rows sit out some pivot steps and not others, and a low rank turns a
    wrong entry into a wrong rank."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    a = [[0] * n for _ in range(n)]
    shape = draw(st.sampled_from(["low rank", "sparse", "sparser"]))
    if shape == "low rank":
        vectors = st.lists(draw(st.sampled_from([entries, sparse(entries)])),
                           min_size=n, max_size=n)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            u, v = draw(vectors), draw(vectors)
            for k in range(n):
                for l in range(n):
                    a[k][l] += u[k] * v[l] - v[k] * u[l]
    else:
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        cells = sparse(entries)
        if shape == "sparser" and pairs:
            pairs = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
            cells = entries
        for k, l in pairs:
            a[k][l] = draw(cells)
            a[l][k] = -a[k][l]
    for k in draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)),
                          max_size=n)):
        a[k] = [0] * n
        for row in a:
            row[k] = 0
    return a


# --- reference: the eager Pfaffian step, every division checked -------------

def exact_div(num, den):
    q, rem = divmod(num, den)
    assert rem == 0, (num, den)
    return q


def skew_pivots(rows):
    """The pivots of the Pfaffian elimination of the square skew matrix
    ``rows``, read off its steps."""
    return [p for _, _, p, _, _ in _skew_steps(_skew_upper(rows))]


def reference_skew_pivots(rows):
    """``skew_pivots`` on the full matrix, cleared by one common
    denominator, with every live row updated at every step, no rescaling
    deferred, and every division checked."""
    mult = lcm(*[F(x).denominator for row in rows for x in row])
    a = [[int(x * mult) for x in row] for row in rows]
    live, pivots, prev = list(range(len(a))), [], 1
    while live:
        i = live.pop(0)
        j = next((l for l in live if a[i][l]), None)
        if j is None:
            continue
        live.remove(j)
        p, ai, aj = a[i][j], a[i][:], a[j][:]
        for k in live:
            for l in live:
                a[k][l] = exact_div(p * a[k][l] + aj[k] * ai[l]
                                    - ai[k] * aj[l], prev)
        pivots.append(p)
        prev = p
    return pivots


# --- reference: the Fraction Gauss-Jordan the integer kernel replaced --------

def reference_rref(rows):
    """Reduced row echelon form over Fractions: (nonzero rows, pivots)."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def reference_nullspace(rows):
    ncols = len(rows[0])
    red, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def rref_solve(rows, rhs):
    """``solve`` by reading the solution off the integer RREF of [A | b],
    the path the back-substitution replaced."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref([_int_row([*row, b]) for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = F(row[ncols], row[p])
    return tuple(x)


def reference_inverse(rows):
    n = len(rows)
    red, pivots = reference_rref(
        [list(row) + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def reference_det(rows):
    if len(rows) == 1:
        return F(rows[0][0])
    return sum((-1) ** j * rows[0][j]
               * reference_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def assert_adjugate(rows):
    """adj(A) = det(A) A^-1, in integers; None for a singular A."""
    ref = reference_inverse(rows)
    adj = adjugate(rows)
    if ref is None:
        assert adj is None
        return
    det = reference_det(rows)
    assert all(type(x) is int for row in adj for x in row)
    assert adj == [[det * x for x in row] for row in ref]


def is_primitive_int(vec):
    return all(type(x) is int for x in vec) and gcd(*vec) == 1


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("kind", ENTRIES)
class TestDeferredScaling:
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True)
    def test_sparse_elimination_matches_eager(self, kind, reduce, data):
        rows = cleared(data.draw(matrices(max_rows=6, max_cols=7,
                                          entries=SPARSE_ENTRIES[kind])))
        assert _eliminate(rows, reduce) == reference_eliminate(rows, reduce)
        tall = cleared(data.draw(column_sparse(ENTRIES[kind])))
        assert _eliminate(tall, reduce) == reference_eliminate(tall, reduce)


class TestDeferredScalingCases:
    @pytest.mark.parametrize("reduce", [False, True])
    def test_stale_row_swapped_into_pivot_slot(self, reduce):
        # the first pivot (2) does not visit row 2, which stays at level 1;
        # column 1 has no pivot candidate in row 1, so row 2 is swapped in
        rows = [[2, 1, 3], [0, 0, 5], [0, 3, 7]]
        m, pivots, sign = _eliminate(rows, reduce)
        assert (m, pivots, sign) == reference_eliminate(rows, reduce)
        assert pivots == [0, 1, 2] and sign == -1

    @given(square_matrices(max_n=6, entries=SPARSE_ENTRIES["int"]))
    @settings(max_examples=120, derandomize=True)
    def test_adjugate_on_sparse_squares(self, rows):
        assert_adjugate(rows)


class TestRank:
    @given(matrices())
    @settings(max_examples=120, derandomize=True)
    def test_bareiss_agrees_with_rref(self, rows):
        # two genuinely different elimination strategies must agree
        assert rank(rows) == reference_rank(rows)

    @given(matrices(entries=rational_entries))
    @settings(max_examples=80, derandomize=True)
    def test_rational_rank_agrees_with_reference(self, rows):
        assert rank(cleared(rows)) == reference_rank(rows)

    @given(matrices())
    @settings(max_examples=80, derandomize=True)
    def test_rank_of_transpose(self, rows):
        assert rank(rows) == rank(list(zip(*rows)))

    def test_rational_entries(self):
        # det = 1/14 - 1/15 != 0
        assert rank(cleared([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])) == 2
        # second row is 3 times the first
        assert rank(cleared([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]])) == 1

    def test_degenerate_shapes(self):
        assert rank([]) == 0
        assert rank([[]]) == 0
        assert rank([[0, 0], [0, 0]]) == 0

    def test_ragged_rows_refused(self):
        # read by the first row's length, these once answered 0 and
        # "inconsistent"
        with pytest.raises(DimensionMismatch):
            rank([[0], [0, 3]])
        with pytest.raises(DimensionMismatch):
            pivot_solution([[1], [0, 1]], [1, 1])


class TestSkewRank:
    @pytest.mark.parametrize("kind", ENTRIES)
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True)
    def test_matches_rank_and_the_eager_step(self, kind, data):
        # the general elimination is the reference for the rank; the eager
        # step, whose divisions are all exact, for every pivot
        rows = data.draw(skew_matrices(ENTRIES[kind]))
        pivots = skew_pivots(rows)
        assert pivots == reference_skew_pivots(rows)
        assert skew_rank(_skew_upper(rows)) == 2 * len(pivots) \
            == rank(cleared(rows))
        if kind == "int" and rows and 2 * len(pivots) == len(rows):
            # the last pivot is a Pfaffian of the whole matrix: Pf^2 = det
            m, _, sign = _eliminate(rows, reduce=False)
            assert pivots[-1] ** 2 == sign * m[-1][-1]

    def test_row_hit_again_after_sitting_out(self):
        # pivot pairs (0, 3), (1, 4), (2, 5), (6, 7): row 6 is hit by the
        # first, sits out the second and is hit by the third from level
        # -2, while the previous pivot is 4
        upper = {(0, 3): -2, (0, 5): 2, (0, 6): 2, (1, 4): -2, (2, 3): 2,
                 (5, 7): 2}
        rows = [[0] * 8 for _ in range(8)]
        for (k, l), x in upper.items():
            rows[k][l], rows[l][k] = x, -x
        assert skew_pivots(rows) == reference_skew_pivots(rows) \
            == [-2, 4, 8, -16]

    def test_rational_entries_share_one_denominator(self):
        # clearing each row apart would scale row 0 by 6, rows 1 and 2 by
        # 2 and 3: [0, 3, 2] against [-1, 0, 0] twice, not skew. Each row
        # is stored from the last column down
        rows = [[0, F(1, 2), F(1, 3)], [F(-1, 2), 0, 0], [F(-1, 3), 0, 0]]
        assert _skew_upper(rows) == [[2, 3], [0], []]
        assert skew_rank(_skew_upper(rows)) == 2

    def test_degenerate_shapes(self):
        # the rows above the diagonal, last column first: [[]] is the
        # 1 x 1 zero matrix, and [[0, 2], [1], []] is
        # ((0, 2, 0), (-2, 0, 1), (0, -1, 0))
        assert skew_rank([]) == 0
        assert skew_rank([[]]) == 0
        assert skew_rank([(0,), ()]) == 0
        assert skew_rank([[0, 2], [1], []]) == 2

    def test_rows_are_not_changed(self):
        rows = [[0, 2, -1], [3, 1], [4], []]
        copy = [list(row) for row in rows]
        assert skew_rank(rows) == 4 and rows == copy

    @pytest.mark.parametrize("rows", [[[0, 1]], [[0, 1], [-1]], [[], []],
                                      [[1], [], []]])
    def test_wrong_row_lengths_refused(self, rows):
        with pytest.raises(DimensionMismatch):
            skew_rank(rows)

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]], [[1]], [[0, 2, 0], [-2, 0, 1], [0, 1, 0]],
        [[0, F(1, 2)], [F(1, 2), 0]]])
    def test_reference_refuses_a_non_skew_matrix(self, rows):
        with pytest.raises(ValueError):
            _skew_upper(rows)

    @pytest.mark.parametrize("entry", [0.5, F(1, 2), F(2)])
    def test_entry_not_an_int_refused(self, entry):
        with pytest.raises(TypeError):
            skew_rank([[entry], []])


def bordered_skew(seed, fraction):
    """A seeded skew matrix B, n - 1 < 10 square, sparse or of low rank,
    with some zero rows, bordered by theta and -theta: theta = B w (in
    the row space, so the border stays unpaired), drawn at random (it
    pairs unless B is nonsingular) or zero. Entries are Fractions when
    ``fraction``."""
    rng = random.Random(f"bordered-skew:{seed}:{fraction}")
    m = rng.randint(0, 9)
    b = [[0] * m for _ in range(m)]

    def entry():
        x = rng.randint(-5, 5)
        return F(x, rng.randint(1, 6)) if fraction else x

    if rng.random() < 0.5:
        for k in range(m):
            for l in range(k + 1, m):
                if rng.random() < 0.4:
                    b[k][l] = entry()
                    b[l][k] = -b[k][l]
    else:
        for _ in range(rng.randint(1, 3)):
            u = [entry() for _ in range(m)]
            v = [entry() for _ in range(m)]
            for k in range(m):
                for l in range(m):
                    b[k][l] += u[k] * v[l] - v[k] * u[l]
    for k in rng.sample(range(m), rng.randint(0, m // 2)):
        b[k] = [0] * m
        for row in b:
            row[k] = 0
    border = rng.choice(["row space", "random", "zero"])
    if border == "row space":
        theta = list(mat_vec(b, [rng.randint(-3, 3) for _ in range(m)]))
    elif border == "random":
        theta = [entry() for _ in range(m)]
    else:
        theta = [0] * m
    return ([row + [t] for row, t in zip(b, theta)]
            + [[-t for t in theta] + [0]])


class TestSkewNullVector:
    @pytest.mark.parametrize("fraction", [False, True])
    def test_kernel_vector_at_the_last_pivot(self, fraction):
        unpaired_last = paired_last = 0
        for seed in range(150):
            rows = bordered_skew(seed, fraction)
            n = len(rows)
            r, x = skew_null_vector(_skew_upper(rows))
            steps = _skew_steps(_skew_upper(rows))
            paired = {k for i, j, *_ in steps for k in (i, j)}
            assert r == rank(cleared(rows)) == 2 * len(steps)
            if n - 1 in paired:
                paired_last += 1
                assert x is None
                continue
            unpaired_last += 1
            assert len(x) == n and all(type(c) is int for c in x)
            assert not any(mat_vec(rows, x))
            assert x[-1] == (skew_pivots(rows) or [1])[-1]
            assert all(x[k] == 0 for k in range(n - 1) if k not in paired)
        assert unpaired_last > 50 and paired_last > 20

    def test_small_cases(self):
        assert skew_null_vector([]) == (0, None)
        assert skew_null_vector([[]]) == (0, [1])
        assert skew_null_vector([[2], []]) == (2, None)
        # ((0, 2, 1), (-2, 0, 0), (-1, 0, 0)): index 2 pairs with nothing,
        # and the last pivot is 2
        assert skew_null_vector([[1, 2], [0], []]) \
            == (2, [0, -1, 2])

    @pytest.mark.parametrize("rows", [[[0, 1]], [[0, 1], [-1]], [[], []],
                                      [[1], [], []]])
    def test_wrong_row_lengths_refused(self, rows):
        with pytest.raises(DimensionMismatch):
            skew_null_vector(rows)

    @pytest.mark.parametrize("entry", [0.5, F(1, 2), F(2)])
    def test_entry_not_an_int_refused(self, entry):
        with pytest.raises(TypeError):
            skew_null_vector([[entry], []])


@pytest.mark.parametrize("kind", ENTRIES)
class TestAgainstReference:
    @given(data=st.data())
    @settings(max_examples=100, derandomize=True)
    def test_rref_rows_and_pivots(self, kind, data):
        rows = data.draw(matrices(entries=ENTRIES[kind]))
        red, pivots = rref(cleared(rows))
        ref, ref_pivots = reference_rref(rows)
        assert pivots == ref_pivots
        assert len(red) == len(ref)
        for row, p, ref_row in zip(red, pivots, ref):
            assert is_primitive_int(row) and row[p] > 0
            assert [F(x, row[p]) for x in row] == ref_row

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True)
    def test_nullspace_spans_reference_kernel(self, kind, data):
        rows = data.draw(matrices(entries=ENTRIES[kind]))
        basis = nullspace(cleared(rows))
        ref = reference_nullspace(rows)
        assert len(basis) == len(ref)
        assert all(is_primitive_int(v) for v in basis)
        for v in basis:
            assert all(x == 0 for x in mat_vec(rows, v))
        if basis:
            both = reference_rank(list(basis) + ref)
            assert both == reference_rank(basis) == len(ref)

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True)
    def test_solve_matches_reference(self, kind, data):
        rows = data.draw(matrices(max_rows=4, max_cols=4,
                                  entries=ENTRIES[kind]))
        rhs = data.draw(st.lists(ENTRIES[kind], min_size=len(rows),
                                 max_size=len(rows)))
        got = solve(rows, rhs)
        assert got == reference_solve(rows, rhs)
        if got is not None:
            assert all(type(x) is F for x in got)
            assert mat_vec(rows, got) == tuple(rhs)


class TestNullspace:
    @given(matrices())
    @settings(max_examples=100, derandomize=True)
    def test_kernel_vectors_annihilate_and_count(self, rows):
        basis = nullspace(rows)
        ncols = len(rows[0])
        assert len(basis) == ncols - rank(rows)
        for v in basis:
            assert all(x == 0 for x in mat_vec(rows, v))
        # the basis itself is independent
        if basis:
            assert rank(basis) == len(basis)

    def test_primitive_and_positive_in_free_column(self):
        assert nullspace([[2, 3]]) == [(-3, 2)]
        assert nullspace(cleared([[F(1, 2), F(1, 3), 0]])) \
            == [(-2, 3, 0), (0, 0, 1)]
        # a negative last pivot: the vector is flipped to stay positive
        assert nullspace([[-1, 1]]) == [(1, 1)]
        assert nullspace([[0, 1, 2], [1, 0, 3]]) == [(-3, -2, 1)]

    def test_empty(self):
        assert nullspace([]) == []


class TestRowBasis:
    @given(matrices(), st.data())
    @settings(max_examples=80, derandomize=True)
    def test_one_basis_per_row_space(self, rows, data):
        basis = row_basis(rows)
        assert basis == tuple(map(tuple, rref(rows)[0]))
        assert all(type(row) is tuple for row in basis)
        # a permuted, rescaled spanning set has the same basis
        perm = data.draw(st.permutations(range(len(rows))))
        assert row_basis([[3 * x for x in rows[i]] for i in perm]) == basis

    def test_empty(self):
        assert row_basis([]) == ()

    @given(matrices(entries=rational_entries))
    @settings(max_examples=80, derandomize=True)
    def test_echelon_basis_spans_the_row_space(self, rows):
        rows = cleared(rows)
        basis = echelon_basis(rows)
        assert len(basis) == rank(rows)
        assert all(type(x) is int for row in basis for x in row)
        assert row_basis(basis) == row_basis(rows)


class TestSolve:
    @given(matrices(max_rows=4, max_cols=4), st.data())
    @settings(max_examples=100, derandomize=True)
    def test_consistent_systems_check_out(self, rows, data):
        ncols = len(rows[0])
        x = data.draw(st.lists(small_entries, min_size=ncols,
                               max_size=ncols))
        b = mat_vec(rows, x)
        got = solve(rows, b)
        assert got is not None
        assert mat_vec(rows, got) == tuple(b)

    def test_inconsistent_system(self):
        assert solve([[1, 0], [1, 0]], [1, 2]) is None

    def test_empty(self):
        assert solve([], []) is None

    def test_rank_criterion(self):
        rows = [[1, 2], [2, 4]]
        assert solve(rows, [1, 3]) is None   # rank(A) < rank(A|b)
        assert solve(rows, [1, 2]) == (F(1), F(0))

    @pytest.mark.parametrize("kind", ENTRIES)
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True)
    def test_back_substitution_matches_rref_path(self, kind, data):
        # A = L R with a small inner dimension is often rank-deficient;
        # b = A x is consistent, a drawn b mostly not
        entries = SPARSE_ENTRIES[kind]
        nrows = data.draw(st.integers(1, 6))
        ncols = data.draw(st.integers(1, 6))
        inner = data.draw(st.integers(1, 6))
        left = data.draw(st.lists(st.lists(entries, min_size=inner,
                                           max_size=inner),
                                  min_size=nrows, max_size=nrows))
        right = data.draw(st.lists(st.lists(entries, min_size=ncols,
                                            max_size=ncols),
                                   min_size=inner, max_size=inner))
        rows = [list(row) for row in mat_mul(left, right)]
        if data.draw(st.booleans()):
            x = data.draw(st.lists(ENTRIES[kind], min_size=ncols,
                                   max_size=ncols))
            rhs = list(mat_vec(rows, x))
        else:
            rhs = data.draw(st.lists(entries, min_size=nrows,
                                     max_size=nrows))
        got = solve(rows, rhs)
        want = rref_solve(rows, rhs)
        assert got == want
        if got is not None:
            assert all(type(x) is F for x in got)
            assert mat_vec(rows, got) == tuple(rhs)

    def test_pivot_solution_scales_by_the_last_pivot(self):
        # [[2, 1], [0, 3]] has last pivot 6, the leading minor
        pivots, d, y = pivot_solution([[2, 1], [0, 3]], [5, 6])
        assert (pivots, d, y) == ([0, 1], 6, [9, 12])
        assert pivot_solution([[1, 1], [2, 2]], [1, 3]) is None
        assert pivot_solution([[0, 0]], [0]) == ([], 1, [])


class TestInverse:
    @given(square_matrices())
    @settings(max_examples=80, derandomize=True)
    def test_adjugate_is_det_times_inverse(self, rows):
        assert_adjugate(rows)

    def test_small_case(self):
        assert adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]

    @pytest.mark.parametrize("rows", [
        [[1, 2, 0], [3, 4, 1]], [[1], [0]], [[1, 2], [3]]])
    def test_adjugate_refuses_mismatched_shapes(self, rows):
        # A's extra columns would be read as part of the identity
        with pytest.raises(DimensionMismatch):
            adjugate(rows)


class TestIntContract:
    """Both eliminations take int entries only, and refuse any other with
    one ``TypeError`` from one shared check, before any step: a Fraction,
    an integral one too, or a float. A Fraction is cleared where it
    enters the package (``primitive``, ``oracle_lab.matrix_model``)."""

    @pytest.mark.parametrize("entry", [F(1, 2), F(2), 0.5])
    @pytest.mark.parametrize("call", [
        rank, echelon_basis, rref, row_basis, nullspace, adjugate,
        skew_rank, skew_null_vector], ids=lambda f: f.__name__)
    def test_non_int_refused_before_any_step(self, call, entry,
                                             monkeypatch):
        # each pivot step of _eliminate calls bisect_left and each of
        # _skew_steps calls compress: record them
        steps = []

        def recording(real):
            def step(*args):
                steps.append(args)
                return real(*args)
            return step

        monkeypatch.setattr(ratlinalg, "bisect_left", recording(bisect_left))
        monkeypatch.setattr(ratlinalg, "compress", recording(compress))
        skew = call in (skew_rank, skew_null_vector)
        with pytest.raises(TypeError,
                           match="^exact elimination needs int entries$"):
            call([[entry], []] if skew else [[entry, 1], [1, 0]])
        assert steps == []


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)
        assert primitive((F(1, 2), F(1, 3))) == (3, 2)
        assert primitive((-2, 4)) == (-1, 2)
        assert primitive((0, 0)) == (0, 0)

    def test_float_refused(self, monkeypatch):
        with pytest.raises(TypeError, match="float 0.5 is not exact"):
            primitive((0.5, 1))
        # the kernel takes ints only, and refuses a float as it refuses
        # a Fraction
        with pytest.raises(TypeError, match="needs int entries"):
            rank([[0.1, 1], [1, 0]])
        # an all-int row takes the fast path and reads no entry
        monkeypatch.setattr(ratlinalg, "rational", None)
        assert _int_row((3, -1)) == [3, -1]

    @given(st.lists(small_entries, min_size=1, max_size=5),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, derandomize=True)
    def test_scaling_invariance(self, vec, scale):
        assert primitive([scale * x for x in vec]) == primitive(vec)
        assert primitive([F(x, scale) for x in vec]) == primitive(vec)


class TestIndependentColumns:
    def test_picks_pivots(self):
        # rref's pivot columns index a maximal independent column set
        assert rref([[1, 2, 3], [2, 4, 6]])[1] == [0]
        assert rref([[1, 0, 1], [0, 1, 1]])[1] == [0, 1]

    def test_dot(self):
        assert dot((1, 2), (3, 4)) == 11
        assert dot((F(1, 2),), (F(2, 3),)) == F(1, 3)


class TestProducts:
    def test_integer_inputs_stay_int(self):
        assert type(dot((1, 2), (3, 4))) is int
        assert all(type(x) is int for x in mat_vec([[1, 2], [3, 4]], (5, 6)))
        assert all(type(x) is int for x in primitive((F(2), 4)))

    @given(matrices(max_rows=4, max_cols=4, entries=rational_entries),
           st.data())
    @settings(max_examples=60, derandomize=True)
    def test_mat_mul_matches_naive_product(self, a, data):
        width = data.draw(st.integers(min_value=1, max_value=4))
        b = data.draw(st.lists(st.lists(small_entries, min_size=width,
                                        max_size=width),
                               min_size=len(a[0]), max_size=len(a[0])))
        naive = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                            for j in range(width)) for i in range(len(a)))
        assert mat_mul(a, b) == naive
