from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from contactres.ratlinalg import (
    _eliminate,
    _int_row,
    adjugate,
    dot,
    mat_mul,
    mat_vec,
    nullspace,
    pivot_solution,
    primitive,
    rank,
    row_basis,
    rref,
    rref_kernel,
    solve,
)

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


# --- reference: the eager Bareiss step the deferred scaling replaced ---------

def reference_eliminate(rows, reduce):
    """``_eliminate`` with every row left alone by a pivot step rescaled
    by p / prev at once."""
    m = [_int_row(row) for row in rows]
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
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
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


def is_primitive_int(vec):
    return all(type(x) is int for x in vec) and gcd(*vec) == 1


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("kind", ENTRIES)
class TestDeferredScaling:
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True)
    def test_sparse_elimination_matches_eager(self, kind, reduce, data):
        rows = data.draw(matrices(max_rows=6, max_cols=7,
                                  entries=SPARSE_ENTRIES[kind]))
        assert _eliminate(rows, reduce) == reference_eliminate(rows, reduce)


class TestDeferredScalingCases:
    @pytest.mark.parametrize("reduce", [False, True])
    def test_stale_row_swapped_into_pivot_slot(self, reduce):
        # the first pivot (2) leaves row 2 alone, so it is stale at level 1;
        # column 1 has no pivot candidate in row 1, so row 2 is swapped in
        rows = [[2, 1, 3], [0, 0, 5], [0, 3, 7]]
        m, pivots, sign = _eliminate(rows, reduce)
        assert (m, pivots, sign) == reference_eliminate(rows, reduce)
        assert pivots == [0, 1, 2] and sign == -1

    @given(square_matrices(max_n=6, entries=SPARSE_ENTRIES["int"]))
    @settings(max_examples=120, derandomize=True)
    def test_adjugate_on_sparse_squares(self, rows):
        ref = reference_inverse(rows)
        adj = adjugate(rows)
        if ref is None:
            assert adj is None
            return
        det = reference_det(rows)
        assert adj == [[det * x for x in row] for row in ref]


class TestRank:
    @given(matrices())
    @settings(max_examples=120, derandomize=True)
    def test_bareiss_agrees_with_rref(self, rows):
        # two genuinely different elimination strategies must agree
        assert rank(rows) == reference_rank(rows)

    @given(matrices(entries=rational_entries))
    @settings(max_examples=80, derandomize=True)
    def test_rational_rank_agrees_with_reference(self, rows):
        assert rank(rows) == reference_rank(rows)

    @given(matrices())
    @settings(max_examples=80, derandomize=True)
    def test_rank_of_transpose(self, rows):
        assert rank(rows) == rank(list(zip(*rows)))

    def test_rational_entries(self):
        # det = 1/14 - 1/15 != 0
        assert rank([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == 2
        # second row is 3 times the first
        assert rank([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]) == 1

    def test_degenerate_shapes(self):
        assert rank([]) == 0
        assert rank([[]]) == 0
        assert rank([[0, 0], [0, 0]]) == 0


@pytest.mark.parametrize("kind", ENTRIES)
class TestAgainstReference:
    @given(data=st.data())
    @settings(max_examples=100, derandomize=True)
    def test_rref_rows_and_pivots(self, kind, data):
        rows = data.draw(matrices(entries=ENTRIES[kind]))
        red, pivots = rref(rows)
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
        basis = nullspace(rows)
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
        assert nullspace([[F(1, 2), F(1, 3), 0]]) == [(-2, 3, 0), (0, 0, 1)]

    @given(matrices(), st.data())
    @settings(max_examples=80, derandomize=True)
    def test_rref_kernel_ignores_an_augmented_column(self, rows, data):
        ncols = len(rows[0])
        x = data.draw(st.lists(small_entries, min_size=ncols,
                               max_size=ncols))
        aug = [list(row) + [b] for row, b in zip(rows, mat_vec(rows, x))]
        assert rref_kernel(*rref(aug), ncols) == nullspace(rows)


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
        adj = adjugate(rows)
        ref = reference_inverse(rows)
        if ref is None:
            assert adj is None
            return
        det = reference_det(rows)
        assert all(type(x) is int for row in adj for x in row)
        assert adj == [[det * x for x in row] for row in ref]


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)
        assert primitive((F(1, 2), F(1, 3))) == (3, 2)
        assert primitive((-2, 4)) == (-1, 2)
        assert primitive((0, 0)) == (0, 0)

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
