"""Exact linear algebra over the rationals, on one integer kernel.

Matrices are sequences of rows; vectors are tuples. No floating point:
rank decisions made here are the ground truth for everything else in the
package. Both eliminations take int entries and refuse any other with
one ``TypeError``. A Fraction is cleared only where it enters the
package, and ``fractions`` is imported only there: by ``primitive``
(cone generators, ``RationalCone.contains``), ``oracle_lab.matrix_model``
(one lcm per matrix) and ``rational`` (``canonical_degree_on_curve``).

All elimination of general matrices runs through ``_eliminate``,
Bareiss' fraction-free Gauss-Jordan. Each update divides exactly by the
previous pivot, so entries stay minors of the matrix, bounded by
Hadamard's inequality. ``rref`` and ``nullspace`` return primitive
integer vectors and ``adjugate`` integers. A skew-symmetric matrix has
its own elimination by 2 x 2 pivots, behind ``skew_rank`` and
``skew_null_vector``, which take only its entries above the diagonal
(below); ``rank`` is its reference in the tests.

A Bareiss step with pivot p brings the rows it acts on (those below the
pivot row in echelon mode, all others in reduced mode) to p: a row with
a nonzero in the pivot column is combined with the pivot row and
divided by prev, the pivot before p, and a row with a zero there is
only rescaled by p / prev. That rescaling is deferred. Each row keeps a
level, the pivot value it was last brought to, and its pending factors
telescope to prev / level. A step visits only the rows it acts on that
have a nonzero in the pivot column, and divides each by its level
instead of by prev. The pivot row is brought up to prev when it is
chosen, and stands at its own pivot once its step ends, as in the eager
step; a reduction brings every row still behind up to the last pivot at
the end. Each of these yields the integer the eager step would have
held, so every returned entry is still the same minor, and a step costs
only the rows it visits: on sparse matrices, few of them.

``skew_rank`` eliminates a skew-symmetric matrix A two indices at a
time. A step pivots on p = A_ij != 0, i the first live index and j its
first live partner; an index with no partner is a zero row, dropped.
With P = {i, j}, the rows C = A_(P, rest), a_k = A_ik and b_k = A_jk,
T = [[1, -A_PP^-1 C], [0, 1]] makes T^T A T block diagonal: A_PP and
the Schur complement S, skew, with S_kl = A_kl + (b_k a_l - a_k b_l) / p.
So rank A = 2 + rank S, and since det T = 1 and
Pf(T^T M T) = det(T) Pf(M), Pf(A_(P, K)) = p Pf(S_K) on every set K of
the other indices, listed after i, j. Complements compose (the
complement of a block of S is that of the larger block of A), so after
the pivot pairs I the complement S of A_I has Pf(A_(I, k, l)) =
Pf(A_I) S_kl. The elimination keeps B = Pf(A_I) S, whose entries are
Pfaffians of integer matrices: with prev = Pf(A_I), a and b the rows i
and j of B and p = B_ij = Pf(A_(I, i, j)), the next B is
(p B_kl + b_k a_l - a_k b_l) / prev, and the division is exact (the
Pfaffian condensation identity; Knuth, "Overlapping Pfaffians", 1996).
A Pfaffian is a square root of a principal minor, so entries carry about
half the digits of ``_eliminate``'s, and each step retires two indices
and updates half a matrix. The input is that half, in ints: row k holds
A_kl for l > k from the last column down (A_lk = -A_kl is not given),
so that a row and the pivot rows a and b, padded to all n columns, line
up at their first entries and pair off with no slicing; a caller
builds the rows in place of the full matrix. Rows never shrink:
the update writes p (-b_k) + b_k p = 0 in column j, so a retired index
is a zero column of every live row. A row with a_k = b_k = 0 only
changes by p / prev, and, as above, that rescaling is deferred: each
row keeps a level, the pivot rows are brought to prev when read, and a
row with a_k or b_k nonzero at level lv is rewritten at p as
(p prev x + lv (b_k a_l - a_k b_l)) / (lv prev), the integer the eager
step makes. A step costs the rows it hits. Each step is kept as
(i, j, p, a, b): ``skew_rank`` counts the steps, and
``skew_null_vector`` back-substitutes through them.

Tuples and star-arguments are built from lists: CPython parks a resized
generator-built tuple on a free list that only a full garbage collection
empties, which integer work seldom triggers (peak RSS grew ~1 MB).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, invariant


def rational(x) -> Fraction:
    """``x`` as an exact Fraction; a float, seldom the number meant (0.1 is
    3602879701896397/36028797018963968), raises ``TypeError``."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; give an int or a Fraction")
    from fractions import Fraction
    return Fraction(x)


def _int_row(row) -> list[int]:
    if {*map(type, row)} == {int}:
        return list(row)
    fr = [rational(x) for x in row]
    mult = lcm(*[x.denominator for x in fr])
    return [x.numerator * (mult // x.denominator) for x in fr]


def primitive(vec) -> tuple[int, ...]:
    """A rational vector scaled to a primitive integer vector, keeping its
    direction (the zero vector maps to itself): a door for Fractions."""
    ints = _int_row(vec)
    g = gcd(*ints) or 1
    return tuple([x // g for x in ints])


def _refuse_non_ints(rows) -> None:
    """Both eliminations' input check: a sum is an int iff its terms are."""
    if type(sum(chain.from_iterable(rows))) is not int:
        raise TypeError("exact elimination needs int entries")


def _eliminate(rows, reduce: bool) -> tuple[list[list[int]], list[int], int]:
    """(matrix, pivot columns, sign of the row permutation); the pivot
    rows come first. ``reduce`` also clears above each pivot, leaving the
    last pivot value in every pivot column and zeros elsewhere in it."""
    m = [list(row) for row in rows]
    _refuse_non_ints(m)
    if len({*map(len, m)}) > 1:
        raise DimensionMismatch("rows of unequal length")
    if not m or not m[0]:
        return m, [], 1
    nrows, ncols = len(m), len(m[0])
    pivots = []
    level = [1] * nrows  # the pivot value each row was last brought to
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        # the rows to visit, and the pivot: the first of them from row r on
        hit = [i for i in range(0 if reduce else r, nrows) if m[i][c]]
        k = bisect_left(hit, r)
        if k == len(hit):
            continue
        piv = hit.pop(k)
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        prow = m[r]
        if level[r] != prev:
            prow = m[r] = [x * prev // level[r] for x in prow]
        p = prow[c]
        for i in hit:
            row, lv = m[i], level[i]
            a = row[c]
            m[i] = [(p * x - a * y) // lv for x, y in zip(row, prow)]
            level[i] = p
        level[r] = prev = p  # the pivot row stands at its own pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if reduce:
        for i in range(r):
            if level[i] != prev:
                m[i] = [x * prev // level[i] for x in m[i]]
    return m, pivots, sign


def echelon_basis(rows) -> list[list[int]]:
    """The pivot rows of the echelon form of ``rows``: an integer basis
    of their row space, one row per unit of rank."""
    m, pivots, _ = _eliminate(rows, reduce=False)
    return m[:len(pivots)]


def rank(rows) -> int:
    """Exact rank: the number of pivots of the echelon form."""
    return len(_eliminate(rows, reduce=False)[1])


def skew_rank(rows) -> int:
    """Exact rank of a skew-symmetric integer matrix, given by its rows
    above the diagonal (see the module docstring): two per pivot of the
    Pfaffian elimination. Rows of the wrong lengths raise
    ``DimensionMismatch``, and a non-int entry ``TypeError``."""
    return 2 * len(_skew_steps(rows))


def skew_null_vector(rows) -> tuple[int, list[int] | None]:
    """``(rank, x)`` for a skew-symmetric integer matrix A, given and
    refused as ``skew_rank`` takes and refuses it. When the last index
    stays unpaired, x is the integer vector with A x = 0 that is the last
    pivot (1 when nothing pairs) at the last index and 0 at every other
    unpaired one; otherwise, or when A is empty, x is None.

    Back-substitution runs the steps last first: a step's pivot block
    [[0, p], [-p, 0]] on the pair (i, j) and its rows a and b give
    x_i = sum_l b_l x_l / p and x_j = -sum_l a_l x_l / p, summed over the
    indices still live after it (a and b are zero on the others, but for
    a_j = p, met while x_j is still 0). With the last entry the Pfaffian
    of the paired block, the solution is unique at that scale and its
    entries are Pfaffians of principal minors, up to sign, so every
    division is exact.
    """
    steps = _skew_steps(rows)
    n = len(rows)
    if not n or any([j == n - 1 for _, j, _, _, _ in steps]):
        return 2 * len(steps), None
    xr = [0] * n  # x from the last index down, as the pivot rows are stored
    xr[0] = steps[-1][2] if steps else 1
    for i, j, p, a, b in reversed(steps):
        (xi, ri), (xj, rj) = divmod(dot(b, xr), p), divmod(-dot(a, xr), p)
        invariant(ri == rj == 0, "back-substitution must divide exactly")
        xr[n - 1 - i], xr[n - 1 - j] = xi, xj
    return 2 * len(steps), xr[::-1]


def _skew_steps(rows) -> list[tuple[int, int, int, list[int], list[int]]]:
    """The steps of the Pfaffian elimination of the skew matrix whose rows
    above the diagonal are ``rows`` (see the module docstring), in order,
    as ``(i, j, p, a, b)``: the pivot pair, the pivot p (the Pfaffian of
    the matrix on the pairs so far, each listed i before j) and the rows
    i and j of B that the step reads, brought to the previous pivot and
    padded to all n columns, last column first (a[n - 1 - l] = a_l).
    ``rows`` is not changed."""
    upper = list(rows)
    n = len(upper)
    if [*map(len, upper)] != [*range(n - 1, -1, -1)]:
        raise DimensionMismatch("skew elimination needs n - 1 - k entries "
                                "in row k")
    _refuse_non_ints(upper)
    level = [1] * n
    live = list(range(n))
    steps, prev = [], 1
    while live:
        i = live.pop(0)
        row = upper[i]
        c = next(compress(count(), reversed(row)), None)
        if c is None:
            continue
        j = i + 1 + c
        live.remove(j)
        if level[i] != prev:
            row = [x and x * prev // level[i] for x in row]
        a = [*row] + [0] * (i + 1)
        p = a[n - 1 - j]
        row = upper[j]
        if level[j] != prev:
            row = [x and x * prev // level[j] for x in row]
        b = [*row] + [0] * (j + 1)
        for k in live:  # b_k = -B_kj for the live k before j
            if k > j:
                break
            x = upper[k][n - 1 - j]
            if x:
                b[n - 1 - k] = (-x if level[k] == prev
                                else -x * prev // level[k])
        for k in live:
            ak, bk = a[n - 1 - k], b[n - 1 - k]
            if not (ak or bk):
                continue
            lv = level[k]
            if lv == prev:
                upper[k] = [(p * x + bk * al - ak * bl) // prev
                            for x, al, bl in zip(upper[k], a, b)]
            else:
                s, u, v, d = p * prev, lv * bk, lv * ak, lv * prev
                upper[k] = [(s * x + u * al - v * bl) // d
                            for x, al, bl in zip(upper[k], a, b)]
            level[k] = p
        steps.append((i, j, p, a, b))
        prev = p
    return steps


def rref(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form as (nonzero rows, pivot columns), each row
    scaled to a primitive integer vector with a positive pivot."""
    m, pivots, _ = _eliminate(rows, reduce=True)
    red = []
    for row, c in zip(m, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        red.append([x // g for x in row])
    return red, pivots


def row_basis(rows) -> tuple[tuple[int, ...], ...]:
    """The rows of ``rref(rows)`` as a tuple of tuples: one canonical
    basis per row space, so two spans are equal exactly when their
    bases are."""
    return tuple([tuple(row) for row in rref(rows)[0]])


def nullspace(rows) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0}, one primitive integer vector per free
    column f, in RREF order, each positive in f. The reduced form holds
    its last pivot D in every pivot column, so that vector is D at f and
    -row[f] at each pivot, divided by its gcd."""
    if not rows:
        return []
    m, pivots, _ = _eliminate(rows, reduce=True)
    ncols = len(rows[0])
    d = m[0][pivots[0]] if pivots else 1
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(m, pivots):
            v[p] = -row[f]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple([x // g for x in v]))
    return basis


def adjugate(rows) -> list[list[int]] | None:
    """adj(A) = det(A) A^-1 for a square integer matrix A, or None when A
    is singular: Gauss-Jordan on [A | I] ends at [D I | D A^-1], D the
    last pivot, which the sign of the row permutation turns into det(A)."""
    n = len(rows)
    if {*map(len, rows)} - {n}:
        raise DimensionMismatch("adjugate needs a square matrix")
    aug = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)]
           for i, row in enumerate(rows)]
    m, pivots, sign = _eliminate(aug, reduce=True)
    if pivots != list(range(n)):
        return None
    return [[sign * x for x in row[n:]] for row in m]


def mat_mul(a, b) -> tuple[tuple, ...]:
    """Product of two matrices, skipping zero entries of both factors."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for aik, brow in zip(row, b):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        acc[j] += aik * bkj
        out.append(tuple(acc))
    return tuple(out)


def dot(u, v):
    return sum(map(mul, u, v))
