"""Exact linear algebra over the rationals, on one integer kernel.

Matrices are sequences of rows; vectors are tuples. Entries are ints or
``fractions.Fraction``. No floating point: rank decisions made here are
the ground truth for everything else in the package.

All elimination runs through ``_eliminate``: Bareiss' fraction-free
Gauss-Jordan on rows cleared of denominators (row scaling changes
neither row space nor kernel). Each update divides exactly by the
previous pivot, so entries stay minors of the cleared matrix, bounded by
Hadamard's inequality. ``rref`` and ``nullspace`` return primitive
integer vectors; ``adjugate`` and ``pivot_solution`` return integers,
and only ``solve`` returns Fractions.

``pivot_solution`` solves A x = b without clearing above the pivots. Let
D be the last pivot of the echelon form of the cleared [A | b]: the
leading minor on the pivot columns, in the rows that gave the pivots. By
Cramer's rule D x is then an integer vector for the solution x that is
zero on the free columns, so back-substitution on the pivot rows,
y_i = (D b_i - sum_{j > i} U_{i,p_j} y_j) / U_{i,p_i}, divides exactly
at every step.

A row whose entry in the pivot column is zero would only be rescaled by
p / prev, the new pivot over the old. That rescaling is deferred: the
row keeps the pivot value it was last brought to, its level, and the
pending factors telescope to prev / level. They are paid once, when the
row is next combined (dividing by its level instead of by prev), when it
becomes the pivot row, or at the end of a reduction. Each of
these yields the integer the eager step would have held, so every
returned entry is still the same minor, and on sparse matrices most
rows skip most passes.

Tuples and star-arguments are built from lists: CPython parks a resized
generator-built tuple on a free list that only a full garbage collection
empties, which integer work seldom triggers (peak RSS grew ~1 MB).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import invariant


def _int_row(row) -> list[int]:
    if all(type(x) is int for x in row):
        return list(row)
    fr = [Fraction(x) for x in row]
    mult = lcm(*[x.denominator for x in fr])
    return [x.numerator * (mult // x.denominator) for x in fr]


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, keeping direction.

    The zero vector maps to itself.
    """
    ints = _int_row(vec)
    g = gcd(*ints) or 1
    return tuple([x // g for x in ints])


def _eliminate(rows, reduce: bool) -> tuple[list[list[int]], list[int], int]:
    """(matrix, pivot columns, sign of the row permutation); the pivot
    rows come first. ``reduce`` also clears above each pivot, leaving the
    last pivot value in every pivot column and zeros elsewhere in it."""
    m = [_int_row(row) for row in rows]
    if not m or not m[0]:
        return m, [], 1
    nrows, ncols = len(m), len(m[0])
    pivots = []
    stale = {}  # row index -> the pivot value the row was last brought to
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        if stale:
            # bring the pivot row up to date; its level is still keyed by
            # the index it came from, and the row it displaced takes that key
            level = stale.pop(piv, 0)
            if r in stale:
                stale[piv] = stale.pop(r)
            if level:
                m[r] = [x * prev // level for x in m[r]]
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            a = row[c]
            if a:
                level = stale.pop(i, prev) if stale else prev
                m[i] = [(p * x - a * y) // level for x, y in zip(row, prow)]
            elif p != prev and i not in stale:
                stale[i] = prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if reduce and stale:
        for i, level in stale.items():
            m[i] = [x * prev // level for x in m[i]]
    return m, pivots, sign


def rank(rows) -> int:
    """Exact rank: the number of pivots of the echelon form."""
    return len(_eliminate(rows, reduce=False)[1])


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
    column, in RREF order, each positive in its free column."""
    if not rows:
        return []
    red, pivots = rref(rows)
    return rref_kernel(red, pivots, len(rows[0]))


def rref_kernel(red, pivots, ncols) -> list[tuple[int, ...]]:
    """``nullspace`` of the first ``ncols`` columns, read off ``rref``'s
    output ``(red, pivots)``; columns past ``ncols``, such as an
    augmented right-hand side, are ignored."""
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        used = [(row, p) for row, p in zip(red, pivots) if row[f]]
        mult = lcm(*[row[p] for row, p in used])
        v = [0] * ncols
        v[f] = mult
        for row, p in used:
            v[p] = -row[f] * (mult // row[p])
        g = gcd(*v)
        basis.append(tuple([x // g for x in v]))
    return basis


def pivot_solution(rows, rhs) -> tuple[list[int], int, list[int]] | None:
    """Solve A x = b by one echelon elimination of [A | b] and integer
    back-substitution: ``(pivots, D, y)``, or None when b is a pivot
    column (the system is inconsistent).

    ``pivots`` are A's pivot columns and D the last pivot (1 when there
    is none); ``y[i] = D x[pivots[i]]`` for the solution x that is zero
    on the free columns. The echelon pivot rows are final: a row whose
    scaling was deferred is brought up to date when it becomes the pivot
    row, and later passes never touch it again.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots, _ = _eliminate(aug, reduce=False)
    if aug and len(aug[0]) - 1 in pivots:
        return None
    r = len(pivots)
    d = m[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for i in range(r - 1, -1, -1):
        row = m[i]
        acc = d * row[-1]
        for p, yj in zip(pivots[i + 1:], y[i + 1:]):
            if row[p]:
                acc -= row[p] * yj
        y[i], rem = divmod(acc, row[pivots[i]])
        invariant(rem == 0, "back-substitution must divide exactly")
    return pivots, d, y


def solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One solution of A x = b, zero on the free columns, or None when
    inconsistent."""
    if not rows:
        return None
    found = pivot_solution(rows, rhs)
    if found is None:
        return None
    pivots, d, y = found
    x = [Fraction(0)] * len(rows[0])
    for p, yp in zip(pivots, y):
        x[p] = Fraction(yp, d)
    return tuple(x)


def adjugate(rows) -> list[list[int]] | None:
    """det(A) A^-1 for a square integer matrix A, or None when singular."""
    # Gauss-Jordan on [A | I] ends at [D I | D A^-1], with D the last
    # pivot; the permutation sign turns D into det(A) for integral A.
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    m, pivots, sign = _eliminate(aug, reduce=True)
    if pivots != list(range(n)):
        return None
    return [[sign * x for x in row[n:]] for row in m]


def mat_vec(rows, vec) -> tuple:
    return tuple([sum([a * x for a, x in zip(row, vec)]) for row in rows])


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
