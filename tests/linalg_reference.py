"""Reference linear algebra the tests check the package against: a
matrix-vector product, a solver of A x = b, and the conversion of a
skew matrix to the rows above its diagonal that ``ratlinalg``'s skew
elimination takes; no package code calls any of them.

``pivot_solution`` solves A x = b on the package's echelon elimination
without clearing above the pivots. The elimination takes ints, so each
row of [A | b] is first cleared of its denominators (``_int_row``),
which moves no solution. Let D be the last pivot of the echelon form of
the cleared [A | b]: the leading minor on the pivot columns, in the rows
that gave the pivots. By Cramer's rule D x is then an integer vector
for the solution x that is zero on the free columns, so
back-substitution on the pivot rows,
y_i = (D b_i - sum_{j > i} U_{i,p_j} y_j) / U_{i,p_i}, divides exactly
at every step.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, getitem

from contactres.errors import DimensionMismatch, invariant
from contactres.ratlinalg import _eliminate, _int_row, rational


def mat_vec(rows, vec) -> tuple:
    return tuple([sum([a * x for a, x in zip(row, vec)]) for row in rows])


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
    aug = [_int_row([*row, b]) for row, b in zip(rows, rhs)]
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


def _skew_upper(rows) -> list[list[int]]:
    """Row k of a square, skew matrix above the diagonal, from the last
    column down to column k + 1, as ints: Fractions there are cleared by
    one common denominator (clearing each row apart would break the skew
    symmetry), and a float there is refused with ``TypeError``."""
    n = len(rows)
    if {*map(len, rows)} - {n}:
        raise DimensionMismatch("skew_rank needs a square matrix")
    upper = [row[:k:-1] for k, row in enumerate(rows)]
    lower = [col[:k:-1] for k, col in enumerate(zip(*rows))]
    if (any(map(add, chain.from_iterable(upper), chain.from_iterable(lower)))
            or any(map(getitem, rows, range(n)))):
        raise ValueError("skew_rank needs a skew-symmetric matrix")
    if type(sum(chain.from_iterable(upper))) is not int:  # a Fraction or float
        fr = [[rational(x) for x in row] for row in upper]
        mult = lcm(*[x.denominator for row in fr for x in row])
        upper = [[x.numerator * (mult // x.denominator) for x in row]
                 for row in fr]
    return upper
