"""Independent matrix oracles over exact rationals (type A models).

Everything here works inside sl_n realized as trace-zero n x n matrices,
with the trace form tr(xy) in place of the Killing form. The two differ
by the positive scalar 2n, which cannot change any rank, kernel, or
radical computed here; the scaling property test in the suite guards
that claim. For the same reason ``random_conjugate`` returns
g e adj(g) = det(g) g e g^-1 rather than g e g^-1: a nonzero multiple
of a conjugate has the same rank, kernel and Jordan type, and stays an
integer matrix.

The basis of sl_n is held by its supports: each element, E_ij for
i != j and then H_i = E_ii - E_{i+1,i+1}, is the tuple of its nonzero
entries (i, j, x), at most two of them. ``_supports(n)`` is a constant,
built once per n; a model holds only n and e. An entry x of b at (i, j)
makes [e, b] one column and one row update of e: x times column i of e
added to column j, and x times row j of e taken from row i. It makes
tr(X b) the single term x X[j][i]. Every element's first entry is 1, so
the trace form against a basis is a gather of entries of X, and only
the H_i add a second term.

``contact_check`` runs one skew elimination and no general one: the
Pfaffian elimination of the KKS Gram matrix K_ab = tr([e, b_a] b_b),
bordered by theta_a = tr(e b_a) and -theta, border last
(``ratlinalg.skew_null_vector``). The radical of K is the centralizer z
of e, so rank K = dim O, and theta vanishes on z exactly when it lies
in the row space of K; then the bordered rank is rank K and the border
is never paired, and otherwise it is paired (theta is off the row
space, which is e not in im ad_e, since im ad_e = z^perp). The omega
ranks follow: ker theta has dimension dim O - 1 in g / z, and omega,
nondegenerate there, has rank dim O - 2 on it (by congruence, the
bordered rank less 2, once theta vanishes on z). Back-substitution
through the elimination's 2 x 2 steps gives x = (v, t) in its kernel,
t the last pivot: K v = -t theta and theta . v = 0. By trace
cyclicity K v = -t theta says tr([e, Y] b) = t tr(e b) for every basis
element b, Y = sum v_k b_k; the tangent vector [e, Y] spans the
radical of omega on ker theta. The witness W = e Y - Y e, two n x n
products that share nothing with the gathered form, equal to t e on
all n^2 entries (t != 0), puts that radical on the Euler line. So the
checks that can fail are the border (theta off the row space) and the
witness (the radical off the Euler line); the rank of omega on the
image of ad_e, apart from dim O, is checked by the ``ad-rank`` and
``kks`` suites.

Models are integer matrices: the Jordan forms, the nilradical samples
and the conjugates are built from ints, and every product stays
integral. They are nilpotent by construction, so the builders make
``MatrixModel`` records directly: a Jordan form is strictly upper
triangular, and adj(g) g = det(g) I gives
(g e adj g)^k = det(g)^(k-1) g e^k adj g. A matrix from a caller is
checked once, where it enters: ``matrix_model`` refuses it unless it is
square, within ``ADDIM_SIZE_CAP`` and nilpotent, as decided by
``jordan_type``, the only nilpotency test here. That test walks the
ranks of the powers of e to the first zero power, which is not
eliminated; a strictly upper triangular e is nilpotent already, and by
the Frobenius rank inequality (the drops rank(e^(k-1)) - rank(e^k)
never increase, and stay >= 1 up to rank 0) its walk stops at its first
drop of 1. Fractions appear only where an entry really is rational: in
such a matrix (the tests rescale models by rational factors), and then
in the forms built from it. The kernel in ``ratlinalg`` accepts both.
Tuples are built from lists, for the reason given there.

These oracles are deliberately independent of the combinatorial
formulas they validate: dimensions come from ranks of ad maps, Richardson
partitions from Jordan types of certified generic nilradical samples
(each entry drawn from the stream that ``randint(-9, 9)`` draws),
Springer degrees from exact flag counting. The size caps are constants,
``ADDIM_SIZE_CAP`` and ``FIBER_SIZE_CAP``. All randomness is seeded and
the seed strings are derivable by callers for reporting.
``MatrixModel`` and ``ContactCheckResult`` are named tuples (see
``lie_core``).
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import index

from .errors import (
    ContactresError,
    DimensionMismatch,
    InvalidPartition,
    NonFiniteFiber,
    NonGenericSample,
    SizeCapExceeded,
    ZeroElement,
    invariant,
)
from .ratlinalg import (
    adjugate,
    dot,
    echelon_basis,
    mat_mul,
    nullspace,
    rank,
    rational,
    row_basis,
    skew_null_vector,
    skew_rank,
)

ADDIM_SIZE_CAP = 8   # ad_e acts on an (n^2-1)-dim space; keep desk scale
FIBER_SIZE_CAP = 8   # all 255 compositions of n <= 8 count in ~1 s
# Draws per seed before NonGenericSample: every composition of n <= 8 at
# seeds 0-149 was certified within 1.08 draws on average and 8 at most;
# (1,)*8 misses ~35% of draws, so all 32 miss with probability ~1e-15.
GENERIC_DRAWS = 32

Matrix = tuple[tuple[int | Fraction, ...], ...]


def _zeros(n) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _exact(x):
    if type(x) is int:
        return x
    x = rational(x)
    return x.numerator if x.denominator == 1 else x


def _freeze(rows) -> Matrix:
    return tuple([tuple([_exact(x) for x in row]) for row in rows])


def _vec(m: Matrix) -> tuple:
    return tuple([x for row in m for x in row])


@lru_cache(maxsize=None)
def _supports(n: int) -> tuple[tuple[tuple, ...], ...]:
    """The basis of sl_n by the nonzero entries (i, j, x) of each element:
    E_ij for i != j, then H_i = E_ii - E_{i+1,i+1}. Built once per n."""
    return tuple([((i, j, 1),) for i in range(n) for j in range(n) if i != j]
                 + [((i, i, 1), (i + 1, i + 1, -1)) for i in range(n - 1)])


def _positive_parts(parts, kind: str, cap: int) -> tuple[int, ...]:
    """A partition or composition (``kind``) of at most ``cap``: one part
    at least, every part an int > 0 (a float raises ``TypeError``)."""
    parts = tuple([index(p) for p in parts])
    if not parts or min(parts) < 1:
        raise InvalidPartition(f"need one part at least, all > 0: {parts}")
    refuse_over_cap(sum(parts), kind, cap)
    return parts


def refuse_over_cap(n: int, kind: str, cap: int) -> None:
    """The size check of every partition or composition (``kind``) an
    oracle takes: one of n over ``cap`` raises ``SizeCapExceeded``."""
    if n > cap:
        raise SizeCapExceeded(f"{kind} of {n} exceeds cap {cap}")


class MatrixModel(namedtuple("MatrixModel", "n e")):
    """A nilpotent element of sl_n; the ambient basis is ``_supports(n)``."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.e for x in row)


def matrix_model(e) -> MatrixModel:
    """Wrap a rational matrix from a caller: the boundary check (square,
    within the cap, nilpotent by its Jordan type)."""
    e = _freeze(e)
    n = len(e)
    if any(len(row) != n for row in e):
        raise ContactresError("matrix model requires a square matrix")
    if n > ADDIM_SIZE_CAP:
        raise SizeCapExceeded(f"size {n} exceeds cap {ADDIM_SIZE_CAP}")
    jordan_type(e)
    return MatrixModel(n=n, e=e)


def jordan_nilpotent(part) -> MatrixModel:
    """Block Jordan nilpotent of type ``part`` with integer entries."""
    part = _positive_parts(part, "partition", ADDIM_SIZE_CAP)
    n = sum(part)
    rows = _zeros(n)
    offset = 0
    for block in part:
        for i in range(block - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += block
    return MatrixModel(n, tuple([tuple(row) for row in rows]))


def _ad_images(e: Matrix, supports) -> list[list]:
    """vec([e, b]) for each basis support: an entry x of b at (i, j) adds
    x * (column i of e) to column j and takes x * (row j of e) from row i."""
    n = len(e)
    cols = [[(r, e[r][i]) for r in range(n) if e[r][i]] for i in range(n)]
    rows = [[(s, y) for s, y in enumerate(e[j]) if y] for j in range(n)]
    images = []
    for sup in supports:
        img = [0] * (n * n)
        for i, j, x in sup:
            for r, y in cols[i]:
                img[r * n + j] += x * y
            for s, y in rows[j]:
                img[i * n + s] -= x * y
        images.append(img)
    return images


def _traces(vecs, supports, n: int) -> list[list]:
    """tr(X b) for each vec(X) in ``vecs`` (rows) and each basis support
    (columns), gathered: an entry x of b at (i, j) meets X at (j, i). A
    support's first entry is 1, so it gathers one entry of X; only the
    H_i add a second term."""
    first = [j * n + i for (i, j, _), *_ in supports]
    second = [(k, j * n + i, x) for k, (_, *rest) in enumerate(supports)
              for i, j, x in rest]
    out = []
    for v in vecs:
        row = list(map(v.__getitem__, first))
        for k, q, x in second:
            row[k] += x * v[q]
        out.append(row)
    return out


def addim(m: MatrixModel) -> int:
    """dim O = rank of ad_e on the trace-zero matrices."""
    return rank(_ad_images(m.e, _supports(m.n)))


def jordan_type(e: Matrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the ranks of its powers.

    The rows of e^(k+1) span the row space of e^k times e, so the echelon
    basis of e^k times e gives rank(e^(k+1)) and the next basis: the k-th
    elimination gets rank(e^(k-1)) rows, not n. A zero product has rank
    0 and is not eliminated. By the Frobenius rank inequality the drops
    rank(e^(k-1)) - rank(e^k) never increase, and for a nilpotent e they
    stay >= 1 until the rank is 0; so when e is strictly upper triangular
    (every Jordan model and nilradical sample), a drop of 1 from rank r
    decides the rest, r - 1, ..., 0, and the walk stops there. Any other
    matrix is walked in full, which is the nilpotency test. A non-square
    matrix raises ``DimensionMismatch``.
    """
    n = len(e)
    if any(len(row) != n for row in e):
        raise DimensionMismatch("jordan_type needs a square matrix")
    upper = not any([any(row[:i + 1]) for i, row in enumerate(e)])
    ranks = [n]
    rows = e
    for _ in range(n):
        if not any(map(any, rows)):
            ranks.append(0)
            break
        basis = echelon_basis(rows)
        ranks.append(len(basis))
        if upper and ranks[-2] - ranks[-1] == 1:
            ranks += range(ranks[-1] - 1, -1, -1)
            break
        rows = mat_mul(basis, e)
    if ranks[-1] != 0:
        raise ContactresError("matrix is not nilpotent")
    # ranks[k-1] - ranks[k] counts Jordan blocks of size >= k, i.e. the
    # k-th part of the dual partition; transpose it back.
    dual = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    part = tuple(sum(1 for d in dual if d >= j)
                 for j in range(1, max(dual, default=0) + 1))
    invariant(sum(part) == n, "Jordan type must partition n")
    return part


def kks_rank(m: MatrixModel) -> int:
    """Rank of the skew form (x, y) -> tr(e [x, y]) on trace-zero matrices.

    Its radical is the centralizer of e, so the rank recomputes dim O by a
    route independent of ad-rank: its Gram matrix is skew, and
    ``skew_rank`` eliminates it by 2 x 2 (Pfaffian) pivots.
    """
    return skew_rank(_kks_form(m))


def _kks_form(m: MatrixModel) -> list[list]:
    """Gram matrix tr([e, b_a] b_b) = tr(e [b_a, b_b]) over the basis."""
    supports = _supports(m.n)
    return _traces(_ad_images(m.e, supports), supports, m.n)


class ContactCheckResult(namedtuple(
        "ContactCheckResult", "dim_orbit theta_kernel_dim "
        "omega_rank_on_kernel radical_is_euler_line")):
    """Pointwise linearization of the contact-nondegeneracy condition."""

    __slots__ = ()

    @property
    def is_contact(self) -> bool:
        return (self.omega_rank_on_kernel == self.dim_orbit - 2
                and self.theta_kernel_dim == self.dim_orbit - 1
                and self.radical_is_euler_line)


def contact_check(m: MatrixModel) -> ContactCheckResult:
    """Check the linear-algebra shadow of contact nondegeneracy at e.

    The tangent space T_e O is the image of ad_e. The one-form sends
    [e, x] to tr(e x); this is well defined because tr(e z) vanishes on
    the centralizer z of e (verified, not assumed). On its kernel F the
    KKS form ([e,x],[e,y]) -> tr(e [x,y]) must have rank dim O - 2 with
    radical exactly the line through e, the direction collapsed by
    projectivisation; e itself is tangent since e = [h/2, e] for any
    sl_2-triple through e. One Pfaffian elimination of the KKS form
    bordered by theta answers the ranks and gives the radical, and one
    n x n witness puts it on the Euler line (see the module docstring).
    """
    if m.is_zero:
        raise ZeroElement("contact check needs a nonzero nilpotent")
    n = m.n
    supports = _supports(n)
    vec_e = _vec(m.e)
    theta = _traces([vec_e], supports, n)[0]
    form = _kks_form(m)
    # the border stays unpaired exactly when theta is in the row space of
    # the form, that is, when it vanishes on the centralizer
    d, x = skew_null_vector([row + [t] for row, t in zip(form, theta)]
                            + [[-t for t in theta] + [0]])
    invariant(x is not None, "trace form fails to vanish on the centralizer")
    *v, t = x
    invariant(dot(theta, v) == 0, "theta must vanish on the Euler direction")
    # the witness: the form says tr([e, Y] b) = t tr(e b) for every b, with
    # Y = sum v_k b_k; W = e Y - Y e, recomputed by products, must be t e
    # on all n^2 entries for the radical to be the Euler line
    y_mat = _zeros(n)
    for vk, sup in zip(v, supports):
        if vk:
            for i, j, c in sup:
                y_mat[i][j] += vk * c
    w = [a - b for ey, ye in zip(mat_mul(m.e, y_mat), mat_mul(y_mat, m.e))
         for a, b in zip(ey, ye)]
    return ContactCheckResult(
        dim_orbit=d,
        theta_kernel_dim=d - 1,
        omega_rank_on_kernel=d - 2,
        radical_is_euler_line=w == [t * c for c in vec_e],
    )


# --- Richardson / Springer oracles -------------------------------------------

def trial_seeds(seed: int) -> list[str]:
    """The first three seed strings of ``seed``'s draw stream, for
    reporting; a later draw, ``f"{seed}:{t}"``, is fixed by the same seed."""
    return [f"{seed}:{t}" for t in range(3)]


def _sample_nilradical(comp, seed_string: str) -> Matrix:
    """The block nilradical of ``comp`` with entries drawn from the stream
    ``seed_string``, row by row: each row of a block gets one entry per
    column after the block. An entry is ``getrandbits(5)``, redrawn until
    it is below 19, minus 9: ``randint(-9, 9)``'s stream, drawn the same
    way (``_randbelow(19)``) without its three Python calls per entry."""
    bits = random.Random(seed_string).getrandbits
    n, end, rows = sum(comp), 0, []
    for size in comp:
        end += size
        for _ in range(size):
            row = [0] * end
            while len(row) < n:
                x = bits(5)
                if x < 19:
                    row.append(x - 9)
            rows.append(tuple(row))
    return tuple(rows)


def _generic_sample(comp, seed: int) -> tuple[Matrix, tuple[int, ...]]:
    """The first sample of the block nilradical n_P in the draw stream
    ``seed:0, seed:1, ...`` that is certified generic, with its type.

    e is generic exactly when dim G.e = 2 dim n_P (Richardson, 1974): when
    its centralizer in gl_n has the Levi's dimension, sum c^2 over the
    blocks c. e of Jordan type lambda, weakly decreasing from index 0,
    has a centralizer of dimension sum (2i + 1) lambda_i (Collingwood and
    McGovern); no recipe under test is read. Raises
    :class:`NonGenericSample` after ``GENERIC_DRAWS`` draws.
    """
    centralizer = sum([c * c for c in comp])
    for t in range(GENERIC_DRAWS):
        e = _sample_nilradical(comp, f"{seed}:{t}")
        part = jordan_type(e)
        if sum([(2 * i + 1) * p for i, p in enumerate(part)]) == centralizer:
            return e, part
    raise NonGenericSample(
        f"no generic sample for {comp} in {GENERIC_DRAWS} draws of seed "
        f"{seed}; reseed and retry")


def generic_jordan_type(comp, seed: int = 0) -> tuple[int, ...]:
    """Jordan type of a generic element of the block nilradical: that of
    the first certified sample drawn from ``seed``."""
    comp = _positive_parts(comp, "composition", ADDIM_SIZE_CAP)
    return _generic_sample(comp, seed)[1]


# --- Springer fiber counting ---------------------------------------------------

# Subspaces are canonical RREF row bases (tuples of primitive integer
# tuples).

def _contains(big, small) -> bool:
    return rank(big + small) == len(big)


def _fiber_bounds(e: Matrix, comp) -> tuple[list, list]:
    """The two families of lower bounds of :func:`generic_fiber_count` at
    their least fixpoint: ``lower[i] <= V_i``, ``ann[k - i] <= V_i^perp``.

    Rows are vectors, so ``lower`` grows under e^T and ``ann`` under e. A
    (step, family) pair is recomputed only after a neighbour in its family
    changed, and a bound that reaches its step's dimension writes its
    annihilator into the other family at once. Every update is monotone
    and every bound a canonical RREF, so the fixpoint is unique and the
    order of the updates changes no bound.
    """
    n, k = sum(comp), len(comp)
    dims = [0, *accumulate(comp)]
    size = (dims, [n - d for d in reversed(dims)])
    acts = (list(zip(*e)), e)
    whole = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
    bounds = ([()] * k + [whole], [()] * k + [whole])
    todo = {(i, f) for f in (0, 1) for i in range(1, k)}
    while todo:
        # highest step first: both families grow down from V_k, and the
        # order (so the work) hangs on no set hashing
        i, f = pair = max(todo)
        todo.remove(pair)
        bound = bounds[f]
        new = row_basis(bound[i] + bound[i - 1]
                        + mat_mul(bound[i + 1], acts[f]))
        if len(new) == len(bound[i]):
            continue
        invariant(len(new) <= size[f][i],
                  "no bound may overshoot: e lies in the block "
                  "nilradical, so the standard flag is in its fiber")
        bound[i], changed = new, [(i, f)]
        other = bounds[1 - f]
        if len(new) == size[f][i] and len(other[k - i]) < n - len(new):
            other[k - i] = row_basis(nullspace(new))
            changed.append((k - i, 1 - f))
        todo.update([(j + d, g) for j, g in changed for d in (-1, 1)
                     if 0 < j + d < k])
    return bounds


def generic_fiber_count(comp, seed: int = 0) -> int:
    """Certify that the Springer fiber over a generic Richardson element
    is one point, and return that cardinality, 1.

    The fiber is the set of flags 0 = V_0 < V_1 < ... < V_k = C^n of type
    ``comp`` with e V_i inside V_{i-1}; exact constraint propagation forces
    it to a single flag. A lower bound on each V_i grows by
    V_i >= V_{i-1} + e V_{i+1}. The annihilators V_{k-i}^perp form a flag
    of type ``reversed(comp)`` for e^T, so the same rule grows lower
    bounds on them, which intersects V_i with V_{i+1} and e^-1 V_{i-1}. A
    step is forced once either bound reaches its dimension, and the other
    is then its annihilator; one worklist (:func:`_fiber_bounds`) grows
    both families and forces the steps. The element is the certified
    sample of :func:`generic_jordan_type`, and fibers over one orbit are
    isomorphic, so a step left unforced at the fixpoint means that the
    linear propagation is incomplete, not that the sample is special; it
    raises ``NonFiniteFiber``.
    """
    comp = _positive_parts(comp, "composition", FIBER_SIZE_CAP)
    if len(comp) == 1:
        return 1  # V_1 = C^n and the nilradical is zero

    e, _ = _generic_sample(comp, seed)
    lower, _ = _fiber_bounds(e, comp)
    if [len(b) for b in lower] != [0, *accumulate(comp)]:
        raise NonFiniteFiber(
            f"solution set for {comp} not forced to a point; "
            f"the linear propagation is incomplete here")

    e_t = list(zip(*e))
    for i in range(1, len(lower)):
        invariant(_contains(lower[i], lower[i - 1])
                  and _contains(lower[i - 1], mat_mul(lower[i], e_t)),
                  "the forced flag must be a flag of type comp stable under e")
    return 1


# --- seeded model transforms ---------------------------------------------------

def random_conjugate(m: MatrixModel, seed: int) -> MatrixModel:
    """Conjugate e by a seeded random invertible integer matrix g.

    Returns g e adj(g) = det(g) g e g^-1, an integer matrix with the rank,
    kernel and Jordan type of the conjugate g e g^-1, as the transpose of
    adj(g^T) (g e)^T: one Gauss-Jordan elimination of [g^T | (g e)^T]. An
    entry of g is ``getrandbits(3)``, redrawn until it is below 7, minus
    3: ``randint(-3, 3)``'s stream; g is redrawn while singular.
    """
    bits = random.Random(f"{seed}:conj").getrandbits
    n = m.n
    e_t = [*zip(*m.e)]
    while True:
        g = []  # row by row
        while len(g) < n * n:
            x = bits(3)
            if x < 7:
                g.append(x - 3)
        g_t = [g[i::n] for i in range(n)]
        conj_t = adjugate(g_t, mat_mul(e_t, g_t))
        if conj_t is not None:
            return MatrixModel(n, tuple([*zip(*conj_t)]))
