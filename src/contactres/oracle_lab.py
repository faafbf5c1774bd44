"""Independent matrix oracles on integer matrices (type A models).

Everything here works inside sl_n realized as trace-zero n x n matrices,
with the trace form tr(xy) in place of the Killing form. The two differ
by the positive scalar 2n, which cannot change any rank, kernel, or
radical computed here; the scaling property test in the suite guards
that claim. ``random_conjugate`` returns g e g^-1 itself, an integer
matrix with small entries: g is a product of unit triangular matrices
with off-diagonal entries +-1, so det(g) = 1 and g^-1 = adj(g).

The basis of sl_n is held by its supports: each element, E_ij for
i != j and then H_i = E_ii - E_{i+1,i+1}, is the tuple of its nonzero
entries (i, j, x), at most two of them. ``_supports(n)`` is a constant,
built once per n; a model holds only n and e. An entry x of b at (i, j)
makes [e, b] one column and one row update of e: x times column i of e
added to column j, and x times row j of e taken from row i (``addim``).

The KKS form K_ab = tr([e, b_a] b_b) = tr(e [b_a, b_b]) and the
contact form theta_a = tr(e b_a) are read off e's entries, as
tr(e [E_ij, E_kl]) = d_jk e_li - d_li e_jk: the row of E_ij holds e_li
at E_jl (less e_jj at E_ji), -e_jk at E_ki, and at H_h e_ji times a
difference of two diagonal terms; theta(E_ij) = e_ji. Past the diagonal
the row of H_h is zero (diagonal matrices commute) but for its border,
theta(H_h) = e_hh - e_{h+1,h+1}. ``_kks_plan(n)`` applies the formula
to each entry of each row, once per n in O(n^3) terms, and places each
entry of e in K bordered by theta, border last, as the rows above the
diagonal, last column first, that ``ratlinalg``'s skew elimination
reads. ``kks_rank`` and ``contact_check`` fill it from e's ints.

``contact_check`` runs one Pfaffian elimination of the bordered form
(``ratlinalg.skew_null_vector``) and no general one. The radical of K
is the centralizer z of e, so rank K = dim O, and theta vanishes on z
exactly when it lies in the row space of K (im ad_e = z^perp): then the
border stays unpaired, the bordered rank is rank K, and on ker theta,
of dimension dim O - 1 in g / z, omega has rank dim O - 2 (by
congruence, the bordered rank less 2). Back-substitution gives
x = (v, t) in the kernel, t the last pivot: K v = -t theta and
theta . v = 0, which by trace cyclicity says tr([e, Y] b) = t tr(e b)
for every b, Y = sum v_k b_k, so [e, Y] spans the radical of omega on
ker theta. The witness W = e Y - Y e, two n x n products apart from
the plan, equal to t e entry by entry (t != 0), puts it on the Euler
line; the ``ad-rank`` and ``kks`` suites check dim O apart from it.

Models are integer matrices, as ``ratlinalg`` takes them, and nilpotent
by construction, so the builders make ``MatrixModel`` records directly:
a Jordan form is strictly upper triangular, the samples are ints, and
(g e g^-1)^k = g e^k g^-1. A matrix from a caller enters by
``matrix_model``, the one door here for
a Fraction: it scales the matrix to ints by the lcm of its entries'
denominators, which moves no rank, Jordan type, kernel line or witness,
and refuses it unless square, within ``ADDIM_SIZE_CAP`` and nilpotent
(by ``jordan_type``, the only nilpotency test here). A model built by
hand skips the door, and every oracle refuses a non-int entry before
any work. Tuples are built from lists, for the reason given in
``ratlinalg``.

These oracles are deliberately independent of the formulas they
validate: dimensions come from ranks of ad maps, Richardson partitions
from Jordan types of certified generic nilradical samples (each entry
from ``randint(-9, 9)``'s stream), Springer degrees from exact flag
counting. The size caps are constants, ``ADDIM_SIZE_CAP`` and
``FIBER_SIZE_CAP``. All randomness is seeded, and callers can derive
the seed strings for reporting. A draw hangs only on (seed, n), and is
made once per process (``_conjugator``, ``_entries``); no cache is keyed
by a model or a composition. The records are named tuples.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate, islice
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
    _int_row,
    adjugate,
    dot,
    echelon_basis,
    mat_mul,
    nullspace,
    rank,
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

Matrix = tuple[tuple[int, ...], ...]


def _zeros(n) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _vec(m: Matrix) -> tuple:
    """vec(m), refused unless its entries are ints (see ``matrix_model``).
    A bool is an int, as in ``ratlinalg``: a sum is an int iff its terms
    are."""
    vec = tuple([x for row in m for x in row])
    if type(sum(vec)) is not int:
        raise TypeError("oracle models need int entries: see matrix_model")
    return vec


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


def matrix_model(e) -> MatrixModel:
    """Wrap a rational matrix from a caller as the integer matrix L e, L
    the lcm of its entries' denominators (an int matrix is kept as it is),
    then check it once (square, within the cap, nilpotent by its Jordan
    type). No oracle value moves under the positive scalar L."""
    rows = [*map(list, e)]
    vec = _int_row([x for row in rows for x in row])
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ContactresError("matrix model requires a square matrix")
    if n > ADDIM_SIZE_CAP:
        raise SizeCapExceeded(f"size {n} exceeds cap {ADDIM_SIZE_CAP}")
    e = tuple([tuple(vec[i * n:i * n + n]) for i in range(n)])
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


def addim(m: MatrixModel) -> int:
    """dim O = rank of ad_e on the trace-zero matrices."""
    _vec(m.e)  # refuses a non-int entry
    return rank(_ad_images(m.e, _supports(m.n)))


def jordan_type(e: Matrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the ranks of its powers.

    The echelon basis of e^k times e gives rank(e^(k+1)) and the next
    basis, so the k-th elimination gets rank(e^(k-1)) rows, not n; a zero
    product is not eliminated. By the Frobenius rank inequality the drops
    rank(e^(k-1)) - rank(e^k) never increase, and stay >= 1 until the
    rank is 0, so on a strictly upper triangular e (every Jordan model and
    nilradical sample) a drop of 1 from rank r decides the rest and the
    walk stops. Any other matrix is walked in full: the nilpotency test.
    A non-square matrix raises ``DimensionMismatch``.
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


@lru_cache(maxsize=None)
def _kks_plan(n: int) -> tuple[tuple, list[int]]:
    """``(sources, starts)``: the bordered KKS form's layout, flat, row k
    from starts[k] to starts[k + 1], theta_k first, the border's row empty.
    Entry q of vec(e) is added at sources[q][0] and taken at sources[q][1]."""
    supports = _supports(n)
    size = len(supports)  # the border's index
    in_row, in_col = [[] for _ in range(n)], [[] for _ in range(n)]
    for b, sup in enumerate(supports):
        for r, c, y in sup:
            in_row[r].append((b, c, y))
            in_col[c].append((b, r, y))
    plus, minus = [[] for _ in range(n * n)], [[] for _ in range(n * n)]
    starts = [0]
    for k, sup in enumerate(supports):
        terms = Counter()  # (column, entry of e) -> coefficient
        for i, j, x in sup:  # tr(e [E_ij, E_kl]) = d_jk e_li - d_li e_jk
            terms[size, j * n + i] += x
            for b, l, y in in_row[j]:
                terms[b, l * n + i] += x * y
            for b, l, y in in_col[i]:
                terms[b, j * n + l] -= x * y
        for (col, q), c in terms.items():
            if col > k:
                pos = starts[k] + size - col
                (plus if c > 0 else minus)[q] += [pos] * abs(c)
        starts.append(starts[k] + size - k)
    starts.append(starts[-1])  # the end of the border's row
    return tuple([(tuple(p), tuple(q)) for p, q in zip(plus, minus)]), starts


def _kks_layout(m: MatrixModel) -> tuple[tuple, list[int], list[int]]:
    """``(vec, flat, starts)``: ``_kks_plan`` filled from vec(e)."""
    vec = _vec(m.e)
    sources, starts = _kks_plan(m.n)
    flat = [0] * starts[-1]
    for x, (plus, minus) in zip(vec, sources):
        if x:
            for f in plus:
                flat[f] += x
            for f in minus:
                flat[f] -= x
    return vec, flat, starts


def kks_rank(m: MatrixModel) -> int:
    """Rank of the skew form (x, y) -> tr(e [x, y]) on trace-zero matrices:
    dim O (the radical is the centralizer), by a route apart from ad-rank."""
    _, flat, starts = _kks_layout(m)
    # each row but the border's, less its first entry, theta
    return skew_rank([flat[a + 1:b] for a, b in zip(starts, starts[1:-1])])


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

    T_e O is the image of ad_e, and the one-form [e, x] -> tr(e x) is well
    defined as tr(e z) vanishes on the centralizer z (verified, not
    assumed). On its kernel the KKS form must have rank dim O - 2 with
    radical the line through e (tangent: e = [h/2, e]), the direction
    projectivisation collapses: one elimination, one witness (module doc).
    """
    vec_e, flat, starts = _kks_layout(m)
    if not any(vec_e):
        raise ZeroElement("contact check needs a nonzero nilpotent")
    n, e = m.n, m.e
    theta = [flat[a] for a in starts[:-2]]
    # theta off the row space of the form (not zero on z) pairs the border
    d, x = skew_null_vector([flat[a:b] for a, b in zip(starts, starts[1:])])
    invariant(x is not None, "trace form fails to vanish on the centralizer")
    *v, t = x
    invariant(dot(theta, v) == 0, "theta must vanish on the Euler direction")
    # the witness: W = e Y - Y e, Y = sum v_k b_k, must be t e entry by entry
    y_mat = _zeros(n)
    for vk, sup in zip(v, _supports(n)):
        if vk:
            for i, j, c in sup:
                y_mat[i][j] += vk * c
    w = [a - b for ey, ye in zip(mat_mul(e, y_mat), mat_mul(y_mat, e))
         for a, b in zip(ey, ye)]
    return ContactCheckResult(
        dim_orbit=d,
        theta_kernel_dim=d - 1,
        omega_rank_on_kernel=d - 2,
        radical_is_euler_line=w == [t * c for c in vec_e],
    )


# --- Richardson / Springer oracles -------------------------------------------

def _trial_seed(seed: int, t: int) -> str:
    return f"{seed}:{t}"


def trial_seeds(seed: int) -> list[str]:
    """``seed``'s first three trial seed strings, for reporting."""
    return [_trial_seed(seed, t) for t in range(3)]


def _randints(seed_string: str, k: int):
    """``randint(-k, k)``'s stream seeded by ``seed_string``, as ``_randbelow``
    draws it: (2k + 1).bit_length() bits, redrawn while >= 2k + 1, less k."""
    bits, size = random.Random(seed_string).getrandbits, 2 * k + 1
    width = size.bit_length()
    while True:
        x = bits(width)
        if x < size:
            yield x - k


@lru_cache
def _entries(seed_string: str, n: int) -> tuple[int, ...]:
    """The first n(n - 1)/2 entries of the stream ``seed_string``, the most
    a block nilradical of sl_n reads, each one ``randint(-9, 9)``'s."""
    return tuple(islice(_randints(seed_string, 9), n * (n - 1) // 2))


def _sample_nilradical(comp, seed_string: str) -> Matrix:
    """The block nilradical of ``comp``, row by row: each row of a block
    takes the next entries of ``_entries(seed_string, n)``, one per column
    after the block. One block reads nothing, so it seeds no stream."""
    n, end, at, rows = sum(comp), 0, 0, []
    entries = _entries(seed_string, n) if len(comp) > 1 else ()
    for size in comp:
        end += size
        for _ in range(size):
            rows.append((0,) * end + entries[at:at + n - end])
            at += n - end
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
        e = _sample_nilradical(comp, _trial_seed(seed, t))
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
    ``comp`` with e V_i inside V_{i-1}. Lower bounds on each V_i grow by
    V_i >= V_{i-1} + e V_{i+1}, and on the annihilators V_{k-i}^perp, a
    flag of type ``reversed(comp)`` for e^T, by the same rule; a step is
    forced once either bound reaches its dimension (one worklist,
    :func:`_fiber_bounds`). e is the certified sample of
    :func:`generic_jordan_type`, and fibers over one orbit are
    isomorphic, so a step left unforced means that the linear propagation
    is incomplete, not that the sample is special: ``NonFiniteFiber``.
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

def conjugate_seed(seed: int) -> str:
    """``random_conjugate(m, seed)``'s seed string, for reporting."""
    return f"{seed}:conj"


@lru_cache
def _conjugator(seed: int, n: int) -> tuple[Matrix, Matrix]:
    """``random_conjugate``'s n x n g and g^-1 = adj(g), by one elimination
    of [g | I]. g = L U, L unit lower and U unit upper triangular, each
    entry off their diagonals a nonzero draw of ``randint(-1, 1)``'s
    stream, so +-1: L's row by row below the diagonal, then U's row by
    row above it. So det(g) = 1, checked as g adj(g) = I."""
    draws = filter(None, _randints(conjugate_seed(seed), 1))
    low = [[*islice(draws, i), 1, *[0] * (n - 1 - i)] for i in range(n)]
    up = [[*[0] * i, 1, *islice(draws, n - 1 - i)] for i in range(n)]
    g = mat_mul(low, up)
    inv = adjugate(g)
    invariant(mat_mul(g, inv) == tuple([tuple([int(i == j) for j in range(n)])
                                        for i in range(n)]),
              "a product of unit triangular matrices is unimodular")
    return g, tuple(map(tuple, inv))


def random_conjugate(m: MatrixModel, seed: int) -> MatrixModel:
    """Conjugate e by a seeded random unimodular integer matrix g.

    Returns g e g^-1, an integer matrix whose entries stay small (g and
    g^-1 = adj(g) have det 1, so no det(g) factor rides along): two
    products, e g^-1 first (e is the sparse factor), once ``_conjugator``
    has drawn g.
    """
    _vec(m.e)  # refuses a non-int entry
    g, inv = _conjugator(seed, m.n)
    return MatrixModel(m.n, mat_mul(g, mat_mul(m.e, inv)))
