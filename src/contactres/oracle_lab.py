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
tr(X b) the single term x X[j][i]. The forms restricted to a subspace
are then sums over the supports of its spanning vectors.

``contact_check`` runs two echelon eliminations and no reduced one.
The first, of [ad_e | vec(e)], gives a tangent basis (the pivots) and,
by integer back-substitution, D times the Euler coordinates, with D
the leading minor on the pivots: a matrix Y in their span with
[e, Y] = D e. Y is also the witness that theta is well defined:
D tr(e b) = -tr(Y [e, b]) for every basis element b puts theta in the
row space of ad_e, so it vanishes on the centralizer. The second is the
rank of omega on ker theta, read off the Gram matrix Omega of the
tangent basis bordered by theta: by congruence,
rank [[Omega, theta^T], [theta, 0]] = rank(omega on ker theta) + 2,
theta being nonzero because e is. The radical is needed only to ask whether it is the
Euler line: when the rank is k - 1, it is that line exactly when the
Euler vector is nonzero and omega pairs it to zero with all of
ker theta, that is, when Omega times it is a multiple of theta.

Models are integer matrices: the Jordan forms, the nilradical samples
and the conjugates are built from ints, and every product stays
integral. Fractions appear only where an entry really is rational: in a
matrix given to ``matrix_model`` (the tests rescale models by rational
factors), and then in the forms built from it. The kernel in
``ratlinalg`` accepts both. Tuples are built from lists, for the reason
given there.

These oracles are deliberately independent of the combinatorial
formulas they validate: dimensions come from ranks of ad maps, Richardson
partitions from Jordan types of random nilradical elements, Springer
degrees from exact flag counting. All randomness is seeded and the seed
strings are derivable by callers for reporting. ``MatrixModel`` and
``ContactCheckResult`` are named tuples (see ``lie_core``).
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ContactresError,
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
    mat_mul,
    mat_vec,
    nullspace,
    pivot_solution,
    primitive,
    rank,
    row_basis,
)

ADDIM_SIZE_CAP = 8   # ad_e acts on an (n^2-1)-dim space; keep desk scale
FIBER_SIZE_CAP = 4
GENERIC_TRIALS = 3

Matrix = tuple[tuple[int | Fraction, ...], ...]


def _zeros(n) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _exact(x):
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _freeze(rows) -> Matrix:
    return tuple([tuple([_exact(x) for x in row]) for row in rows])


def _vec(m: Matrix) -> tuple:
    return tuple([x for row in m for x in row])


def _is_nilpotent(e: Matrix) -> bool:
    power = e
    for _ in range(len(e)):
        if all(x == 0 for row in power for x in row):
            return True
        power = mat_mul(power, e)
    return all(x == 0 for row in power for x in row)


@lru_cache(maxsize=None)
def _supports(n: int) -> tuple[tuple[tuple, ...], ...]:
    """The basis of sl_n by the nonzero entries (i, j, x) of each element:
    E_ij for i != j, then H_i = E_ii - E_{i+1,i+1}. Built once per n."""
    return tuple([((i, j, 1),) for i in range(n) for j in range(n) if i != j]
                 + [((i, i, 1), (i + 1, i + 1, -1)) for i in range(n - 1)])


def _positive_parts(parts) -> tuple[int, ...]:
    """A partition or composition: one part at least, every part > 0."""
    parts = tuple([int(p) for p in parts])
    if not parts or min(parts) < 1:
        raise InvalidPartition(f"need one part at least, all > 0: {parts}")
    return parts


class MatrixModel(namedtuple("MatrixModel", "n e")):
    """A nilpotent element of sl_n; the ambient basis is ``_supports(n)``."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.e for x in row)


def matrix_model(e, size_cap: int = ADDIM_SIZE_CAP) -> MatrixModel:
    """Wrap an explicit rational matrix, verifying nilpotency."""
    e = _freeze(e)
    n = len(e)
    if any(len(row) != n for row in e):
        raise ContactresError("matrix model requires a square matrix")
    if n > size_cap:
        raise SizeCapExceeded(f"size {n} exceeds cap {size_cap}")
    if not _is_nilpotent(e):
        raise ContactresError("matrix is not nilpotent")
    return MatrixModel(n=n, e=e)


def jordan_nilpotent(part, size_cap: int = ADDIM_SIZE_CAP) -> MatrixModel:
    """Block Jordan nilpotent of type ``part`` with integer entries."""
    part = _positive_parts(part)
    n = sum(part)
    if n > size_cap:
        raise SizeCapExceeded(f"partition of {n} exceeds cap {size_cap}")
    rows = _zeros(n)
    offset = 0
    for block in part:
        for i in range(block - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += block
    return matrix_model(rows, size_cap=size_cap)


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
    (columns): an entry x of b at (i, j) meets X at (j, i)."""
    at = [[(j * n + i, x) for i, j, x in sup] for sup in supports]
    return [[sum([x * v[q] for q, x in sup]) for sup in at] for v in vecs]


def addim(m: MatrixModel) -> int:
    """dim O = rank of ad_e on the trace-zero matrices."""
    return rank(_ad_images(m.e, _supports(m.n)))


def jordan_type(e: Matrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix from ranks of its powers."""
    n = len(e)
    ranks = [n]
    power = e
    for _ in range(n):
        r = rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(power, e)
    if ranks[-1] != 0:
        raise ContactresError("matrix is not nilpotent")
    # ranks[k-1] - ranks[k] counts Jordan blocks of size >= k, i.e. the
    # k-th part of the dual partition; transpose it back.
    dual = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    part = tuple(sum(1 for d in dual if d >= j) for j in range(1, dual[0] + 1))
    invariant(sum(part) == n, "Jordan type must partition n")
    return part


def kks_rank(m: MatrixModel) -> int:
    """Rank of the skew form (x, y) -> tr(e [x, y]) on trace-zero matrices.

    Its radical is the centralizer of e, so the rank recomputes dim O by a
    route independent of ad-rank.
    """
    return rank(_kks_form(m))


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
    sl_2-triple through e.
    """
    if m.is_zero:
        raise ZeroElement("contact check needs a nonzero nilpotent")
    n = m.n
    supports = _supports(n)
    images = _ad_images(m.e, supports)
    vec_e = _vec(m.e)
    # one echelon elimination of [ad_e | vec(e)]: its pivots index a
    # tangent basis, and back-substitution gives y = minor times the Euler
    # coordinates, so Y = sum y_i b_{p_i} has [e, Y] = minor * e
    ad_rows = list(zip(*images))
    found = pivot_solution(ad_rows, vec_e)
    invariant(found is not None, "e must lie in the image of ad_e")
    pivots, minor, y = found
    d = len(pivots)
    coords = [0] * len(images)
    y_t = [0] * (n * n)  # vec of Y^T, so that tr(Y X) = dot(y_t, vec(X))
    for p, yp in zip(pivots, y):
        coords[p] = yp
        for i, j, x in supports[p]:
            y_t[j * n + i] += yp * x
    invariant([dot(row, coords) for row in ad_rows]
              == [minor * x for x in vec_e],
              "e must lie in the image of ad_e")

    # theta on the whole basis, tr(e b_j); well-definedness: it vanishes
    # on the centralizer, since tr([e, Y] b) = -tr(Y [e, b]) puts it in
    # the row space of ad_e
    theta_all = _traces([vec_e], supports, n)[0]
    for t, img in zip(theta_all, images):
        invariant(minor * t == -dot(y_t, img),
                  "trace form fails to vanish on the centralizer")

    # theta is in the row space of ad_e, so it is zero on the tangent
    # basis only if tr(e b) = 0 for every b in sl_n, that is, only if e = 0
    theta = [theta_all[p] for p in pivots]
    lead = next((i for i, t in enumerate(theta) if t), None)
    invariant(lead is not None, "theta must be nonzero on the tangent space")
    k = d - 1

    # omega(f_a, f_b) = f_a^T omega_P f_b, with omega_P the Gram matrix
    # tr([e, P_i] P_j) of the tangent preimages; bordering it by theta
    # adds 2 to the rank of omega on ker theta
    omega_p = _traces([images[p] for p in pivots],
                      [supports[p] for p in pivots], n)
    omega_rank = rank([row + [t] for row, t in zip(omega_p, theta)]
                      + [theta + [0]]) - 2

    euler = primitive(y)
    invariant(dot(theta, euler) == 0,
              "theta must vanish on the Euler direction")
    # euler lies in ker theta, so a one-dimensional radical is its line
    # exactly when euler is nonzero and omega pairs it to zero with all of
    # ker theta: omega_P euler is a multiple of theta
    pairing = mat_vec(omega_p, euler)
    radical_is_euler = (omega_rank == k - 1 and any(euler) and
                        all([theta[lead] * w == pairing[lead] * t
                             for w, t in zip(pairing, theta)]))

    return ContactCheckResult(
        dim_orbit=d,
        theta_kernel_dim=k,
        omega_rank_on_kernel=omega_rank,
        radical_is_euler_line=radical_is_euler,
    )


# --- Richardson / Springer oracles -------------------------------------------

def nilradical_positions(comp) -> list[tuple[int, int]]:
    """Matrix positions of the block strictly-upper nilradical for block
    sizes ``comp``."""
    comp = tuple(int(c) for c in comp)
    block = []
    for b, size in enumerate(comp):
        block += [b] * size
    n = len(block)
    return [(i, j) for i in range(n) for j in range(n) if block[i] < block[j]]


def trial_seeds(seed: int) -> list[str]:
    """Seed strings used by the generic-sampling oracles, for reporting."""
    return [f"{seed}:{t}" for t in range(GENERIC_TRIALS)]


def _sample_nilradical(comp, seed_string: str) -> Matrix:
    rng = random.Random(seed_string)
    n = sum(comp)
    rows = _zeros(n)
    for i, j in nilradical_positions(comp):
        rows[i][j] = rng.randint(-9, 9)
    return _freeze(rows)


def _dominates(lam, mu) -> bool:
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _generic_sample(comp, seed: int) -> tuple[Matrix, tuple[int, ...]]:
    """The first trial sample of the block nilradical whose Jordan type
    dominates every other observed type, with that type.

    Sub-generic samples are dominated by the generic one, so this guards
    against unlucky coefficients. Raises :class:`NonGenericSample` when
    no observed type dominates the others.
    """
    samples = [_sample_nilradical(comp, s) for s in trial_seeds(seed)]
    observed = [jordan_type(e) for e in samples]
    for e, cand in zip(samples, observed):
        if all(_dominates(cand, other) for other in observed):
            return e, cand
    raise NonGenericSample(
        f"no dominance-maximal Jordan type among {observed}; "
        f"reseed and retry")


def generic_jordan_type(comp, seed: int = 0,
                        size_cap: int = ADDIM_SIZE_CAP) -> tuple[int, ...]:
    """Jordan type of a generic element of the block nilradical: the
    dominance-maximal type over the trial seeds derived from ``seed``."""
    comp = _positive_parts(comp)
    n = sum(comp)
    if n > size_cap:
        raise SizeCapExceeded(f"composition of {n} exceeds cap {size_cap}")
    return _generic_sample(comp, seed)[1]


# --- Springer fiber counting ---------------------------------------------------

# Subspaces are canonical RREF row bases (tuples of primitive integer
# tuples).

def _contains(big, small) -> bool:
    return len(row_basis(big + small)) == len(big)


def _grow(bound: list, act) -> None:
    """Grow lower bounds B_i on a flag stable under x to the least fixpoint
    of B_i >= B_{i-1} + x B_{i+1}; rows are vectors, so ``act`` is x^T."""
    changed = True
    while changed:
        changed = False
        for i in range(1, len(bound) - 1):
            new = row_basis(bound[i] + bound[i - 1]
                            + mat_mul(bound[i + 1], act))
            if len(new) != len(bound[i]):
                bound[i], changed = new, True


def generic_fiber_count(comp, seed: int = 0,
                        size_cap: int = FIBER_SIZE_CAP) -> int:
    """Certify that the Springer fiber over a generic Richardson element
    is one point, and return that cardinality, 1.

    The fiber is the set of flags 0 = V_0 < V_1 < ... < V_k = C^n of type
    ``comp`` with e V_i inside V_{i-1}; exact constraint propagation forces
    it to a single flag. A lower bound on each V_i grows by
    V_i >= V_{i-1} + e V_{i+1}. The annihilators V_{k-i}^perp form a flag
    of type ``reversed(comp)`` for e^T, so the same rule grows lower
    bounds on them, which intersects V_i with V_{i+1} and e^-1 V_{i-1}. A
    step is forced once either bound reaches its dimension. A step left
    unforced at the fixpoint signals a positive-dimensional solution set,
    i.e. a non-generic sample, and raises ``NonFiniteFiber``. The element
    is the dominance-maximal trial sample, chosen exactly as in
    :func:`generic_jordan_type`, so no formula picks it.
    """
    comp = _positive_parts(comp)
    n = sum(comp)
    if n > size_cap:
        raise SizeCapExceeded(f"composition of {n} exceeds cap {size_cap}")
    if len(comp) == 1:
        return 1  # V_1 = C^n and the nilradical is zero

    e, _ = _generic_sample(comp, seed)
    e_t = list(zip(*e))

    k = len(comp)
    dims = [0]
    for c in comp:
        dims.append(dims[-1] + c)
    whole = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
    lower = [()] * k + [whole]  # lower[i] <= V_i
    ann = [()] * k + [whole]    # ann[k - i] <= V_i^perp
    fixed = [i in (0, k) for i in range(k + 1)]
    while True:
        _grow(lower, e_t)
        _grow(ann, e)
        progressed = False
        for i in range(1, k):
            if fixed[i]:
                continue
            invariant(len(lower[i]) <= dims[i]
                      and len(ann[k - i]) <= n - dims[i],
                      "no bound may overshoot: e lies in the block "
                      "nilradical, so the standard flag is in its fiber")
            if len(lower[i]) == dims[i]:
                ann[k - i] = row_basis(nullspace(lower[i]))
            elif len(ann[k - i]) == n - dims[i]:
                lower[i] = row_basis(nullspace(ann[k - i]))
            else:
                continue
            fixed[i] = progressed = True
        if not progressed:
            break

    if not all(fixed):
        raise NonFiniteFiber(
            f"solution set for {comp} not forced to a point; "
            f"non-generic sample suspected")

    for i in range(1, k + 1):
        invariant(len(lower[i]) == dims[i]
                  and _contains(lower[i], lower[i - 1])
                  and _contains(lower[i - 1], mat_mul(lower[i], e_t)),
                  "the forced flag must be a flag of type comp stable under e")
    return 1


# --- seeded model transforms ---------------------------------------------------

def random_conjugate(m: MatrixModel, seed: int) -> MatrixModel:
    """Conjugate e by a seeded random invertible integer matrix g.

    Returns g e adj(g) = det(g) g e g^-1, an integer matrix with the rank,
    kernel and Jordan type of the conjugate g e g^-1.
    """
    rng = random.Random(f"{seed}:conj")
    n = m.n
    while True:
        g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        adj = adjugate(g)
        if adj is not None:
            break
    return matrix_model(mat_mul(mat_mul(g, m.e), adj))
