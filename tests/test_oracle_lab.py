import random
from fractions import Fraction
from math import lcm

import pytest

from contactres import oracle_lab, ratlinalg
from contactres.errors import (
    ContactresError,
    DimensionMismatch,
    InternalInvariantError,
    InvalidPartition,
    NonFiniteFiber,
    NonGenericSample,
    SizeCapExceeded,
    ZeroElement,
)
from contactres.lie_core import SimpleType
from contactres.oracle_lab import (
    ADDIM_SIZE_CAP,
    FIBER_SIZE_CAP,
    GENERIC_DRAWS,
    ContactCheckResult,
    MatrixModel,
    _ad_images,
    _fiber_bounds,
    _generic_sample,
    _kks_layout,
    _kks_plan,
    _sample_nilradical,
    _supports,
    _vec,
    addim,
    contact_check,
    generic_fiber_count,
    generic_jordan_type,
    jordan_nilpotent,
    jordan_type,
    kks_rank,
    matrix_model,
    random_conjugate,
    trial_seeds,
)
from contactres.orbits import (
    dual_partition,
    orbit_dimension,
    partitions_of,
    validate_orbit,
)
from contactres.ratlinalg import (
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
    skew_rank,
)
from contactres.resolutions import compositions_of
from contactres.verify import run_suite

from linalg_reference import _skew_upper, mat_vec, pivot_solution, solve

F = Fraction


# --- the dense path, kept as the reference for the support-based oracles ---

def bracket(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple([tuple([x - y for x, y in zip(r1, r2)])
                  for r1, r2 in zip(ab, ba)])


def trace_product(a, b):
    """tr(ab): the invariant form used in place of the Killing form."""
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a)))


def combine(mats, coeffs):
    n = len(mats[0])
    out = [[0] * n for _ in range(n)]
    for c, mat in zip(coeffs, mats):
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * mat[i][j]
    return tuple(map(tuple, out))


def scale_model(m, t):
    """``matrix_model`` of t e, a rational matrix for a rational factor t:
    L t e, L the lcm of the denominators of t e's entries."""
    t = F(t)
    return matrix_model([[t * x for x in row] for row in m.e])


def _parallel(u, v) -> bool:
    return any(u) and any(v) and rank([_int_row(u), _int_row(v)]) == 1


def unit(n, i, j):
    return tuple([tuple([int((r, c) == (i, j)) for c in range(n)])
                  for r in range(n)])


def dense_basis(n):
    """The basis of sl_n as matrices: E_ij (i != j), then
    H_i = E_ii - E_{i+1,i+1}."""
    return ([unit(n, i, j) for i in range(n) for j in range(n) if i != j]
            + [combine([unit(n, i, i), unit(n, i + 1, i + 1)], [1, -1])
               for i in range(n - 1)])


def reference_kks_form(m):
    basis = dense_basis(m.n)
    brackets = [bracket(m.e, b) for b in basis]
    return [[trace_product(x, b) for b in basis] for x in brackets]


def reference_contact_check(m):
    """``contact_check`` by dense products, preimage matrices and a solve."""
    basis = dense_basis(m.n)
    images = [_vec(bracket(m.e, b)) for b in basis]
    ncols = len(images)
    red, pivots = rref([list(col) + [x]
                        for col, x in zip(zip(*images), _vec(m.e))])
    assert ncols not in pivots
    preimages = [basis[j] for j in pivots]
    theta = [trace_product(m.e, x) for x in preimages]
    kernel = nullspace([theta])
    reps = [combine(preimages, f) for f in kernel]
    omega = [[trace_product(bracket(m.e, x), y) for y in reps] for x in reps]
    radical = nullspace(omega)
    euler = [Fraction(row[ncols], row[p]) for row, p in zip(red, pivots)]
    euler_in_kernel = solve(list(zip(*kernel)), euler)
    return ContactCheckResult(
        dim_orbit=len(pivots),
        theta_kernel_dim=len(kernel),
        omega_rank_on_kernel=len(kernel) - len(radical),
        radical_is_euler_line=(len(radical) == 1
                               and euler_in_kernel is not None
                               and _parallel(radical[0], euler_in_kernel)))


# --- the sum over each support, kept as the reference trace form ---

def reference_traces(vecs, supports, n):
    """tr(X b) for each vec(X) in ``vecs`` (rows) and each basis support
    (columns), by one sum over the entries of each support."""
    at = [[(j * n + i, x) for i, j, x in sup] for sup in supports]
    return [[sum([x * v[q] for q, x in sup]) for sup in at] for v in vecs]


# --- the layout contact_check and kks_rank eliminate, and its reference ---

def layout_rows(m):
    """The rows ``contact_check`` eliminates (the KKS form bordered by
    theta) and those ``kks_rank`` eliminates (the form alone)."""
    _, flat, starts = _kks_layout(m)
    return ([flat[a:b] for a, b in zip(starts, starts[1:])],
            [flat[a + 1:b] for a, b in zip(starts, starts[1:-1])])


def reference_layout(m):
    """``layout_rows`` from the dense form K and the dense trace theta: the
    rows above the diagonal of [[K, theta], [-theta, 0]] and of K, each
    cleared by one common denominator. K alone can need a smaller one than
    its border (at n = 2 its entries are e_00 - e_11, 2 e_10 and 2 e_01),
    so it is read off m scaled by the lcm of its entries' denominators,
    as the oracles read it."""
    form = reference_kks_form(m)
    theta = [trace_product(m.e, b) for b in dense_basis(m.n)]
    bordered = _skew_upper([row + [t] for row, t in zip(form, theta)]
                           + [[-t for t in theta] + [0]])
    mult = lcm(*[F(x).denominator for row in m.e for x in row])
    if mult != 1:
        form = reference_kks_form(scale_model(m, mult))
    return bordered, _skew_upper(form)


# --- ranks of full powers, kept as the reference for jordan_type ---

def power_ranks(e):
    """rank(e^k) for k = 0, 1, ... up to the first zero, or up to k = n."""
    n = len(e)
    ranks = [n]
    power = e
    for _ in range(n):
        ranks.append(rank(power))
        if ranks[-1] == 0:
            break
        power = mat_mul(power, e)
    return ranks


def reference_jordan_type(e):
    """``jordan_type`` from the ranks of the full powers of e."""
    ranks = power_ranks(e)
    if ranks[-1] != 0:
        raise ContactresError("matrix is not nilpotent")
    dual = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(sum(1 for d in dual if d >= j)
                 for j in range(1, dual[0] + 1))


# --- the span-and-annihilator fiber count, kept as the reference ---

def _span(rows):
    return tuple([tuple(r) for r in rref(rows)[0]])


def _full(n):
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def _annihilator(space, n):
    return _span(nullspace(space)) if space else _full(n)


def _intersect(a, b, n):
    constraints = _annihilator(a, n) + _annihilator(b, n)
    return _span(nullspace(constraints)) if constraints else _full(n)


def _preimage(e, space, n):
    ann = _annihilator(space, n)   # rows y; the preimage is {x : y e x = 0}
    return _span(nullspace(mat_mul(ann, e))) if ann else _full(n)


def _apply(e, space):
    return _span([mat_vec(e, v) for v in space])


def reference_fiber_count(comp, seed=0):
    """``generic_fiber_count`` with each upper bound held as a span, and
    cut down by intersections and preimages through annihilators."""
    comp = tuple(comp)
    n = sum(comp)
    if len(comp) == 1:
        return 1
    e, _ = _generic_sample(comp, seed)
    k = len(comp)
    dims = [sum(comp[:i]) for i in range(k + 1)]
    lower = [()] * k + [_full(n)]
    upper = [()] + [_full(n)] * k
    fixed = [i in (0, k) for i in range(k + 1)]

    def propagate():
        changed = False
        for i in range(1, k):
            new_low = _span(lower[i] + lower[i - 1]
                            + _apply(e, lower[i + 1]))
            if len(new_low) != len(lower[i]):
                lower[i], changed = new_low, True
            new_up = _intersect(_intersect(upper[i], upper[i + 1], n),
                                _preimage(e, upper[i - 1], n), n)
            if len(new_up) != len(upper[i]):
                upper[i], changed = new_up, True
        return changed

    while True:
        while propagate():
            pass
        progressed = False
        for i in range(1, k):
            if fixed[i]:
                continue
            if len(lower[i]) > dims[i] or len(upper[i]) < dims[i]:
                return 0
            if len(lower[i]) == dims[i]:
                upper[i] = lower[i]
            elif len(upper[i]) == dims[i]:
                lower[i] = upper[i]
            else:
                continue
            fixed[i] = progressed = True
        if not progressed:
            break
    if not all(fixed):
        raise NonFiniteFiber(f"solution set for {comp} not forced")
    return 1


# --- the dominance vote over three samples, kept as the reference ---

def _dominates(lam, mu) -> bool:
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def reference_nilradical_positions(comp):
    """The positions of the block nilradical, row by row, by the block of
    each index: (i, j) is in it when i's block comes before j's."""
    block = [b for b, size in enumerate(comp) for _ in range(size)]
    n = len(block)
    return [(i, j) for i in range(n) for j in range(n) if block[i] < block[j]]


def reference_sample_nilradical(comp, seed_string):
    """The sampler before it took its positions from its caller: the
    positions built anew for every draw, each entry one
    ``randint(-9, 9)``, and the rows frozen to tuples of ints."""
    rng = random.Random(seed_string)
    n = sum(comp)
    rows = [[0] * n for _ in range(n)]
    for i, j in reference_nilradical_positions(comp):
        rows[i][j] = rng.randint(-9, 9)
    return tuple([tuple(row) for row in rows])


def reference_generic_sample(comp, seed):
    """``_generic_sample`` on the reference sampler, typed by the ranks of
    the full powers."""
    n = sum(comp)
    centralizer = n * n - 2 * len(reference_nilradical_positions(comp))
    for t in range(GENERIC_DRAWS):
        e = reference_sample_nilradical(comp, f"{seed}:{t}")
        part = reference_jordan_type(e)
        if sum([(2 * i + 1) * p for i, p in enumerate(part)]) == centralizer:
            return e, part
    return None


def reference_vote_sample(comp, seed):
    """The first of the three trial samples whose Jordan type dominates
    every observed type, with that type, or None when none does. A guess:
    three non-generic samples outvote the Richardson orbit."""
    samples = [reference_sample_nilradical(comp, s)
               for s in trial_seeds(seed)]
    observed = [jordan_type(e) for e in samples]
    for e, cand in zip(samples, observed):
        if all(_dominates(cand, other) for other in observed):
            return e, cand
    return None


def reference_conjugate(m, seed):
    """``random_conjugate`` by its definition: g = L U, the entries of L
    below its unit diagonal, row by row, then those of U above it, each
    the next nonzero ``randint(-1, 1)``, and g e g^-1 by two products,
    g^-1 = adj(g) as det(g) = 1."""
    rng = random.Random(f"{seed}:conj")

    def draw():
        while not (x := rng.randint(-1, 1)):
            pass
        return x

    n = m.n
    low = [[draw() if j < i else int(j == i) for j in range(n)]
           for i in range(n)]
    up = [[draw() if j > i else int(j == i) for j in range(n)]
          for i in range(n)]
    g = mat_mul(low, up)
    return mat_mul(mat_mul(g, m.e), adjugate(g))


# --- the ad-rank path, kept as the second reference for contact_check ---

def _reduced_system(e, images, vec_e):
    """[ad_e | vec(e)] less the rows and columns that the chain of e
    makes redundant: ``(rows, rhs, cols)``, with ``cols`` the basis
    indices of the columns kept. With m the nilpotency index and j the
    first column that e^(m-1) does not kill, the coordinates
    (e^k)_(s,j), k >= 1 and s != j, have m - 1 pivots s_i; set s_0 = j.
    tr(e^k [e, X]) = 0 and tr(e^(k+1)) = 0 are m relations among the
    rows, nonsingular on the rows (j, s_i), and [e, e^k] = 0 puts m - 1
    vectors in the kernel of ad_e, nonsingular on the columns E_(s_i, j).
    The row space, the column space and the rank are those of the full
    system."""
    n = len(e)
    powers = [e]  # e, ..., e^(m-1)
    for _ in range(n):
        nxt = mat_mul(powers[-1], e)
        if not any(map(any, nxt)):
            break
        powers.append(nxt)
    last = powers[-1]
    j = next(c for c in range(n) if any([row[c] for row in last]))
    others = [s for s in range(n) if s != j]
    echelon = echelon_basis([[pk[s][j] for s in others] for pk in powers])
    assert len(echelon) == len(powers), "e^k e_j, k < m, are independent"
    # the pivots s_i: an echelon row's pivot is its first nonzero entry
    chain = [others[next(c for c, x in enumerate(row) if x)]
             for row in echelon]
    drop_rows = {j * n + s for s in [j] + chain}
    drop_cols = {s * (n - 1) + j - (j > s) for s in chain}  # E_sj
    cols = [c for c in range(len(images)) if c not in drop_cols]
    rows, rhs = [], []
    for q, row in enumerate(zip(*[images[c] for c in cols])):
        if q not in drop_rows:
            rows.append(row)
            rhs.append(vec_e[q])
    return rows, rhs, cols


def _euler_solution(m):
    """The tangent basis (pivot indices into the basis), D and y = D
    times the Euler coordinates, from one echelon elimination of the
    reduced [ad_e | vec(e)]."""
    images = _ad_images(m.e, _supports(m.n))
    rows, rhs, cols = _reduced_system(m.e, images, _vec(m.e))
    found = pivot_solution(rows, rhs)
    assert found is not None, "e must lie in the image of ad_e"
    pivots, minor, y = found
    return [cols[p] for p in pivots], minor, y


def reference_ad_rank_contact_check(m):
    """``contact_check`` on a tangent basis of ad_e: dim O is the rank of
    [ad_e | vec(e)], back-substitution gives Y with [e, Y] = D e (checked
    by two products), omega's rank on ker theta is that of the Gram
    matrix Omega_P of the tangent basis bordered by theta, less 2, and
    the radical is the Euler line when Omega_P pairs the Euler vector to
    a multiple of theta. Unlike ``contact_check``, it tests the rank of
    omega on the image of ad_e apart from dim O."""
    n, supports = m.n, _supports(m.n)
    images = _ad_images(m.e, supports)
    vec_e = _vec(m.e)
    pivots, minor, y = _euler_solution(m)
    y_mat = [[0] * n for _ in range(n)]
    for p, yp in zip(pivots, y):
        for i, j, x in supports[p]:
            y_mat[i][j] += yp * x
    w = [a - b for ey, ye in zip(mat_mul(m.e, y_mat), mat_mul(y_mat, m.e))
         for a, b in zip(ey, ye)]
    assert w == [minor * x for x in vec_e], "e must lie in the image of ad_e"
    theta_all = reference_traces([vec_e], supports, n)[0]
    assert reference_traces([w], supports, n)[0] == \
        [minor * t for t in theta_all]
    theta = [theta_all[p] for p in pivots]
    assert any(theta)
    lead = next(i for i, t in enumerate(theta) if t)
    omega_p = reference_traces([images[p] for p in pivots],
                               [supports[p] for p in pivots], n)
    omega_rank = skew_rank(_skew_upper(
        [row + [t] for row, t in zip(omega_p, theta)]
        + [[-t for t in theta] + [0]])) - 2
    euler = primitive(y)
    assert dot(theta, euler) == 0
    pairing = mat_vec(omega_p, euler)
    d = len(pivots)
    return ContactCheckResult(
        dim_orbit=d,
        theta_kernel_dim=d - 1,
        omega_rank_on_kernel=omega_rank,
        radical_is_euler_line=(omega_rank == d - 2 and any(euler) and
                               all([theta[lead] * w == pairing[lead] * t
                                    for w, t in zip(pairing, theta)])))


def centralizer_loop_holds(m):
    """The witness checks of the ad-rank path before the product W: with
    y its back-substituted Euler coordinates, D vec(e) is the combination
    of the pivot images, and D tr(e b) = -tr(Y [e, b]) for every basis
    element b, one dot product of length n^2 each."""
    n, supports = m.n, _supports(m.n)
    images = _ad_images(m.e, supports)
    vec_e = _vec(m.e)
    pivots, minor, y = _euler_solution(m)
    y_t = [0] * (n * n)  # vec of Y^T, so that tr(Y X) = dot(y_t, vec(X))
    for p, yp in zip(pivots, y):
        for i, j, x in supports[p]:
            y_t[j * n + i] += yp * x
    theta = reference_traces([vec_e], supports, n)[0]
    return (mat_vec(zip(*[images[p] for p in pivots]), y)
            == tuple([minor * x for x in vec_e])
            and all(minor * t == -dot(y_t, img)
                    for t, img in zip(theta, images)))


def reference_grow(bound, act):
    """Grow lower bounds B_i >= B_{i-1} + B_{i+1} act by sweeps: every B_i
    recomputed until a whole sweep changes none."""
    changed = True
    while changed:
        changed = False
        for i in range(1, len(bound) - 1):
            new = row_basis(bound[i] + bound[i - 1]
                            + mat_mul(bound[i + 1], act))
            if len(new) != len(bound[i]):
                bound[i], changed = new, True


def reference_fiber_bounds(e, comp):
    """``_fiber_bounds`` by rounds: sweep both families to their fixpoints,
    then force every step whose bound reached its dimension, until a round
    forces no new step."""
    n, k = sum(comp), len(comp)
    dims = [sum(comp[:i]) for i in range(k + 1)]
    whole = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
    lower, ann = [()] * k + [whole], [()] * k + [whole]
    fixed = [i in (0, k) for i in range(k + 1)]
    progressed = True
    while progressed:
        reference_grow(lower, list(zip(*e)))
        reference_grow(ann, e)
        progressed = False
        for i in range(1, k):
            if fixed[i]:
                continue
            if len(lower[i]) == dims[i]:
                ann[k - i] = row_basis(nullspace(lower[i]))
            elif len(ann[k - i]) == n - dims[i]:
                lower[i] = row_basis(nullspace(ann[k - i]))
            else:
                continue
            fixed[i] = progressed = True
    return lower, ann


def recipe(comp):
    return dual_partition(tuple(sorted(comp, reverse=True)))


def nonzero_partitions(n):
    return [p for p in partitions_of(n) if p != (1,) * n]


def models_of(part):
    """The Jordan model of ``part``, its conjugates at seeds 0-4, and the
    Jordan model and seed-0 conjugate rescaled by a rational factor."""
    base = jordan_nilpotent(part)
    yield from (base, scale_model(base, F(3, 7)))
    for seed in range(5):
        conj = random_conjugate(base, seed)
        yield conj
        if seed == 0:
            yield scale_model(conj, F(-5, 2))


# every nonzero orbit of sl_n, n <= 6, by its partition
each_orbit_to_six = pytest.mark.parametrize(
    "part", [part for n in range(2, 7) for part in nonzero_partitions(n)],
    ids=lambda part: ",".join(map(str, part)))


class TestModels:
    def test_jordan_shapes(self):
        m = jordan_nilpotent((2,))
        assert m.e == ((0, 1), (0, 0))
        m = jordan_nilpotent((2, 1))
        assert m.e == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
        m = jordan_nilpotent((4,))
        assert [m.e[i][i + 1] for i in range(3)] == [1, 1, 1]

    def test_basis_spans_trace_zero(self):
        basis = dense_basis(3)
        assert len(basis) == 8
        assert all(sum(b[i][i] for i in range(3)) == 0 for b in basis)
        flat = [[x for row in b for x in row] for b in basis]
        assert rank(flat) == 8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_supports_hold_the_dense_entries(self, n):
        entries = [tuple([(i, j, x) for i, row in enumerate(b)
                          for j, x in enumerate(row) if x])
                   for b in dense_basis(n)]
        assert _supports(n) == tuple(entries)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            jordan_nilpotent((9,))

    @pytest.mark.parametrize("e, error, message", [
        ([[0, 1]], ContactresError, "matrix model requires a square matrix"),
        ([[0] * 9] * 9, SizeCapExceeded, "size 9 exceeds cap 8"),
        ([[1, 0], [0, -1]], ContactresError, "matrix is not nilpotent"),
        ([[0, F(1, 2)], [F(3, 2), 0]], ContactresError,
         "matrix is not nilpotent"),
        ([[0, 0.1], [0, 0]], TypeError,
         "float 0.1 is not exact; give an int or a Fraction")])
    def test_refusals_keep_their_messages(self, e, error, message):
        with pytest.raises(error) as info:
            matrix_model(e)
        assert str(info.value) == message

    def test_empty_matrix(self):
        # sl_0: the empty partition, and a model with no entries
        assert jordan_type(()) == ()
        assert matrix_model([]) == MatrixModel(n=0, e=())

    def test_the_door_leaves_only_ints(self):
        # the rational rescalings come back as integer multiples, and an
        # int matrix, as tuples or lists, as it was
        for tag, m in _reference_models():
            assert {type(x) for row in m.e for x in row} == {int}, tag
            if "scaled" not in tag:
                rows = [list(row) for row in m.e]
                assert matrix_model(m.e) == matrix_model(rows) == m, tag
                assert rows == [list(row) for row in m.e]
        m = matrix_model([[0, F(4, 2), F(1, 3)], [0, 0, F(-1, 6)], [0, 0, 0]])
        assert m.e == ((0, 12, 2), (0, 0, -1), (0, 0, 0))
        assert {type(x) for row in m.e for x in row} == {int}

    def test_one_nilpotency_test(self):
        assert not hasattr(oracle_lab, "_is_nilpotent")

    def test_built_models_skip_the_boundary_check(self, monkeypatch):
        def refuse(e):
            raise AssertionError("a built model went through matrix_model")

        monkeypatch.setattr(oracle_lab, "matrix_model", refuse)
        jordan = jordan_nilpotent((3, 2, 1))
        conj = random_conjugate(jordan_nilpotent((4,)), 1)
        assert conj.e == ((1, 1, 0, 0), (-3, -2, 1, 0), (-3, -2, 2, 1),
                          (-1, 0, 0, -1))
        for m, d in [(jordan, 22), (conj, 12)]:
            assert (addim(m), kks_rank(m)) == (d, d)
            assert contact_check(m) == (d, d - 1, d - 2, True)

    def test_jordan_type_roundtrip(self):
        for part in [(2,), (2, 1), (3, 1), (2, 2), (4, 2, 1)]:
            assert jordan_type(jordan_nilpotent(part).e) == part


class TestKksLayout:
    @pytest.mark.parametrize("n", range(1, ADDIM_SIZE_CAP + 1))
    def test_every_jordan_model_matches_the_dense_form(self, n):
        for part in partitions_of(n):
            m = jordan_nilpotent(part)
            assert layout_rows(m) == reference_layout(m), part

    @each_orbit_to_six
    def test_seeded_conjugates_match_the_dense_form(self, part):
        for seed in range(3):
            m = random_conjugate(jordan_nilpotent(part), seed)
            assert layout_rows(m) == reference_layout(m), seed

    @pytest.mark.parametrize("entry", [0.5, F(1, 2), F(2)])
    @pytest.mark.parametrize("oracle", [
        addim, kks_rank, contact_check,
        lambda m: random_conjugate(m, 0)])
    def test_float_model_is_refused(self, oracle, entry, monkeypatch):
        # a model built by hand skips matrix_model, the one door that
        # clears or refuses what is not an int; every oracle refuses it
        # with one TypeError before any work (the work is unplugged here)
        for name in ["_ad_images", "_kks_plan", "_conjugator", "mat_mul"]:
            monkeypatch.setattr(oracle_lab, name, None)
        m = MatrixModel(2, ((0, entry), (0, 0)))
        with pytest.raises(TypeError,
                           match="oracle models need int entries"):
            oracle(m)

    @pytest.mark.parametrize("oracle", [
        addim, kks_rank, contact_check,
        lambda m: random_conjugate(m, 0)])
    @pytest.mark.parametrize("part", [(2,), (3,), (2, 1), (2, 2)])
    def test_bool_model_is_its_int_twin(self, oracle, part):
        # a bool is an int, as in the kernel and every label reader, so a
        # model of bools gives what the same model of ints gives
        twin = jordan_nilpotent(part)
        m = MatrixModel(twin.n, tuple([tuple(map(bool, row))
                                       for row in twin.e]))
        assert oracle(m) == oracle(twin)

    def test_one_plan_per_n(self):
        _kks_plan.cache_clear()
        m = random_conjugate(jordan_nilpotent((3, 2)), 1)
        for _ in range(3):
            kks_rank(m)
            contact_check(m)
            contact_check(jordan_nilpotent((2, 2, 1)))
        assert _kks_plan.cache_info()[1:] == (1, None, 1)  # misses, max, size


class TestJordanType:
    @staticmethod
    def matrices():
        """Every Jordan model of n <= 8 and its conjugates at seeds 0-2,
        and the certified nilradical samples of every composition of
        n <= 8 at seeds 0-2."""
        for n in range(1, ADDIM_SIZE_CAP + 1):
            for part in partitions_of(n):
                base = jordan_nilpotent(part)
                yield base.e
                for seed in range(3):
                    yield random_conjugate(base, seed).e
            for comp in compositions_of(n):
                for seed in range(3):
                    yield _generic_sample(comp, seed)[0]

    def test_matches_ranks_of_full_powers(self):
        count = 0
        for e in self.matrices():
            assert jordan_type(e) == reference_jordan_type(e), e
            count += 1
        # the partitions of n <= 8 number 1, 2, 3, 5, 7, 11, 15, 22 and
        # the compositions 2^(n-1)
        assert count == 4 * 66 + 3 * 255

    @pytest.mark.parametrize("e", [
        [[1]], [[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 1]],
        [[0, 2, 4], [0, 0, 6], [1, 0, 0]]])
    def test_non_nilpotent_refused(self, e):
        # rank 2 of 3 is a first drop of 1 for [[0,1,0],[0,0,1],[0,0,1]]:
        # only a strictly upper triangular matrix may stop there. The
        # elimination takes ints: a Fraction matrix, e / 2 (the last is
        # [[0, 1, 2], [0, 0, 3], [1/2, 0, 0]]), is cleared by the door
        half = [[F(x, 2) for x in row] for row in e]
        for oracle, m in [(jordan_type, e), (reference_jordan_type, e),
                          (matrix_model, e), (matrix_model, half)]:
            with pytest.raises(ContactresError, match="not nilpotent"):
                oracle(m)

    @pytest.mark.parametrize("e", [
        ((0, 1), (0, 0), (0, 0)), ((0, 0, 1), (0, 0)), ((),)])
    def test_non_square_refused(self, e):
        # ((0, 1), (0, 0), (0, 0)) had the type (2, 1)
        with pytest.raises(DimensionMismatch,
                           match="jordan_type needs a square matrix"):
            jordan_type(e)

    @pytest.mark.parametrize("e, count", [
        (jordan_nilpotent((3, 2, 1)).e, 2),
        (random_conjugate(jordan_nilpotent((4, 2)), 1).e, 3),
        (_generic_sample((1, 2, 1, 2), 0)[0], 3),
        (_generic_sample((1,) * 8, 0)[0], 1)])
    def test_each_elimination_gets_the_previous_rank_in_rows(
            self, e, count, eliminations):
        # the k-th elimination echelons the basis of e^(k-1) times e, so
        # it gets rank(e^(k-1)) rows where the full powers had n each.
        # The zero power is not eliminated, and a strictly upper
        # triangular e stops at its first drop of 1: (3, 2, 1) has ranks
        # 6, 3, 1, 0 and the sample of (1, 2, 1, 2), type (4, 2), has
        # 6, 4, 2, 1, 0; the conjugate of (4, 2) is walked to its zero
        # power, and the (1,)*8 sample, type (8,), drops 1 at once
        ranks = power_ranks(e)
        eliminations.clear()
        jordan_type(e)
        assert [len(call["rows"]) for call in eliminations] == ranks[:count]


class TestAdRank:
    def test_examples(self):
        assert addim(jordan_nilpotent((2,))) == 2
        assert addim(jordan_nilpotent((2, 1, 1))) == 6
        assert addim(jordan_nilpotent((2, 2))) == 8

    def test_constant_on_conjugacy_class(self):
        for part in [(2, 1), (3, 1), (2, 2, 1)]:
            base = jordan_nilpotent(part)
            want = addim(base)
            for seed in range(3):
                assert addim(random_conjugate(base, seed)) == want


class TestRandomConjugate:
    def test_matches_the_randint_definition(self):
        # every Jordan model of n <= 8 at seeds 0-24: the same g, drawn
        # from randint(-1, 1)'s nonzero draws, and the same g e g^-1
        count = 0
        for n in range(1, ADDIM_SIZE_CAP + 1):
            for part in partitions_of(n):
                base = jordan_nilpotent(part)
                for seed in range(25):
                    assert random_conjugate(base, seed).e == \
                        reference_conjugate(base, seed), (part, seed)
                    count += 1
        assert count == 66 * 25

    def test_conjugators_are_unimodular(self):
        # g adj(g) = I, so adj(g) is g^-1 and no det(g) factor rides along
        for n in range(1, ADDIM_SIZE_CAP + 1):
            eye = tuple([tuple([int(i == j) for j in range(n)])
                         for i in range(n)])
            for seed in range(25):
                g, inv = oracle_lab._conjugator(seed, n)
                assert mat_mul(g, inv) == eye, (n, seed)

    def test_no_conjugate_is_upper_triangular(self):
        # every nonzero orbit of n = 2..8 at seeds 0-24: a conjugate is
        # dense enough to leave the upper triangle, so none is its own
        # Jordan model
        count = 0
        for n in range(2, ADDIM_SIZE_CAP + 1):
            for part in nonzero_partitions(n):
                base = jordan_nilpotent(part)
                for seed in range(25):
                    e = random_conjugate(base, seed).e
                    assert any([any(row[:i + 1]) for i, row in enumerate(e)]
                               ), (part, seed)
                    count += 1
        assert count == 58 * 25

    def test_contact_elimination_stays_in_one_digit(self, monkeypatch):
        # every pivot and step row the Pfaffian elimination holds for the
        # contact suite at its defaults is below 2^30, one CPython digit
        # (a count, not a time: det(g) = 1 rides through no pivot)
        eliminations = []

        def recording(rows):
            eliminations.append(_skew_steps(rows))
            return eliminations[-1]

        monkeypatch.setattr(ratlinalg, "_skew_steps", recording)
        rows = run_suite("contact")
        entries = [x for steps in eliminations
                   for _, _, p, a, b in steps for x in [p, *a, *b]]
        assert len(eliminations) == len(rows) > 0  # one per model
        assert max(map(abs, entries)) < 2 ** 30

    def test_integer_with_base_jordan_type(self):
        for n in range(1, 6):
            for part in partitions_of(n):
                base = jordan_nilpotent(part)
                for seed in (0, 1):
                    conj = random_conjugate(base, seed)
                    assert all(type(x) is int for row in conj.e for x in row)
                    assert jordan_type(conj.e) == part


class TestSeededStreams:
    """``_conjugator`` and ``_entries`` hold each seeded draw once per
    process, keyed by (seed, n): never by a model or a composition."""

    SUITES = [("contact", 6), ("richardson", 6), ("fibers", 4)]

    def test_cold_and_warm_caches_agree(self, monkeypatch):
        def int_rows(rows):
            return type(rows) is tuple and all(
                type(row) is tuple and {*map(type, row)} <= {int}
                for row in rows)

        # a value of _conjugator is the pair (g, adj(g)) of int rows,
        # one of _entries a row of ints
        checks = {"_conjugator": lambda v: len(v) == 2
                  and all(map(int_rows, v)),
                  "_entries": lambda v: int_rows((v,))}
        keys = {}
        for name in checks:
            cached = getattr(oracle_lab, name)
            cached.cache_clear()
            keys[name] = cached, set()

            def recording(*key, cached=cached, seen=keys[name][1]):
                seen.add(key)
                return cached(*key)

            monkeypatch.setattr(oracle_lab, name, recording)
        cold = [run_suite(s, max_n=n) for s, n in self.SUITES]
        warm = [run_suite(s, max_n=n) for s, n in reversed(self.SUITES)]
        assert warm[::-1] == cold
        for name, (cached, seen) in keys.items():
            info = cached.cache_info()
            assert info.misses == info.currsize == len(seen) > 0, name
            values = [cached(*key) for key in seen]  # every cached value
            assert cached.cache_info().hits == info.hits + len(seen)
            assert all([type(v) is tuple and checks[name](v)
                        for v in values]), name

    def test_contact_suite_draws_each_conjugator_once(self, monkeypatch):
        oracle_lab._conjugator.cache_clear()
        run_suite("contact", max_n=5)
        # three seeds at each n = 2..5, however many orbits share them
        assert oracle_lab._conjugator.cache_info().misses == 12
        calls = []

        def counting(*args):
            calls.append(args)
            return adjugate(*args)

        monkeypatch.setattr(oracle_lab, "adjugate", counting)
        base = jordan_nilpotent((3, 2))
        assert random_conjugate(base, 1).e == reference_conjugate(base, 1)
        assert calls == []  # a hit
        assert random_conjugate(base, 3).e == reference_conjugate(base, 3)
        assert calls  # a miss eliminates

    def test_streams_grow_with_seeds_and_sizes_not_compositions(
            self, monkeypatch):
        caches = [f for f in vars(oracle_lab).values()
                  if hasattr(f, "cache_info")]
        oracle_lab._entries.cache_clear()
        before = {f: f.cache_info().currsize for f in caches}
        sample, drawn, comps = oracle_lab._sample_nilradical, set(), []

        def recording(comp, seed_string):
            if len(comp) > 1:
                drawn.add((seed_string, sum(comp)))
            return sample(comp, seed_string)

        monkeypatch.setattr(oracle_lab, "_sample_nilradical", recording)
        for n in range(1, ADDIM_SIZE_CAP + 1):
            for comp in compositions_of(n):
                comps.append(comp)
                assert generic_jordan_type(comp) == recipe(comp), comp
        assert len(comps) == 255
        grown = {f: f.cache_info().currsize - b for f, b in before.items()}
        # one key per (seed string, n) drawn: "0:0" for n = 2..8, and "0:1"
        # once for the n = 7 compositions whose first sample was not generic
        assert sorted(drawn) == [*[("0:0", n) for n in range(2, 9)],
                                 ("0:1", 7)]
        assert grown.pop(oracle_lab._entries) == len(drawn)
        assert max(grown.values(), default=0) <= ADDIM_SIZE_CAP, grown


class TestKks:
    def test_examples(self):
        assert kks_rank(jordan_nilpotent((2,))) == 2
        assert kks_rank(jordan_nilpotent((2, 1))) == 4
        assert kks_rank(jordan_nilpotent((2, 2))) == 8

    def test_equals_addim_small(self):
        for n in range(2, 5):
            for part in partitions_of(n):
                m = jordan_nilpotent(part)
                assert kks_rank(m) == addim(m)


class TestContactCheck:
    def test_sl2(self):
        res = contact_check(jordan_nilpotent((2,)))
        assert (res.dim_orbit, res.theta_kernel_dim,
                res.omega_rank_on_kernel) == (2, 1, 0)
        assert res.radical_is_euler_line and res.is_contact

    def test_sl3_regular(self):
        res = contact_check(jordan_nilpotent((3,)))
        assert (res.dim_orbit, res.theta_kernel_dim,
                res.omega_rank_on_kernel) == (6, 5, 4)
        assert res.radical_is_euler_line

    def test_sl3_minimal(self):
        res = contact_check(jordan_nilpotent((2, 1)))
        assert (res.dim_orbit, res.theta_kernel_dim,
                res.omega_rank_on_kernel) == (4, 3, 2)
        assert res.radical_is_euler_line

    def test_parallel_is_a_rank_one_test(self):
        assert _parallel((1, 2, 0), (-2, -4, 0))
        assert _parallel((F(1, 2), 1), (1, 2))
        assert not _parallel((1, 2), (2, 3))
        assert not _parallel((0, 0), (1, 2))
        assert not _parallel((1, 2), (0, 0))

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElement):
            contact_check(jordan_nilpotent((1, 1)))

    def test_all_small_orbits_and_conjugates(self):
        for n in range(2, 5):
            for part in nonzero_partitions(n):
                base = jordan_nilpotent(part)
                d = addim(base)
                for model in [base, random_conjugate(base, 11),
                              random_conjugate(base, 12)]:
                    res = contact_check(model)
                    assert res.dim_orbit == d
                    assert res.is_contact

    def test_one_elimination_per_matrix(self, eliminations, monkeypatch):
        # no general elimination: one skew elimination of the KKS form
        # (dim sl_5 = 24) bordered by theta, 25 rows above the diagonal,
        # whose back-substitution gives the radical; the witness is two
        # products
        skew, skew_calls = oracle_lab.skew_null_vector, []

        def counting(rows):
            skew_calls.append(rows)
            return skew(rows)

        monkeypatch.setattr(oracle_lab, "skew_null_vector", counting)
        monkeypatch.setattr(oracle_lab, "skew_rank", None)
        model = random_conjugate(jordan_nilpotent((3, 2)), 5)
        eliminations.clear()
        assert contact_check(model).is_contact
        assert eliminations == []
        assert [[*map(len, rows)] for rows in skew_calls] == \
            [[*range(24, -1, -1)]]

    @each_orbit_to_six
    def test_reduced_system_keeps_the_rank(self, part):
        # m rows and m - 1 columns go, m the largest part (the nilpotency
        # index), and [ad_e | vec(e)] keeps its rank; for the regular orbit
        # what is left is square and nonsingular
        n, m = sum(part), part[0]
        for model in models_of(part):
            images = _ad_images(model.e, _supports(n))
            vec_e = _vec(model.e)
            rows, rhs, cols = _reduced_system(model.e, images, vec_e)
            assert len(rows) == len(rhs) == n * n - m == len(cols)
            assert all(len(row) == len(cols) for row in rows)
            full = rank([list(row) + [x]
                         for row, x in zip(zip(*images), vec_e)])
            assert rank([list(row) + [x] for row, x in zip(rows, rhs)]) \
                == full == orbit_dimension(
                    validate_orbit(SimpleType("A", n - 1), part))
            if part == (n,):
                assert rank(rows) == n * n - n

    @pytest.mark.parametrize("model", [
        jordan_nilpotent((2, 1)), jordan_nilpotent((3,)),
        random_conjugate(jordan_nilpotent((2, 2)), 3),
        random_conjugate(jordan_nilpotent((3, 1)), 4)])
    def test_theta_off_the_row_space_is_refused(self, model, monkeypatch):
        # adding a centralizer vector z to theta leaves the row space of
        # ad_e, since z . z > 0 while the row space is orthogonal to z
        images = _ad_images(model.e, _supports(model.n))
        z = nullspace(list(zip(*images)))[0]
        self.perturb_rows(monkeypatch, lambda rows: [
            [row[0] + c, *row[1:]] for row, c in zip(rows, z)] + rows[-1:])
        with pytest.raises(InternalInvariantError,
                           match="trace form fails to vanish on the "
                                 "centralizer"):
            contact_check(model)

    def test_witness_holds_the_per_basis_identity(self, monkeypatch):
        # every model the contact suite builds for n <= 5: tr(W b) =
        # -D tr(e b) is the per-basis identity by trace cyclicity, and the
        # reference checks it by n^2 dot products
        checked = []

        def both(model):
            assert centralizer_loop_holds(model), model
            checked.append(model)
            return contact_check(model)

        monkeypatch.setattr(oracle_lab, "contact_check", both)
        assert all(row.agrees for row in run_suite("contact", max_n=5,
                                                   seed=0))
        # four models (the Jordan form, three conjugates) per nonzero orbit
        assert len(checked) == 4 * sum(len(nonzero_partitions(n))
                                       for n in range(2, 6))

    @staticmethod
    def perturb_rows(monkeypatch, perturb):
        """Have ``contact_check`` eliminate ``perturb(rows)`` in place of its
        rows: the bordered KKS form above the diagonal, last column first,
        theta at position 0 of each row but the border's, which is empty.
        ``contact_check`` reads its own theta off the rows before."""
        found = oracle_lab.skew_null_vector
        monkeypatch.setattr(oracle_lab, "skew_null_vector",
                            lambda rows: found(perturb(rows)))

    @staticmethod
    def patch_radical(monkeypatch, perturb):
        """Have ``contact_check``'s kernel vector (v, t) come back with v
        replaced by ``perturb(v, theta, paired)``, t kept; ``paired`` are
        the indices the elimination paired, the border never among them."""
        found = oracle_lab.skew_null_vector

        def patched(rows):
            d, x = found(rows)
            theta = [row[0] for row in rows[:-1]]
            paired = sorted({k for i, j, *_ in _skew_steps(rows)
                             for k in (i, j)})
            return d, [*perturb(x[:-1], theta, paired), x[-1]]

        monkeypatch.setattr(oracle_lab, "skew_null_vector", patched)

    @staticmethod
    def off_the_line(v, theta, paired):
        # theta_j at one paired index i and -theta_i at another, j, keeps
        # theta . v = 0. The form is nondegenerate on the paired indices,
        # so no nonzero combination of their basis elements is central,
        # and the change moves [e, Y] off t e
        i = next(k for k in paired if theta[k])
        j = next(k for k in paired if k != i)
        v = list(v)
        v[i] += theta[j]
        v[j] -= theta[i]
        return v

    def test_wrong_euler_coordinates_are_refused(self, monkeypatch):
        # the dot invariant passes, and the witness W = t e decides
        self.patch_radical(monkeypatch, self.off_the_line)
        res = contact_check(random_conjugate(jordan_nilpotent((3, 1)), 4))
        assert not res.radical_is_euler_line and not res.is_contact

    @pytest.mark.parametrize("dense", [False, True])
    def test_bordered_rank_is_the_rank_on_ker_theta(self, dense):
        # rank [[B, theta^T], [theta, 0]] - 2 = rank(K^T B K), with K a
        # basis of ker theta: the identity contact_check's omega rank uses
        rng = random.Random(f"bordered:{dense}")
        for _ in range(60):
            d = rng.randint(2, 7)
            upper = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(d)]
                     for _ in range(d)]
            b = [[upper[i][j] - upper[j][i] for j in range(d)]
                 for i in range(d)]
            if dense:
                theta = [rng.randint(-4, 4) for _ in range(d)]
            else:
                theta = [0] * d
                for i in rng.sample(range(d), rng.randint(1, 2)):
                    theta[i] = rng.choice([1, -1, 3])
            if not any(theta):
                theta[rng.randrange(d)] = 1
            k = list(zip(*nullspace([theta])))
            restricted = mat_mul(mat_mul(list(zip(*k)), b), k)
            bordered = ([row + [t] for row, t in zip(b, theta)]
                        + [theta + [0]])
            # contact_check's form: the last row negated, so still skew
            skew = bordered[:-1] + [[-t for t in theta] + [0]]
            assert (rank(bordered) - 2 == skew_rank(_skew_upper(skew)) - 2
                    == rank(restricted))

    MODELS = [jordan_nilpotent((2, 1)), jordan_nilpotent((3,)),
              random_conjugate(jordan_nilpotent((2, 2)), 3)]

    @pytest.mark.parametrize("model, how", [
        pytest.param(MODELS[0], "form", id="model0"),
        pytest.param(MODELS[1], "form", id="model1"),
        pytest.param(MODELS[2], "vector", id="model2")])
    def test_radical_off_the_euler_line_is_refused(self, model, how,
                                                   monkeypatch):
        # on the Jordan models, adding the skew matrix sign(j - i) to the
        # form (1 at every entry above the diagonal but theta's) keeps
        # theta in its row space but moves its radical off the Euler line;
        # on the conjugate that perturbation pairs the border, so the
        # returned radical is moved instead. Only the witness can refuse
        # either
        if how == "vector":
            self.patch_radical(monkeypatch, self.off_the_line)
        else:
            self.perturb_rows(monkeypatch, lambda rows: [
                row[:1] + [x + 1 for x in row[1:]] for row in rows])
        res = contact_check(model)
        assert res.omega_rank_on_kernel == res.theta_kernel_dim - 1
        assert not res.radical_is_euler_line and not res.is_contact

    @pytest.mark.parametrize("model", MODELS)
    def test_zero_euler_vector_is_refused(self, model, monkeypatch):
        # v = 0 passes the dot invariant, and W = 0 is not t e for the
        # nonzero border entry t
        self.patch_radical(monkeypatch, lambda v, theta, paired: [0] * len(v))
        res = contact_check(model)
        assert res.omega_rank_on_kernel == res.theta_kernel_dim - 1
        assert not res.radical_is_euler_line and not res.is_contact

    def test_scaling_acts_linearly_on_theta_and_fixes_ranks(self):
        base = jordan_nilpotent((2, 1))
        for t, mult in [(F(3, 7), 3), (F(-2), -2), (F(5, 2), 5)]:
            scaled = scale_model(base, t)
            assert scaled.e == tuple([tuple([mult * x for x in row])
                                      for row in base.e])
            for b in dense_basis(base.n):
                assert trace_product(scaled.e, b) == \
                    mult * trace_product(base.e, b)
            assert addim(scaled) == addim(base)
            assert kks_rank(scaled) == kks_rank(base)
            assert contact_check(scaled) == contact_check(base)


def _reference_models():
    """Every nonzero type-A orbit with n <= 5: the Jordan model, two seeded
    conjugates, and three rational rescalings of the Jordan model."""
    for n in range(2, 6):
        for part in nonzero_partitions(n):
            base = jordan_nilpotent(part)
            yield f"{part} jordan", base
            for seed in (21, 22):
                yield f"{part} conjugate[{seed}]", random_conjugate(base, seed)
            for t in (F(3, 7), F(-2), F(5, 2)):
                yield f"{part} scaled[{t}]", scale_model(base, t)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("model", [pytest.param(m, id=tag)
                                       for tag, m in _reference_models()])
    def test_forms_and_contact_check_match(self, model):
        supports = _supports(model.n)
        assert _ad_images(model.e, supports) == \
            [list(_vec(bracket(model.e, b))) for b in dense_basis(model.n)]
        assert layout_rows(model) == reference_layout(model)
        assert contact_check(model) == reference_contact_check(model)

    @each_orbit_to_six
    def test_contact_check_matches_on_every_partition_to_six(self, part):
        for model in models_of(part):
            assert (contact_check(model) == reference_contact_check(model)
                    == reference_ad_rank_contact_check(model))


class TestOracleCap:
    @pytest.mark.parametrize("part", [(8,), (4, 4), (2, 2, 2, 2)])
    def test_finishes_at_addim_cap(self, part):
        # an input the cap admits must finish; n = 8 is ADDIM_SIZE_CAP
        assert sum(part) == ADDIM_SIZE_CAP
        model = jordan_nilpotent(part)
        d = orbit_dimension(validate_orbit(SimpleType("A", 7), part))
        assert addim(model) == d
        assert kks_rank(model) == d
        res = contact_check(model)
        assert res.dim_orbit == d
        assert res.is_contact


@pytest.mark.parametrize("oracle, parts", [
    (jordan_nilpotent, (0, 2)),
    (jordan_nilpotent, ()),
    (generic_jordan_type, (0, 2)),
    (generic_jordan_type, ()),
    (generic_fiber_count, (-1, 3)),
    (generic_fiber_count, (2, 0)),
    (generic_fiber_count, ()),
], ids=lambda x: getattr(x, "__name__", None) or repr(x))
def test_malformed_parts_rejected(oracle, parts):
    with pytest.raises(InvalidPartition):
        oracle(parts)


@pytest.mark.parametrize("oracle, parts", [
    (jordan_nilpotent, (2.5, 1)),
    (generic_jordan_type, (2.9, 1)),
    (generic_fiber_count, (1.5, 1)),
], ids=lambda x: getattr(x, "__name__", None) or repr(x))
def test_float_parts_refused(oracle, parts):
    # int() truncated them: (2.5, 1) was the (2, 1) model
    with pytest.raises(TypeError):
        oracle(parts)


class TestGenericJordanType:
    def test_examples(self):
        assert generic_jordan_type((1, 3), seed=0) == (2, 1, 1)
        assert generic_jordan_type((1, 1, 1, 1), seed=0) == (4,)
        assert generic_jordan_type((2, 2), seed=0) == (2, 2)

    def test_transpose_law_small(self):
        for n in range(1, 6):
            for comp in compositions_of(n):
                assert generic_jordan_type(comp, seed=3) == recipe(comp)

    @pytest.mark.parametrize("comp, seed", [
        ((1, 1, 1, 1, 1), 22), ((2, 1, 1, 1), 48), ((1,) * 6, 70),
        ((2, 1, 1, 1, 1), 99)])
    def test_certified_where_the_vote_was_outvoted(self, comp, seed):
        # the vote answered (4, 1), (3, 2), (5, 1) and (4, 2) here
        assert reference_vote_sample(comp, seed)[1] != recipe(comp)
        assert generic_jordan_type(comp, seed=seed) == recipe(comp)

    def test_certified_sample_is_the_votes_where_the_vote_was_right(self):
        agreed = 0
        for seed in range(10):
            for n in range(1, 7):
                for comp in compositions_of(n):
                    vote = reference_vote_sample(comp, seed)
                    if vote is not None and vote[1] == recipe(comp):
                        assert _generic_sample(comp, seed) == vote, comp
                        agreed += 1
        assert agreed == 630  # the vote's first miss is at seed 22

    def test_bound_runs_out_on_zero_samples(self, monkeypatch):
        draws = []

        def zero(comp, seed_string):
            draws.append(seed_string)
            return tuple([(0,) * sum(comp)] * sum(comp))
        monkeypatch.setattr(oracle_lab, "_sample_nilradical", zero)
        for oracle in (generic_jordan_type, generic_fiber_count):
            draws.clear()
            with pytest.raises(NonGenericSample):
                oracle((2, 1), seed=5)
            assert draws == [f"5:{t}" for t in range(GENERIC_DRAWS)]

    def test_sample_and_type_are_the_reference_samplers(self):
        # every composition up to the size cap at seeds 0-9: the same
        # certified sample, an integer tuple of tuples, with the same type
        for seed in range(10):
            for n in range(1, ADDIM_SIZE_CAP + 1):
                for comp in compositions_of(n):
                    got = _generic_sample(comp, seed)
                    assert got == reference_generic_sample(comp, seed), comp
                    assert type(got[0]) is tuple and all(
                        type(row) is tuple
                        and {*map(type, row)} <= {int} for row in got[0])

    def test_seed_strings_are_stable(self):
        assert trial_seeds(7) == ["7:0", "7:1", "7:2"]
        assert generic_jordan_type((2, 3), seed=7) == \
            generic_jordan_type((2, 3), seed=7)

    def test_sampler_draws_the_randint_stream(self):
        # the reference draws each entry by randint(-9, 9); the sampler
        # must draw the same stream on every interpreter the tests run on
        for n in range(1, ADDIM_SIZE_CAP + 1):
            for comp in compositions_of(n):
                for s in range(3):
                    for t in range(3):
                        seed_string = f"{s}:{t}"
                        assert _sample_nilradical(comp, seed_string) \
                            == reference_sample_nilradical(comp, seed_string)

    def test_one_block_seeds_no_stream(self, monkeypatch):
        # its nilradical is zero, so nothing is drawn; a second block draws
        # (the stream cache is cleared, so that draw is a cold one)
        def refuse(seed_string):
            raise AssertionError(f"seeded {seed_string!r}")

        oracle_lab._entries.cache_clear()
        monkeypatch.setattr(oracle_lab.random, "Random", refuse)
        for n in range(1, ADDIM_SIZE_CAP + 1):
            assert _sample_nilradical((n,), "0:0") == ((0,) * n,) * n
            assert generic_jordan_type((n,)) == (1,) * n
        with pytest.raises(AssertionError, match="seeded '0:0'"):
            _sample_nilradical((1, 1), "0:0")

    def test_generic_answers_up_to_the_cap(self):
        # every composition of n <= 8: the Richardson type at seeds 0-2,
        # and a one-point fiber at seed 0
        for n in range(1, ADDIM_SIZE_CAP + 1):
            for comp in compositions_of(n):
                for seed in range(3):
                    assert generic_jordan_type(comp, seed=seed) == \
                        recipe(comp), (comp, seed)
                assert generic_fiber_count(comp) == 1, comp

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            generic_jordan_type((5, 4), seed=0)


class TestFiberCount:
    def test_examples(self):
        assert generic_fiber_count((2, 1), seed=0) == 1
        assert generic_fiber_count((1, 1), seed=0) == 1
        assert generic_fiber_count((1, 3), seed=0) == 1

    def test_all_small_compositions(self):
        for n in range(1, 5):
            for comp in compositions_of(n):
                assert generic_fiber_count(comp, seed=2) == 1

    def test_certified_where_the_vote_drew_no_generic_sample(self):
        # all three trial samples have type (5, 2), not (6, 1)
        comp = (1, 1, 2, 1, 1, 1)
        assert reference_vote_sample(comp, 2)[1] == (5, 2) != recipe(comp)
        assert generic_fiber_count(comp, seed=2) == 1

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            generic_fiber_count((5, 4), seed=0)

    @pytest.mark.parametrize("comp", [(1,) * 8, (3, 1, 1, 1, 2)])
    def test_finishes_at_fiber_cap(self, comp):
        # the full flag has the most steps to force, and (3, 1, 1, 1, 2)
        # mixes block sizes; one more part of 1 is refused before any
        # sample is drawn
        assert sum(comp) == FIBER_SIZE_CAP == 8
        assert generic_fiber_count(comp, seed=0) == 1
        with pytest.raises(SizeCapExceeded):
            generic_fiber_count(comp + (1,), seed=0)

    def test_worklist_reaches_the_rounds_fixpoint(self):
        # every composition up to the cap at seed 0: one worklist over both
        # families ends at the bounds that the rounds of sweeps reach
        for n in range(1, FIBER_SIZE_CAP + 1):
            for comp in compositions_of(n):
                e = _generic_sample(comp, 0)[0]
                assert _fiber_bounds(e, comp) == \
                    reference_fiber_bounds(e, comp), comp

    def test_unforced_step_is_refused(self, monkeypatch):
        # at n = 9, (2, 1, 3, 1, 2) is certified generic but the linear
        # propagation leaves its steps unforced, on both paths
        comp = (2, 1, 3, 1, 2)
        monkeypatch.setattr(oracle_lab, "FIBER_SIZE_CAP", 9)
        with pytest.raises(NonFiniteFiber, match=(
                r"solution set for \(2, 1, 3, 1, 2\) not forced to a point; "
                r"the linear propagation is incomplete here")):
            generic_fiber_count(comp, seed=0)
        with pytest.raises(NonFiniteFiber):
            reference_fiber_count(comp, seed=0)
        e = _generic_sample(comp, 0)[0]
        lower, ann = bounds = _fiber_bounds(e, comp)
        assert bounds == reference_fiber_bounds(e, comp)
        assert [len(b) for b in lower] == [0, 1, 2, 4, 6, 9]
        assert [len(b) for b in ann] == [0, 1, 2, 4, 6, 9]

    def test_eliminations_pinned(self, monkeypatch):
        # row_basis calls over every composition up to the cap at seed 0;
        # the rounds of sweeps made 6,871
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return row_basis(rows)

        monkeypatch.setattr(oracle_lab, "row_basis", counting)
        for n in range(1, FIBER_SIZE_CAP + 1):
            for comp in compositions_of(n):
                assert generic_fiber_count(comp, seed=0) == 1, comp
        assert len(calls) == 3724

    def test_fiber_count_keeps_no_state_between_calls(self, eliminations):
        # a cache that outlived the call would make the second call cheaper
        # than the first; the bound is half the 146 calls that the memoised
        # span-and-annihilator propagation made
        counts = []
        for _ in range(2):
            eliminations.clear()
            assert generic_fiber_count((1, 1, 1, 1)) == 1
            counts.append(len(eliminations))
        assert counts[0] == counts[1] <= 73

    @staticmethod
    def outcome(count, comp, seed):
        try:
            return count(comp, seed=seed)
        except ContactresError as exc:
            return type(exc)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_path(self, seed):
        for n in range(1, 6):
            for comp in compositions_of(n):
                assert self.outcome(generic_fiber_count, comp, seed) == \
                    self.outcome(reference_fiber_count, comp, seed), comp

    def test_matches_reference_path_at_six(self):
        # (1, 2, 1, 2), (1, 3, 2) and (2, 1, 3) are forced only once the
        # annihilator of a step fixed by its lower bound propagates; no
        # smaller composition needs that
        for comp in compositions_of(6):
            assert self.outcome(generic_fiber_count, comp, 0) == \
                self.outcome(reference_fiber_count, comp, 0) == 1, comp
