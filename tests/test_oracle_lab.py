from fractions import Fraction

import pytest

from contactres.errors import (
    ContactresError,
    InvalidPartition,
    NonFiniteFiber,
    SizeCapExceeded,
    ZeroElement,
)
from contactres.lie_core import SimpleType
from contactres.oracle_lab import (
    ADDIM_SIZE_CAP,
    ContactCheckResult,
    _ad_images,
    _generic_sample,
    _kks_form,
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
    nilradical_positions,
    random_conjugate,
    trial_seeds,
)
from contactres.orbits import (
    dual_partition,
    orbit_dimension,
    partitions_of,
    validate_orbit,
)
from contactres.ratlinalg import mat_mul, mat_vec, nullspace, rank, rref, solve
from contactres.resolutions import compositions_of

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
    """The model of t e: a rational factor t gives Fraction entries."""
    t = F(t)
    return matrix_model([[t * x for x in row] for row in m.e])


def _parallel(u, v) -> bool:
    return any(u) and any(v) and rank([u, v]) == 1


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


def reference_fiber_count(comp, seed=0, size_cap=5):
    """``generic_fiber_count`` with each upper bound held as a span, and
    cut down by intersections and preimages through annihilators."""
    comp = tuple(comp)
    n = sum(comp)
    if n > size_cap:
        raise SizeCapExceeded(f"composition of {n} exceeds cap {size_cap}")
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


def nonzero_partitions(n):
    return [p for p in partitions_of(n) if p != (1,) * n]


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
        jordan_nilpotent((9,), size_cap=9)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ContactresError):
            matrix_model([[1, 0], [0, -1]])

    def test_jordan_type_roundtrip(self):
        for part in [(2,), (2, 1), (3, 1), (2, 2), (4, 2, 1)]:
            assert jordan_type(jordan_nilpotent(part).e) == part


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
    def test_integer_with_base_jordan_type(self):
        for n in range(1, 6):
            for part in partitions_of(n):
                base = jordan_nilpotent(part)
                for seed in (0, 1):
                    conj = random_conjugate(base, seed)
                    assert all(type(x) is int for row in conj.e for x in row)
                    assert jordan_type(conj.e) == part


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

    def test_one_elimination_per_matrix(self, eliminations):
        # [ad_e | vec(e)], the theta kernel, the omega rank; the Euler
        # vector is read off the first, and omega pairs it with ker theta
        # by products alone
        model = random_conjugate(jordan_nilpotent((3, 2)), 5)
        eliminations.clear()
        assert contact_check(model).is_contact
        assert len(eliminations) <= 3

    MODELS = [jordan_nilpotent((2, 1)), jordan_nilpotent((3,)),
              random_conjugate(jordan_nilpotent((2, 2)), 3)]

    @pytest.mark.parametrize("model", MODELS)
    def test_radical_off_the_euler_line_is_refused(self, model, monkeypatch):
        # adding the skew matrix sign(j - i) keeps omega_P nondegenerate, so
        # omega keeps rank k - 1 on ker theta, but its radical leaves the
        # Euler line: only the omega-pairing condition can refuse it
        from contactres import oracle_lab
        traces = oracle_lab._traces

        def perturbed(vecs, supports, n):
            out = traces(vecs, supports, n)
            if len(vecs) == 1:
                return out  # theta
            return [[x + (i < j) - (i > j) for j, x in enumerate(row)]
                    for i, row in enumerate(out)]

        monkeypatch.setattr(oracle_lab, "_traces", perturbed)
        res = contact_check(model)
        assert res.omega_rank_on_kernel == res.theta_kernel_dim - 1
        assert not res.radical_is_euler_line and not res.is_contact

    @pytest.mark.parametrize("model", MODELS)
    def test_zero_euler_vector_is_refused(self, model, monkeypatch):
        # a zero Euler vector pairs to zero with everything, so only the
        # nonzero condition can refuse it
        from contactres import oracle_lab
        monkeypatch.setattr(oracle_lab, "primitive",
                            lambda vec: tuple([0] * len(vec)))
        res = contact_check(model)
        assert res.omega_rank_on_kernel == res.theta_kernel_dim - 1
        assert not res.radical_is_euler_line and not res.is_contact

    def test_scaling_acts_linearly_on_theta_and_fixes_ranks(self):
        base = jordan_nilpotent((2, 1))
        for t in (F(3, 7), F(-2), F(5, 2)):
            scaled = scale_model(base, t)
            for b in dense_basis(base.n):
                assert trace_product(scaled.e, b) == \
                    t * trace_product(base.e, b)
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
        assert _kks_form(model) == reference_kks_form(model)
        assert contact_check(model) == reference_contact_check(model)


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


class TestGenericJordanType:
    def test_examples(self):
        assert generic_jordan_type((1, 3), seed=0) == (2, 1, 1)
        assert generic_jordan_type((1, 1, 1, 1), seed=0) == (4,)
        assert generic_jordan_type((2, 2), seed=0) == (2, 2)

    def test_transpose_law_small(self):
        for n in range(1, 6):
            for comp in compositions_of(n):
                expected = dual_partition(tuple(sorted(comp, reverse=True)))
                assert generic_jordan_type(comp, seed=3) == expected

    def test_seed_strings_are_stable(self):
        assert trial_seeds(7) == ["7:0", "7:1", "7:2"]
        assert generic_jordan_type((2, 3), seed=7) == \
            generic_jordan_type((2, 3), seed=7)

    def test_nilradical_positions(self):
        assert nilradical_positions((1, 3)) == [(0, 1), (0, 2), (0, 3)]
        assert nilradical_positions((2, 2)) == \
            [(0, 2), (0, 3), (1, 2), (1, 3)]

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

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            generic_fiber_count((3, 2), seed=0)

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
            return count(comp, seed=seed, size_cap=6)
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

    def test_cap_override_reaches_size_five(self):
        # caps are parameters; the counting still forces every flag at 5
        for comp in compositions_of(5):
            assert generic_fiber_count(comp, seed=3, size_cap=5) == 1
