from fractions import Fraction

import pytest

from contactres.errors import (
    ContactresError,
    SizeCapExceeded,
    ZeroElement,
)
from contactres.lie_core import SimpleType
from contactres.oracle_lab import (
    ADDIM_SIZE_CAP,
    ContactCheckResult,
    _ad_images,
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
    scale_model,
    sl_basis,
    trial_seeds,
)
from contactres.orbits import (
    dual_partition,
    orbit_dimension,
    partitions_of,
    validate_orbit,
)
from contactres.ratlinalg import mat_mul, nullspace, rank, rref, solve
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


def _parallel(u, v) -> bool:
    return any(u) and any(v) and rank([u, v]) == 1


def reference_kks_form(m):
    brackets = [bracket(m.e, b) for b in m.basis_g]
    return [[trace_product(x, b) for b in m.basis_g] for x in brackets]


def reference_contact_check(m):
    """``contact_check`` by dense products, preimage matrices and a solve."""
    images = [_vec(bracket(m.e, b)) for b in m.basis_g]
    ncols = len(images)
    red, pivots = rref([list(col) + [x]
                        for col, x in zip(zip(*images), _vec(m.e))])
    assert ncols not in pivots
    preimages = [m.basis_g[j] for j in pivots]
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


def count_eliminations(monkeypatch):
    """Record every ``ratlinalg._eliminate`` call; returns the record."""
    from contactres import ratlinalg
    eliminate, calls = ratlinalg._eliminate, []

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(ratlinalg, "_eliminate", counting)
    return calls


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
        basis = sl_basis(3)
        assert len(basis) == 8
        assert all(sum(b[i][i] for i in range(3)) == 0 for b in basis)
        flat = [[x for row in b for x in row] for b in basis]
        assert rank(flat) == 8

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

    def test_one_elimination_per_matrix(self, monkeypatch):
        # [ad_e | vec(e)], the theta kernel, the omega rank; the Euler
        # coordinates are read off the theta kernel, and one product with
        # omega tests them against its radical
        model = random_conjugate(jordan_nilpotent((3, 2)), 5)
        calls = count_eliminations(monkeypatch)
        assert contact_check(model).is_contact
        assert len(calls) <= 3

    def test_scaling_acts_linearly_on_theta_and_fixes_ranks(self):
        base = jordan_nilpotent((2, 1))
        for t in (F(3, 7), F(-2), F(5, 2)):
            scaled = scale_model(base, t)
            for b in base.basis_g:
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
            [list(_vec(bracket(model.e, b))) for b in model.basis_g]
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

    def test_annihilator_memo_lives_for_one_call(self, monkeypatch):
        # 278 eliminations per call without the memo; a memo that outlived
        # the call would make the second call cheaper than the first
        calls = count_eliminations(monkeypatch)
        counts = []
        for _ in range(2):
            calls.clear()
            assert generic_fiber_count((1, 1, 1, 1)) == 1
            counts.append(len(calls))
        assert counts[0] == counts[1] < 278

    def test_cap_override_reaches_size_five(self):
        # caps are parameters; the counting still forces every flag at 5
        for comp in compositions_of(5):
            assert generic_fiber_count(comp, seed=3, size_cap=5) == 1
