from fractions import Fraction

import pytest

from contactres.errors import (
    ContactresError,
    SizeCapExceeded,
    ZeroElement,
)
from contactres.oracle_lab import (
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
    trace_product,
    trial_seeds,
)
from contactres.orbits import dual_partition, partitions_of
from contactres.resolutions import compositions_of

F = Fraction


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
        from contactres.ratlinalg import rank
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
        from contactres.oracle_lab import _parallel
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
        # [ad_e | vec(e)], theta, omega, the Euler solve, the parallel test
        from contactres import ratlinalg
        model = random_conjugate(jordan_nilpotent((3, 2)), 5)
        eliminate, calls = ratlinalg._eliminate, []

        def counting(*args, **kwargs):
            calls.append(args)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(ratlinalg, "_eliminate", counting)
        assert contact_check(model).is_contact
        assert len(calls) <= 5

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

    def test_cap_override_reaches_size_five(self):
        # caps are parameters; the counting still forces every flag at 5
        for comp in compositions_of(5):
            assert generic_fiber_count(comp, seed=3, size_cap=5) == 1
