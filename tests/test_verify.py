import pytest

from contactres import verify
from contactres.cones import RationalCone, cone_from_generators
from contactres.errors import UnknownSuite
from contactres.lie_core import SimpleType
from contactres.orbits import parse_orbit, partitions_of, validate_orbit
from contactres.resolutions import (
    compositions_of,
    contact_resolution_exists,
    richardson_partition,
)
from contactres.verify import run_suite, suite_caps, suite_names

ALL_ORACLES = {"ad-rank", "kks-rank", "richardson-jordan-type",
               "springer-fiber-count"}
PER_POLARIZATION = {"richardson-jordan-type", "springer-fiber-count"}


def test_ample_cone_rows_check_double_description(monkeypatch):
    # a double description that loses a ray must fail every row it touches
    def drop_last_ray(dim, gens):
        cone = cone_from_generators(dim, gens)
        return RationalCone(dim, cone.extreme_rays[:-1], cone.lineality_basis)

    monkeypatch.setattr(verify, "cone_from_generators", drop_last_ray)
    rows = run_suite("cones", count=0)    # the 11 ample-cone rows only
    assert len(rows) == 11 and not any(r.agrees for r in rows)
    assert rows[0].formula_value == {"simplicial": True, "rays": 1}
    assert rows[0].oracle_value == {"extreme_rays": [], "lineality_basis": []}


def test_ample_cone_rows_compare_full_cones(monkeypatch):
    # the negative orthant has the shape of the positive one, so only a
    # comparison of the cones themselves tells them apart
    def negate_every_ray(dim, gens):
        return cone_from_generators(dim, [[-x for x in g] for g in gens])

    monkeypatch.setattr(verify, "cone_from_generators", negate_every_ray)
    rows = run_suite("cones", count=0)
    assert len(rows) == 11 and not any(r.agrees for r in rows)
    assert rows[1].case == "ample cone A3:{1}"
    assert rows[1].oracle_value == {"extreme_rays": [[-1]],
                                    "lineality_basis": []}


def test_richardson_rows_check_the_shipped_recipe(monkeypatch,
                                                  parabolic_from_composition):
    rows = run_suite("richardson", max_n=4)
    comps = [comp for n in range(2, 5) for comp in compositions_of(n)]
    assert len(rows) == 1 + len(comps)    # n = 1 has no parabolic
    for row, comp in zip(rows[1:], comps):
        orbit = richardson_partition(parabolic_from_composition(comp))
        assert row.formula_value == list(orbit.partition)
    # a wrong recipe (the composition itself, sorted) must fail the suite
    monkeypatch.setattr(verify, "composition_richardson_partition",
                        lambda comp: tuple(sorted(comp, reverse=True)))
    wrong = run_suite("richardson", max_n=4)
    assert len(wrong) == len(rows)
    assert not all(r.agrees for r in wrong)


def test_caps_echo_every_override():
    assert suite_caps("cones") == {"count": 100, "max_dim": 4}
    # cones ignores max_n, but the report still lists it
    assert suite_caps("cones", max_n=3) == {"count": 100, "max_dim": 4,
                                            "max_n": 3}
    assert suite_caps("fibers", max_n=3, count=2) == {"max_n": 3, "count": 2}


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("bogus")
    with pytest.raises(UnknownSuite):
        suite_caps("bogus")


# the oracles the classify bounds admit for sl_n: ad-rank up to n = 8,
# KKS up to 5, Richardson up to 6, the fiber count up to 4
@pytest.mark.parametrize("n, names", [
    (2, ALL_ORACLES), (3, ALL_ORACLES), (4, ALL_ORACLES),
    (5, ALL_ORACLES - {"springer-fiber-count"}),
    (6, {"ad-rank", "richardson-jordan-type"}),
])
def test_oracle_block_agrees(n, names):
    t = SimpleType("A", n - 1)
    for part in partitions_of(n):
        if part == (1,) * n:
            continue
        report = contact_resolution_exists(validate_orbit(t, part))
        rows = verify.oracle_block(report, 5)
        assert rows and all(r.agrees for r in rows), part
        assert {r.oracle for r in rows} == names, part
        # an orbit-level oracle gives one row, the others one per
        # polarization
        per_pol = len(names & PER_POLARIZATION)
        assert len(rows) == len(names) - per_pol \
            + per_pol * len(report.polarizations), part


def test_oracle_block_bounds():
    assert set(verify.CLASSIFY_MAX_N) <= set(suite_names())
    # no matrix model outside type A
    assert verify.oracle_block(
        contact_resolution_exists(parse_orbit("G2:dim8")), 0) == ()
    # sl_8: the ad-rank check only; sl_9: none
    report = contact_resolution_exists(parse_orbit("A7:2,2,2,1,1"))
    assert [r.oracle for r in verify.oracle_block(report, 0)] == ["ad-rank"]
    assert verify.oracle_block(
        contact_resolution_exists(parse_orbit("A8:2,2,2,2,1")), 0) == ()
