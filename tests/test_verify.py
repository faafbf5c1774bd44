import pytest

from contactres import verify
from contactres.cones import RationalCone, cone_from_generators
from contactres.errors import UnknownSuite
from contactres.resolutions import (
    compositions_of,
    parabolic_from_composition,
    richardson_partition,
)
from contactres.verify import run_suite, suite_caps


def test_ample_cone_rows_check_double_description(monkeypatch):
    # a double description that loses a ray must fail every row it touches
    def drop_last_ray(dim, gens):
        cone = cone_from_generators(dim, gens)
        return RationalCone(dim, cone.extreme_rays[:-1], cone.lineality_basis)

    monkeypatch.setattr(verify, "cone_from_generators", drop_last_ray)
    rows = run_suite("cones", count=0)    # the 11 ample-cone rows only
    assert len(rows) == 11 and not any(r.agrees for r in rows)
    assert rows[0].formula_value == {"simplicial": True, "rays": 1}
    assert rows[0].oracle_value == {"simplicial": True, "rays": 0}


def test_richardson_rows_check_the_shipped_recipe(monkeypatch):
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
