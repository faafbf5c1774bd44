import pytest

from contactres import verify
from contactres.cones import RationalCone, cone_from_generators
from contactres.errors import UnknownSuite
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
