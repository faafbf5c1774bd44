import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from contactres import cones, oracle_lab, ratlinalg, verify
from contactres.cones import RationalCone, cone_from_generators
from contactres.errors import SizeCapExceeded, UnknownSuite
from contactres.lie_core import SimpleType
from contactres.orbits import (
    dual_partition,
    orbit_record,
    orbits_of,
    parse_orbit,
)
from contactres.resolutions import (
    MAX_CHAMBERS,
    ChamberComplex,
    compositions_of,
    contact_resolution_exists,
    distinct_ordering_count,
    richardson_partition,
)
from contactres.verify import (
    CHAMBERS_MAX_N,
    CONES_MAX_COUNT,
    run_suite,
    suite_caps,
    suite_names,
)

ALL_ORACLES = {"ad-rank", "kks-rank", "richardson-jordan-type",
               "springer-fiber-count"}
PER_POLARIZATION = {"richardson-jordan-type", "springer-fiber-count"}


def test_ample_cone_rows_check_double_description(monkeypatch):
    # a double description that loses a ray must fail every row it touches
    def drop_last_ray(dim, gens):
        cone = cone_from_generators(dim, gens)
        return RationalCone(dim, cone.extreme_rays[:-1], cone.lineality_basis,
                            cone.facet_normals)

    monkeypatch.setattr(cones, "cone_from_generators", drop_last_ray)
    rows = run_suite("cones", count=0)    # the 11 ample-cone rows only
    assert len(rows) == 11 and not any(r.agrees for r in rows)
    assert rows[0].formula_value == {"simplicial": True, "rays": 1}
    assert rows[0].oracle_value == {"extreme_rays": [], "lineality_basis": []}


def test_ample_cone_rows_compare_full_cones(monkeypatch):
    # the negative orthant has the shape of the positive one, so only a
    # comparison of the cones themselves tells them apart
    def negate_every_ray(dim, gens):
        return cone_from_generators(dim, [[-x for x in g] for g in gens])

    monkeypatch.setattr(cones, "cone_from_generators", negate_every_ray)
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


def test_contact_rows_run_one_skew_elimination_per_model(monkeypatch):
    # kks_rank is read off the bordered form contact_check eliminates;
    # the kks and ad-rank suites keep their own eliminations
    steps, sizes = ratlinalg._skew_steps, []

    def counting(rows):
        sizes.append(len(rows))
        return steps(rows)

    monkeypatch.setattr(ratlinalg, "_skew_steps", counting)
    rows = run_suite("contact", max_n=5)
    assert len(rows) == 4 * 13 and all(r.agrees for r in rows)
    # one per row, each the n^2 - 1 basis bordered by theta
    assert sizes == [sum(parse_orbit(r.case.split()[0]).partition) ** 2
                     for r in rows]


def test_contact_rows_report_the_conjugates_seed_strings(monkeypatch):
    # each conjugate row names the one stream random_conjugate drew from;
    # g is drawn once per (seed, n), so each conjugate here starts cold
    drawn = []
    conjugate = oracle_lab.random_conjugate

    def recording(seed_string):
        drawn.append(seed_string)
        return random.Random(seed_string)

    def cold(m, seed):
        oracle_lab._conjugator.cache_clear()
        return conjugate(m, seed)

    monkeypatch.setattr(oracle_lab, "random", SimpleNamespace(Random=recording))
    monkeypatch.setattr(oracle_lab, "random_conjugate", cold)
    rows = run_suite("contact", max_n=4)
    assert all(r.agrees for r in rows)
    assert drawn == [s for r in rows for s in r.seeds]
    assert drawn[:3] == ["0:conj", "1:conj", "2:conj"]


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


def test_over_cap_suite_stops_at_the_first_over_cap_orbit(monkeypatch):
    # the records are made as the rows need them: the refusal at n = 9
    # comes before any orbit of sl_10 and above is walked
    calls = []

    def counted(o):
        calls.append(o)
        return orbit_record(o)

    monkeypatch.setattr(verify, "orbit_record", counted)
    with pytest.raises(SizeCapExceeded, match="partition of 9 exceeds cap 8"):
        run_suite("kks", max_n=30)
    assert len(calls) <= 95    # the orbits of sl_2, ..., sl_9


class RowStarted(Exception):
    """Raised by the patched first step of a suite's first row."""


@pytest.fixture
def first_row_raises(monkeypatch):
    """The chambers suite's first orbit record and the cones suite's
    first draw raise ``RowStarted``."""
    def started(*args):
        raise RowStarted

    monkeypatch.setattr(verify, "orbit_record", started)
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=started))


def test_chambers_cap_is_the_last_n_without_an_over_cap_orbit():
    # the polarizations of a type-A orbit are the distinct orderings of
    # its dual partition, counted in closed form
    def most_chambers(n):
        return max(distinct_ordering_count(dual_partition(o.partition))
                   for o in orbits_of(SimpleType("A", n - 1)))

    n = 2
    while most_chambers(n) <= MAX_CHAMBERS:
        n += 1
    assert CHAMBERS_MAX_N == n - 1


@pytest.mark.parametrize("suite, caps, message", [
    ("chambers", {"max_n": 19},
     "the chambers suite's max_n of 19 exceeds cap 18"),
    ("chambers", {"max_n": 10**6},
     "the chambers suite's max_n of 1000000 exceeds cap 18"),
    ("cones", {"count": CONES_MAX_COUNT + 1},
     f"the cones suite's count of {CONES_MAX_COUNT + 1} exceeds cap "
     f"{CONES_MAX_COUNT}")], ids=["chambers-19", "chambers-10^6", "cones"])
def test_over_cap_size_is_refused_before_the_first_row(
        first_row_raises, suite, caps, message):
    # the chambers suite used to build every row of n <= 18 (~6 s), then
    # fail on the first over-cap orbit; the cones suite had no cap
    with pytest.raises(SizeCapExceeded) as info:
        run_suite(suite, **caps)
    assert str(info.value) == message


@pytest.mark.parametrize("suite, caps", [
    ("chambers", {"max_n": CHAMBERS_MAX_N}),
    ("cones", {"count": CONES_MAX_COUNT}), ("cones", {"count": 100})],
    ids=["chambers", "cones", "cones-100"])
def test_size_at_the_cap_runs(first_row_raises, suite, caps):
    with pytest.raises(RowStarted):
        run_suite(suite, **caps)


def test_chambers_suite_counts_degrees_in_one_pass(monkeypatch):
    # the degree rule reads one count of the wall ends per complex, not
    # a scan of every wall per chamber: each complex's walls are read
    # twice (that count and the connectivity check), whatever its size
    reads = []
    walls = ChamberComplex.walls

    def counted(self):
        reads.append(self)
        return walls.__get__(self, ChamberComplex)

    monkeypatch.setattr(ChamberComplex, "walls", property(counted))
    rows = run_suite("chambers", max_n=6)
    assert rows and all(r.agrees for r in rows)
    assert len(reads) == 2 * len(rows)


# the oracles the classify bounds admit for sl_n: ad-rank up to n = 8,
# KKS up to 5, Richardson up to 6, the fiber count up to 4
@pytest.mark.parametrize("n, names", [
    (2, ALL_ORACLES), (3, ALL_ORACLES), (4, ALL_ORACLES),
    (5, ALL_ORACLES - {"springer-fiber-count"}),
    (6, {"ad-rank", "richardson-jordan-type"}),
])
def test_oracle_block_agrees(n, names):
    for o in orbits_of(SimpleType("A", n - 1)):
        if o.partition[0] == 1:
            continue
        report = contact_resolution_exists(o)
        rows = verify.oracle_block(report, 5)
        assert rows and all(r.agrees for r in rows), o
        assert {r.oracle for r in rows} == names, o
        # an orbit-level oracle gives one row, the others one per
        # polarization
        per_pol = len(names & PER_POLARIZATION)
        assert len(rows) == len(names) - per_pol \
            + per_pol * len(report.polarizations), o


def test_classify_bounds_are_literals():
    # a rise of an oracle's size cap must not add rows to classify reports
    tree = ast.parse(Path(verify.__file__).read_text())
    [table] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["CLASSIFY_MAX_N"]]
    assert [key.value for key in table.keys] == [*verify.CLASSIFY_MAX_N]
    assert all([isinstance(v, ast.Constant) and type(v.value) is int
                for v in table.values])


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
