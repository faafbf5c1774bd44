"""Verification suites: formula vs independent oracle, row by row.

Each suite replays one family of invariants at configurable caps and
reports one :class:`OracleCheck` per case with the formula value, the
oracle value, and whether they agree. Suites are deterministic given the
seed; row order is fixed by construction.

This module owns every formula-vs-oracle row. The ``*_check`` builders
make the rows of the suites and of :func:`oracle_block`, the oracle
block of a ``classify`` report, whose bounds are the one table
``CLASSIFY_MAX_N``. The decision layer (``resolutions``) only decides,
and the oracles (``oracle_lab``) know nothing of the formulas they
check. An orbit's rows read its dimension off its ``OrbitRecord``.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple

from . import oracle_lab
from .errors import UnknownSuite
from .lie_core import SimpleType, parabolic
from .orbits import OrbitRecord, dual_partition, orbit_record, orbits_of
from .resolutions import (
    ResolutionReport,
    ample_cone,
    composition_richardson_partition,
    compositions_of,
    distinct_ordering_count,
    movable_chambers,
)


class OracleCheck(namedtuple("OracleCheck", "oracle case formula_value "
                             "oracle_value seeds", defaults=((),))):
    """One formula value against the value of an independent oracle."""

    __slots__ = ()

    @property
    def agrees(self) -> bool:
        return self.formula_value == self.oracle_value


def ad_rank_check(rec: OrbitRecord) -> OracleCheck:
    """dim O against the rank of ad_e on the Jordan representative."""
    model = oracle_lab.jordan_nilpotent(rec.label.partition)
    return OracleCheck("ad-rank", str(rec.label), rec.dim_orbit,
                       oracle_lab.addim(model))


def kks_check(rec: OrbitRecord) -> OracleCheck:
    """dim O against the rank of the Kirillov-Kostant-Souriau form."""
    model = oracle_lab.jordan_nilpotent(rec.label.partition)
    return OracleCheck("kks-rank", str(rec.label), rec.dim_orbit,
                       oracle_lab.kks_rank(model))


def richardson_check(comp, partition, seed: int) -> OracleCheck:
    """The Richardson partition of a composition against the Jordan type
    of a seeded nilradical sample certified generic."""
    observed = oracle_lab.generic_jordan_type(comp, seed=seed)
    return OracleCheck("richardson-jordan-type", f"composition {comp}",
                       list(partition), list(observed),
                       tuple(oracle_lab.trial_seeds(seed)))


def fiber_check(comp, seed: int) -> OracleCheck:
    """The Springer degree, 1 (type A Springer maps are birational),
    against the exact count of the generic fiber."""
    count = oracle_lab.generic_fiber_count(comp, seed=seed)
    return OracleCheck("springer-fiber-count", f"composition {comp}",
                       1, count, tuple(oracle_lab.trial_seeds(seed)))


def _type_a_records(max_n, nonzero=False):
    """The records of the walk's orbits of sl_2, ..., sl_max_n, in order,
    made one at a time: a suite refused at an over-cap n stops there."""
    records = (orbit_record(o) for n in range(2, max_n + 1)
               for o in orbits_of(SimpleType("A", n - 1)))
    return (rec for rec in records if not (nonzero and rec.is_zero))


def _suite_ad_rank(seed, max_n):
    return [ad_rank_check(rec) for rec in _type_a_records(max_n)]


def _suite_kks(seed, max_n):
    return [kks_check(rec) for rec in _type_a_records(max_n)]


def _suite_contact(seed, max_n):
    rows = []
    for rec in _type_a_records(max_n, nonzero=True):
        base = oracle_lab.jordan_nilpotent(rec.label.partition)
        d = rec.dim_orbit
        expected = {"kks_rank": d, "theta_kernel_dim": d - 1,
                    "omega_rank_on_kernel": d - 2,
                    "radical_is_euler_line": True}
        models = [("jordan form", None, base)]
        for trial in range(3):
            conj_seed = seed * 1000 + trial
            models.append((f"conjugate[{conj_seed}]",
                           oracle_lab.conjugate_seed(conj_seed),
                           oracle_lab.random_conjugate(base, conj_seed)))
        for tag, seed_string, model in models:
            # dim_orbit is the rank of the KKS form bordered by theta,
            # which is kks_rank once the border stays unpaired (else
            # contact_check raises): one elimination per model
            res = oracle_lab.contact_check(model)
            observed = {"kks_rank": res.dim_orbit,
                        "theta_kernel_dim": res.theta_kernel_dim,
                        "omega_rank_on_kernel": res.omega_rank_on_kernel,
                        "radical_is_euler_line": res.radical_is_euler_line}
            rows.append(OracleCheck(
                "contact", f"{rec.label} {tag}", expected, observed,
                (seed_string,) if seed_string else ()))
    return rows


def _suite_richardson(seed, max_n):
    return [richardson_check(comp, composition_richardson_partition(comp), seed)
            for n in range(1, max_n + 1) for comp in compositions_of(n)]


def _suite_fibers(seed, max_n):
    return [fiber_check(comp, seed)
            for n in range(1, max_n + 1) for comp in compositions_of(n)]


def _suite_chambers(seed, max_n):
    rows = []
    for rec in _type_a_records(max_n, nonzero=True):
        o = rec.label
        expected = {"count": distinct_ordering_count(
                        dual_partition(o.partition)),
                    "connected": True, "degree_rule": True}
        cc = movable_chambers(o)
        # one count of the wall ends serves every chamber
        degree = Counter(end for w in cc.walls
                         for end in {w.chamber_a, w.chamber_b})
        degree_rule = all(
            degree[ch.composition] == sum(
                1 for i in range(len(ch.composition) - 1)
                if ch.composition[i] != ch.composition[i + 1])
            for ch in cc.chambers)
        observed = {"count": cc.chamber_count,
                    "connected": cc.is_connected,
                    "degree_rule": degree_rule}
        rows.append(OracleCheck("chambers", str(o), expected, observed))
    return rows


_AMPLE_CONE_PARABOLICS = [
    ("A", 1, (1,)), ("A", 3, (1,)), ("A", 3, (1, 3)), ("A", 3, (1, 2, 3)),
    ("A", 4, (2, 4)), ("B", 2, (1,)), ("B", 3, (1, 3)), ("C", 3, (2,)),
    ("D", 4, (1, 3, 4)), ("F", 4, (1, 2, 3, 4)), ("G", 2, (1, 2)),
]


def _cone_shape(cone) -> dict:
    return {"simplicial": cone.is_simplicial, "rays": len(cone.extreme_rays)}


def _suite_cones(seed, count, max_dim):
    # the one package caller of the engine: no other process loads it
    from .cones import cone_from_generators, dual_cone
    rows = []
    rng = random.Random(f"cones:{seed}")
    for i in range(count):
        dim = rng.randint(1, max_dim)
        m = rng.randint(1, dim + 3)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(m)]
        cone = cone_from_generators(dim, gens)
        # generators -> facets -> generators: the facet normals cut out
        # the dual of the cone they generate
        from_facets = dual_cone(cone_from_generators(dim, cone.facet_normals))
        rows.append(OracleCheck(
            "cones", f"random cone {i} dim {dim} gens {sorted(gens)}",
            {"roundtrip": True, "dual_involution": True},
            {"roundtrip": from_facets == cone,
             "dual_involution": dual_cone(dual_cone(cone)) == cone},
            (f"cones:{seed}",)))
    # the closed-form orthant against double description of the unit
    # vectors: equal cones show their shape, a different one its generators
    for fam, rank_, marks in _AMPLE_CONE_PARABOLICS:
        p = parabolic(SimpleType(fam, rank_), marks)
        k = len(marks)
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        closed, found = ample_cone(p), cone_from_generators(k, units)
        shape = _cone_shape(closed)
        rows.append(OracleCheck(
            "cones", f"ample cone {p}", shape, shape if found == closed else {
                "extreme_rays": [list(r) for r in found.extreme_rays],
                "lineality_basis": [list(r) for r in found.lineality_basis]}))
    return rows


# suite name -> (runner, default caps, oracle cap); a runner takes the seed
# and its caps. The oracle cap is what a row of size n hands an oracle and
# that oracle's cap, or None; every n >= 2 has a nonzero orbit and a
# composition, so a max_n over the cap is refused before the first row,
# with the error of the first over-cap row
_SUITES = {
    "ad-rank": (_suite_ad_rank, {"max_n": 5},
                ("partition", oracle_lab.ADDIM_SIZE_CAP)),
    "kks": (_suite_kks, {"max_n": 5},
            ("partition", oracle_lab.ADDIM_SIZE_CAP)),
    "contact": (_suite_contact, {"max_n": 5},
                ("partition", oracle_lab.ADDIM_SIZE_CAP)),
    "richardson": (_suite_richardson, {"max_n": 6},
                   ("composition", oracle_lab.ADDIM_SIZE_CAP)),
    "fibers": (_suite_fibers, {"max_n": 4},
               ("composition", oracle_lab.FIBER_SIZE_CAP)),
    "chambers": (_suite_chambers, {"max_n": 7}, None),
    "cones": (_suite_cones, {"count": 100, "max_dim": 4}, None),
}


# suite name -> the largest n (type A_{n-1}) at which the ``classify``
# oracle block runs that suite's check; literals, so that a rise of an
# oracle's cap adds no rows to a ``classify`` report
CLASSIFY_MAX_N = {
    "ad-rank": 8,
    "kks": 5,
    "richardson": 6,
    "fibers": 4,
}


def oracle_block(report: ResolutionReport, seed: int) -> tuple[OracleCheck, ...]:
    """The oracle rows of a ``classify`` report: for a type-A orbit of
    sl_n, each check whose ``CLASSIFY_MAX_N`` bound admits n, on the
    report's orbit record and on each of its polarizations, whose
    Springer degree is 1 by definition. Other types get no rows."""
    o = report.orbit.label
    if o.simple_type.family != "A":
        return ()
    n = o.simple_type.rank + 1
    cap = CLASSIFY_MAX_N
    checks = []
    if n <= cap["ad-rank"]:
        checks.append(ad_rank_check(report.orbit))
    if n <= cap["kks"]:
        checks.append(kks_check(report.orbit))
    for pol in report.polarizations:
        if n <= cap["richardson"]:
            checks.append(richardson_check(pol.composition, o.partition, seed))
        if n <= cap["fibers"]:
            checks.append(fiber_check(pol.composition, seed))
    return tuple(checks)


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def _suite(name: str):
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    return _SUITES[name]


def suite_caps(name: str, max_n: int | None = None,
               count: int | None = None) -> dict:
    """The suite's default caps with the given overrides applied. An
    override the suite does not read is still listed, so a report echoes
    every cap it was asked for."""
    caps = dict(_suite(name)[1])
    if max_n is not None:
        caps["max_n"] = max_n
    if count is not None:
        caps["count"] = count
    return caps


def run_suite(name: str, max_n: int | None = None, seed: int = 0,
              count: int | None = None) -> list[OracleCheck]:
    """Run one named suite; None caps fall back to the suite defaults."""
    runner, defaults, oracle_cap = _suite(name)
    caps = suite_caps(name, max_n, count)
    if oracle_cap is not None:
        kind, cap = oracle_cap
        if caps["max_n"] > cap:  # the error of the first over-cap row
            oracle_lab.refuse_over_cap(cap + 1, kind, cap)
    return runner(seed, **{key: caps[key] for key in defaults})
