"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Everything is exact rational arithmetic; every tolerance is zero.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines.
"""

import io
import json
import math
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction


from contactres import oracle_lab
from contactres.cli import main
from contactres.lie_core import SimpleType
from contactres.orbits import (
    dual_partition,
    minimal_orbit_label,
    orbit_dimension,
    orbits_of,
    parse_orbit,
)
from contactres.resolutions import (
    canonical_degree_on_curve,
    compositions_of,
    contact_resolution_exists,
    movable_chambers,
)
from contactres.verify import run_suite


def report(number, description, ok):
    print(f"ACCEPTANCE {number}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed"


def test_criterion_1_dimension_concordance():
    """orbit_dimension == ad-rank oracle for every partition, n <= 6."""
    start = time.monotonic()
    failures = []
    cases = 0
    for n in range(2, 7):
        for o in orbits_of(SimpleType("A", n - 1)):
            cases += 1
            formula = orbit_dimension(o)
            oracle = oracle_lab.addim(oracle_lab.jordan_nilpotent(o.partition))
            if formula != oracle:
                failures.append((o, formula, oracle))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    report(1, f"dimension concordance on {cases} partitions "
              f"({elapsed:.1f}s)", ok)


def test_criterion_2_richardson_law():
    """generic Jordan type == transpose of the sorted composition, n <= 6."""
    start = time.monotonic()
    failures = []
    cases = 0
    for n in range(1, 7):
        for comp in compositions_of(n):
            cases += 1
            expected = dual_partition(tuple(sorted(comp, reverse=True)))
            observed = oracle_lab.generic_jordan_type(comp, seed=1)
            if observed != expected:
                failures.append((comp, expected, observed))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(2, f"Richardson law on {cases} compositions with 3-seed "
              f"agreement ({elapsed:.1f}s)", ok)


def test_criterion_3_contact_nondegeneracy(type_a_orbits):
    """Linearized contact condition for every nonzero partition of n <= 5
    and 3 random rational conjugates each."""
    failures = []
    cases = 0
    for o in type_a_orbits(4):
        base = oracle_lab.jordan_nilpotent(o.partition)
        d = orbit_dimension(o)
        for seed in (101, 102, 103):
            cases += 1
            model = oracle_lab.random_conjugate(base, seed)
            res = oracle_lab.contact_check(model)
            good = (oracle_lab.kks_rank(model) == d
                    and res.dim_orbit == d
                    and res.theta_kernel_dim == d - 1
                    and res.omega_rank_on_kernel == d - 2
                    and res.radical_is_euler_line)
            if not good:
                failures.append((o, seed, res))
    report(3, f"contact nondegeneracy on {cases} conjugated models, "
              f"zero failures required", not failures)


def test_criterion_4_classification_trichotomy(type_a_orbits):
    """SmoothAlready exactly for minimal orbits and G2 dim 8; type A total."""
    ok = True
    minimal_types = [SimpleType("A", 1), SimpleType("A", 2),
                     SimpleType("A", 3), SimpleType("A", 4),
                     SimpleType("B", 2), SimpleType("B", 3),
                     SimpleType("C", 2), SimpleType("C", 3),
                     SimpleType("D", 4), SimpleType("G", 2)]
    for t in minimal_types:
        rep = contact_resolution_exists(minimal_orbit_label(t))
        ok &= rep.verdict == "SmoothAlready" and rep.reason == "Minimal"
        if t.family != "A":
            ok &= rep.affine_closure_admits_symplectic_resolution is False
    rep = contact_resolution_exists(parse_orbit("G2:dim8"))
    ok &= rep.verdict == "SmoothAlready" and rep.reason == "G2dim8"
    count = 0
    for o in type_a_orbits(6):
        rep = contact_resolution_exists(o)
        count += 1
        ok &= rep.verdict != "Unknown"
        if o == minimal_orbit_label(o.simple_type):
            ok &= rep.verdict == "SmoothAlready"
        else:
            ok &= (rep.verdict == "ContactResolutionsExist"
                   and len(rep.polarizations) > 0)
    report(4, f"trichotomy: 10 minimal orbits + G2 dim8 smooth, "
              f"{count} sl_n orbits never Unknown", ok)


def test_criterion_5_chamber_counts(type_a_orbits):
    """Chamber count = multinomial of the dual partition, n <= 7, plus
    spot values and wall-graph structure."""
    ok = True
    for o in type_a_orbits(6):
        cc = movable_chambers(o)
        dual = dual_partition(o.partition)
        expected = math.factorial(len(dual))
        for v in set(dual):
            expected //= math.factorial(dual.count(v))
        ok &= cc.chamber_count == expected
        ok &= cc.is_connected
        degrees = Counter(end for w in cc.walls
                          for end in {w.chamber_a, w.chamber_b})
        for ch in cc.chambers:
            comp = ch.composition
            degree = sum(1 for i in range(len(comp) - 1)
                         if comp[i] != comp[i + 1])
            ok &= degrees[comp] == degree
    spots = {
        "A3:2,1,1": 2,
        "A3:2,2": 1,
        "A5:3,2,1": 6,
    }
    for text, want in spots.items():
        ok &= movable_chambers(parse_orbit(text)).chamber_count == want
    report(5, "chamber counts, connectivity, and transposition "
              "degree rule for all partitions of n <= 7", ok)


def test_criterion_6_springer_degree_one():
    """Springer fiber count is 1 for every composition of n <= 4."""
    failures = []
    for n in range(1, 5):
        for comp in compositions_of(n):
            if oracle_lab.generic_fiber_count(comp, seed=5) != 1:
                failures.append(comp)
    report(6, "Springer degree 1 for all compositions of n <= 4",
           not failures)


def test_criterion_7_cone_engine():
    """>= 100 generated cones, dims <= 4: round trip, dual involution,
    simplicial ample cones; zero failures."""
    rows = run_suite("cones", count=100, seed=13)
    random_rows = [r for r in rows if r.case.startswith("random cone")]
    failures = [r for r in rows if not r.agrees]
    ok = len(random_rows) >= 100 and not failures
    report(7, f"cone engine soundness over {len(rows)} cases "
              f"({len(random_rows)} random cones)", ok)


def test_criterion_8_canonical_degree_formula():
    """K-degree on a curve: 0 on exceptional classes, -(n+1) d otherwise."""
    table = [
        (0, 1), (0, 2), (1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 5),
        (4, 1), (5, 7), (6, 2), (7, 1), (8, 3), (10, 4),
        (2, Fraction(1, 2)), (3, Fraction(2, 3)),
        (1, 0), (4, 0), (9, 0), (12, 0),
    ]
    assert len(table) == 20
    ok = True
    for n, d in table:
        got = canonical_degree_on_curve(n, d)
        want = Fraction(0) if d == 0 else Fraction(-(n + 1)) * Fraction(d)
        ok &= got == want
    report(8, "canonical-degree formula exact on 20 (n, d) pairs", ok)


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_9_determinism():
    """Fixed seed implies byte-identical JSON for classify and verify."""
    ok = True
    for argv in [
        ["classify", "A4:3,2", "--json", "--seed", "42"],
        ["classify", "G2:dim8", "--json"],
        ["verify", "--suite", "richardson", "--max-n", "5", "--seed", "42",
         "--json"],
        ["verify", "--suite", "cones", "--count", "30", "--seed", "8",
         "--json"],
    ]:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        ok &= code1 == 0 and code2 == 0
        ok &= out1.encode() == out2.encode()
        json.loads(out1)
    report(9, "byte-identical JSON across repeated seeded runs", ok)
