"""Low-rank isomorphisms and diagram automorphisms: one Lie algebra, one
answer, whatever its name.

Each check maps the Dynkin nodes of one type onto those of another (or
onto itself) and each orbit onto its image. On every marking the flag
variety's dimension, Poincare polynomial and twistor answer must agree.
On every nonzero orbit each field of the decision must agree wherever
both sides decide it: dimension, verdict, reason, the affine-closure
flag, the polarizations (their markings carried across the node map) and
the chamber count. The orbits are read off ``orbits.orbits_of``.
"""

from itertools import combinations

import pytest

from contactres.errors import NoPolarization, UnknownClassification
from contactres.lie_core import (
    SimpleType,
    flag_dimension,
    is_projective_space,
    parabolic,
    poincare_polynomial,
)
from contactres.orbits import orbits_of, parse_orbit
from contactres.resolutions import (
    contact_resolution_exists,
    movable_chambers,
    polarizations,
)


def markings(t):
    """Every nonempty marking of ``t``."""
    nodes = range(1, t.rank + 1)
    return [m for k in nodes for m in combinations(nodes, k)]


def carried(marks, nodes):
    return tuple(sorted(nodes[i] for i in marks))


def flag_fields(t, marks):
    p = parabolic(t, marks)
    return (flag_dimension(p), poincare_polynomial(p), is_projective_space(p))


def orbit_fields(o, nodes=None):
    """The decision's fields of a nonzero orbit, None where undecided.
    The polarizations are their markings carried through ``nodes``, or
    their count where no node map is given."""
    report = contact_resolution_exists(o)
    decided = report.verdict != "Unknown"
    try:
        pols = [q.parabolic.marked for q in polarizations(o)]
    except UnknownClassification:
        pols = None
    if pols is not None:
        pols = len(pols) if nodes is None else \
            sorted(carried(m, nodes) for m in pols)
    try:
        chambers = movable_chambers(o).chamber_count
    except NoPolarization:
        chambers = 0
    except UnknownClassification:
        chambers = None
    return {"dimension": report.orbit.dim_orbit,
            "verdict": report.verdict if decided else None,
            "reason": report.reason if decided else None,
            "affine": report.affine_closure_admits_symplectic_resolution,
            "polarizations": pols, "chambers": chambers}


def disagreements(a, b):
    """The fields both sides decide and answer differently."""
    return {k: (a[k], b[k]) for k in a
            if a[k] is not None and b[k] is not None and a[k] != b[k]}


def undecided_on_one_side(a, b):
    return sorted(k for k in a if (a[k] is None) != (b[k] is None))


def identity(t):
    return {i: i for i in range(1, t.rank + 1)}


def check_markings(ta, tb, nodes):
    for marks in markings(ta):
        assert flag_fields(ta, marks) == \
            flag_fields(tb, carried(marks, nodes)), (ta, marks)


def orbit_pairs(pairs):
    return [(parse_orbit(a), parse_orbit(b)) for a, b in pairs]


def a_flip(rank):
    t = SimpleType("A", rank)
    nodes = {i: rank + 1 - i for i in range(1, rank + 1)}
    pairs = [(o, o) for o in orbits_of(t) if o.partition[0] > 1]
    return t, t, nodes, pairs


def d_fork_swap(rank):
    t = SimpleType("D", rank)
    nodes = {**identity(t), rank - 1: rank, rank: rank - 1}
    swap = {"I": "II", "II": "I", None: None}
    pairs = [(o, o._replace(very_even_tag=swap[o.very_even_tag]))
             for o in orbits_of(t) if o.partition[0] > 1]
    return t, t, nodes, pairs


# so_5 = sp_4: the long root is node 1 of B2 and node 2 of C2
B2_C2 = (SimpleType("B", 2), SimpleType("C", 2), {1: 2, 2: 1}, orbit_pairs([
    ("B2:5", "C2:4"), ("B2:3,1,1", "C2:2,2"), ("B2:2,2,1", "C2:2,1,1")]))

# sl_4 = so_6: the middle node of A3 is the vector node 1 of D3
A3_D3 = (SimpleType("A", 3), SimpleType("D", 3), {1: 2, 2: 1, 3: 3},
         orbit_pairs([("A3:4", "D3:5,1"), ("A3:3,1", "D3:3,3"),
                      ("A3:2,2", "D3:3,1,1,1"), ("A3:2,1,1", "D3:2,2,1,1")]))

PAIRS = ([pytest.param(*a_flip(r), id=f"A{r}-flip") for r in range(1, 9)]
         + [pytest.param(*d_fork_swap(r), id=f"D{r}-fork")
            for r in range(4, 9)]
         + [pytest.param(*B2_C2, id="B2=C2"),
            pytest.param(*A3_D3, id="A3=D3")])


@pytest.mark.parametrize("ta, tb, nodes, pairs", PAIRS)
def test_isomorphic_names_agree_where_both_decide(ta, tb, nodes, pairs):
    check_markings(ta, tb, nodes)
    assert [a.simple_type for a, _ in pairs] == [ta] * len(pairs)
    for a, b in pairs:
        assert disagreements(orbit_fields(a, nodes),
                             orbit_fields(b, identity(tb))) == {}, (a, b)


def test_d3_fields_still_undecided():
    # A3 decides these fields and D3 does not yet; transporting D3 to A3
    # edits this pin
    ta, tb, nodes, pairs = A3_D3
    undecided = {str(b): undecided_on_one_side(
        orbit_fields(a, nodes), orbit_fields(b, identity(tb)))
        for a, b in pairs}
    everything = ["affine", "chambers", "polarizations", "reason", "verdict"]
    assert undecided == {"D3:5,1": [], "D3:3,3": everything,
                         "D3:3,1,1,1": everything,
                         "D3:2,2,1,1": ["affine", "chambers", "polarizations"]}


def test_d4_triality():
    # the automorphism 1 -> 3 -> 4 -> 1 of D4 permutes each triple of
    # orbits, so every field is constant on a triple
    d4 = SimpleType("D", 4)
    check_markings(d4, d4, {1: 3, 2: 2, 3: 4, 4: 1})
    for triple in [("2,2,2,2/I", "2,2,2,2/II", "3,1,1,1,1,1"),
                   ("4,4/I", "4,4/II", "5,1,1,1")]:
        fields = [orbit_fields(parse_orbit(f"D4:{o}")) for o in triple]
        assert disagreements(fields[0], fields[1]) == {}, triple
        assert disagreements(fields[1], fields[2]) == {}, triple
        assert disagreements(fields[2], fields[0]) == {}, triple
