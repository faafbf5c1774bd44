"""Decision procedures for contact resolutions of projectivised orbit
closures.

The central facts this module operationalizes:

* Contact resolutions, crepant resolutions, and minimal models of the
  projectivised closure are one and the same notion, so a report carries
  a single predicate, never three.
* Every contact resolution is the projectivised cotangent bundle of a
  flag variety G/P with P a polarization (birational Springer map), so
  deciding existence and enumerating resolutions reduce to classification
  data about polarizations.
* Existence trichotomy: the projectivised normalization is already
  smooth exactly for minimal orbits and for the 8-dimensional orbit of
  G2; otherwise a contact resolution exists iff the affine closure has a
  symplectic resolution. In type A that is always the case and the
  polarizations are the distinct orderings of the dual partition,
  enumerated in time linear in their number, at most ``MAX_CHAMBERS``
  of them (counted in closed form first). Outside type A one rule set
  decides every type, B-D and E/F/G alike, from two rank-uniform facts:
  a closure whose projectivised normalization is smooth has no
  symplectic resolution (but D3 is A3), and the regular orbit is
  resolved by T*(G/B). Every other orbit is an honest Unknown; the
  exceptional table supplies only dimensions and notes.
* The polarization set is decided here, once, by :func:`polarizations_of`
  on the orbit's record. The verdict, the affine-closure flag, the
  equivalence class of a type-A parabolic and the chamber complex of the
  movable cone all derive from it. A chamber is the ample cone of one
  resolution P(T*(G/P)), so a chamber *is* a polarization: the complex
  holds the :class:`Polarization` records themselves, each with its ample
  cone in its own weight basis, and, in type A, one wall for each
  adjacent transposition of distinct entries of the composition. Only the
  combinatorial gluing is recorded; no common linear embedding of all
  chambers is attempted (none is available at this level of the theory).
  That the wall graph is connected is checked by a count, not a search.
* Each fact is computed once. The decision reads one orbit record, whose
  one dimension decides zero, minimal and regular (dim g - rank, twice
  the closed-form count of positive roots, so no root system is built to
  find it). An untagged very-even label names two orbits, so the
  decision refuses it (:class:`InvalidPartition`). Each polarization's
  record holds its flag dimension, checked against that dimension (dim
  O = 2 dim G/P), and its composition, the ordering it was cut from
  (no separate check of the composition runs; the parabolic constructor
  still checks each cut marking).
* The decision owns each chamber's ample cone: the coordinate orthant in
  closed form, built once per rank and shared by every chamber of that
  rank (:func:`ample_cone`). ``verify --suite cones`` checks it.
* :func:`contact_resolution_exists` takes only the orbit and returns
  only the decision. The matrix oracles that cross-check it run in
  ``verify``, so this module does not import them.

The records are named tuples (see ``lie_core``); a hand-built
:class:`RationalCone` states all four fields, facets included, in
canonical form. Chamber labels and wall ends are plain composition
tuples, compared only with each other.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter
# unused here, but perfbench/layertrace.py patches this name to count orderings
from itertools import permutations  # noqa: F401

from .errors import (
    ContactresError,
    DimensionMismatch,
    EmptyMarking,
    InvalidPartition,
    NoPolarization,
    SizeCapExceeded,
    UnknownClassification,
    UnsupportedType,
    ZeroOrbit,
    invariant,
)
from .lie_core import (
    MAX_ROOT_SYSTEM_RANK,
    ParabolicType,
    build_root_system,
    flag_dimension,
    parabolic,
)
from .orbits import (
    OrbitLabel,
    dual_partition,
    exceptional_entry,
    is_very_even,
    orbit_record,
    validate_orbit,
)
from .ratlinalg import dot, primitive, rank, rational

VERDICT_SMOOTH = "SmoothAlready"
VERDICT_EXISTS = "ContactResolutionsExist"
VERDICT_UNKNOWN = "Unknown"

REASON_MINIMAL = "Minimal"
REASON_G2DIM8 = "G2dim8"
REASON_SYMPLECTIC = "SymplecticResolution"
REASON_INDETERMINATE = "Indeterminate"

# Text for the two pinned boundary examples where resolutions of the
# punctured closure and of the affine closure genuinely differ.
NOTE_MINIMAL_NON_A = (
    "boundary case: the punctured affine closure is smooth, but the affine "
    "closure itself admits no symplectic resolution outside type A")

# Most type-A polarizations (= chambers) enumerated for one orbit: 7!, the
# count of the staircase A27:7,6,5,4,3,2,1, which still answers in seconds.
# Time and report size grow with the count, so a larger one is refused.
MAX_CHAMBERS = 5040


def compositions_of(n: int):
    """All compositions of n (ordered tuples of positive parts)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


def composition_from_marking(p: ParabolicType) -> tuple[int, ...]:
    """Marked roots of A_{n-1} -> block composition of n."""
    if p.simple_type.family != "A":
        raise UnsupportedType("compositions describe type A parabolics only")
    cuts = (0,) + p.marked + (p.simple_type.rank + 1,)
    return tuple([b - a for a, b in zip(cuts, cuts[1:])])


def _generators(rays, lineality):
    """A cone's canonical generators: its rays, then +/- each lineality
    vector."""
    gens = list(rays)
    for vec in lineality:
        gens += [vec, tuple(-x for x in vec)]
    return tuple(gens)


class RationalCone(namedtuple("RationalCone", "ambient_dim extreme_rays "
                              "lineality_basis facet_normals")):
    """A rational polyhedral cone in canonical double-description form,
    with its facet normals: the canonical generators of its dual."""

    __slots__ = ()

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return _generators(self.extreme_rays, self.lineality_basis)

    @property
    def is_simplicial(self) -> bool:
        return (not self.lineality_basis
                and len(self.extreme_rays) == rank(self.extreme_rays))

    def contains(self, vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in dim {self.ambient_dim}")
        vector = primitive(vector)  # same facet signs; refuses a float
        return all(dot(h, vector) >= 0 for h in self.facet_normals)


def ample_cone(p: ParabolicType) -> RationalCone:
    """Relative ample cone of the resolutions attached to P.

    In the fundamental-weight basis indexed by the marked roots this is
    the coordinate orthant: the dual of the Schubert-curve cone under the
    identity pairing. Its rays and facet normals are the unit vectors, so
    no double description runs and no ambient dimension cap applies.
    Parabolics with the same number of marked roots get the same object.
    """
    if not p.marked:
        raise EmptyMarking("ample cone needs a proper parabolic")
    return _orthant(len(p.marked))


@lru_cache(maxsize=MAX_ROOT_SYSTEM_RANK)
def _orthant(k: int) -> RationalCone:
    """The coordinate orthant of dimension k. A decision computes flag
    dimensions, so its k stays under the rank cap: one entry per rank."""
    units = tuple(sorted(
        tuple(int(i == j) for j in range(k)) for i in range(k)))
    return RationalCone(k, units, (), units)


class Polarization(namedtuple("Polarization", "parabolic composition "
                               "flag_dimension")):
    """A parabolic P whose Springer map resolves the orbit closure, so
    that P(T*(G/P)) is a contact resolution; its ample cone is one
    chamber of the movable cone. The map is birational by definition, so
    its degree, 1, is not stored. ``composition`` is P's block
    composition in type A and None elsewhere."""

    __slots__ = ()

    @property
    def label(self) -> tuple[int, ...]:
        """The chamber's name: the composition, else the marking."""
        return self.composition if self.composition is not None \
            else self.parabolic.marked

    @property
    def ample(self):
        """The ample cone, written in the parabolic's own weight basis."""
        return ample_cone(self.parabolic)


def _checked(dim: int, found) -> list[Polarization]:
    """The polarizations of an orbit of dimension ``dim`` from (parabolic,
    composition) pairs. Each Springer map is birational, so each flag
    dimension must be half the orbit's: dim O = 2 dim G/P."""
    polar = []
    for p, comp in found:
        flag_dim = flag_dimension(p)
        invariant(2 * flag_dim == dim,
                  "birational polarization must have dim O = 2 dim G/P")
        polar.append(Polarization(p, comp, flag_dim))
    return polar


def composition_richardson_partition(comp) -> tuple[int, ...]:
    """Type-A Richardson recipe on a composition: its sorted transpose."""
    return dual_partition(tuple(sorted(comp, reverse=True)))


def richardson_partition(p: ParabolicType) -> OrbitLabel:
    """Richardson orbit of a parabolic: the dense orbit in G . nilradical.

    Type A: :func:`composition_richardson_partition` of its composition.
    The analogous recipes for B/C/D involve partition collapses that no
    shipped data anchors, so they are refused rather than guessed.
    """
    t = p.simple_type
    if t.family != "A":
        raise UnsupportedType(
            f"no Richardson recipe shipped for type {t.family}")
    part = composition_richardson_partition(composition_from_marking(p))
    return validate_orbit(t, part)


def _distinct_orderings(items):
    """Distinct orderings of ``items`` in lexicographic order, by
    next-permutation steps: the work is linear in the output."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def distinct_ordering_count(items) -> int:
    """How many orderings :func:`_distinct_orderings` yields, in closed
    form: m!/prod(mult!). On the dual partition of a type-A orbit this is
    the number of its polarizations, and of its chambers."""
    a = sorted(items)
    count = math.factorial(len(a))
    run = 1
    for prev, x in zip(a, a[1:]):
        # the k-th equal item in a row divides by k, so a run of m
        # divides by m!, and every quotient on the way is whole
        run = run + 1 if x == prev else 1
        count //= run
    return count


def _type_a_polarizations(o: OrbitLabel, dim: int) -> list[Polarization]:
    t = o.simple_type
    if t.rank > MAX_ROOT_SYSTEM_RANK:
        build_root_system(t)  # refuses the rank before any count or cut
    dual = dual_partition(o.partition)
    count = distinct_ordering_count(dual)
    if count > MAX_CHAMBERS:
        raise SizeCapExceeded(f"{o} has {count} polarizations, over the "
                              f"cap of {MAX_CHAMBERS}")
    # an ordering of a valid dual partition is a valid composition of
    # rank + 1, so it is not checked again; parabolic() still indexes,
    # dedupes, sorts and bounds each cut marking
    return _checked(dim, ((parabolic(t, accumulate(comp[:-1])), comp)
                          for comp in _distinct_orderings(dual)))


def _smooth_closure_unresolvable(t) -> bool:
    """Whether an orbit closure whose projectivised normalization is
    smooth (a minimal orbit, or G2's 8-dimensional orbit) admits no
    symplectic resolution: so outside type A (Fu, Invent. Math. 151,
    2003; Prop. 3.21 for G2), but not in D3, which is A3 (so_6 = sl_4)."""
    return t.family != "A" and (t.family, t.rank) != ("D", 3)


def polarizations(o: OrbitLabel) -> list[Polarization]:
    """All polarizations of the orbit closure (its equivalence class).

    Sorted lexicographically by composition (type A) or marking.
    Raises :class:`UnknownClassification` where no rule decides; returns
    the empty list only when non-existence is definitive.
    """
    return polarizations_of(orbit_record(o))


def polarizations_of(record) -> list[Polarization]:
    """:func:`polarizations`, read off the orbit's record."""
    o, dim = record.label, record.dim_orbit
    if record.is_zero:
        raise ZeroOrbit(f"{o} is the zero orbit")
    t = o.simple_type
    if t.family == "A":
        return _type_a_polarizations(o, dim)
    # outside type A, B-G alike, only two rank-uniform facts decide
    if o.very_even_tag is None and is_very_even(t, o.partition):
        raise InvalidPartition(f"{o} is very even and names two orbits, "
                               f"{o}/I and {o}/II; give the tag")
    if record.proj_normalization_smooth and _smooth_closure_unresolvable(t):
        return []
    if dim == 2 * t.num_positive_roots:
        # the regular orbit, whose closure is the nilpotent cone, always
        # has its Springer resolution T*(G/B); the rank is refused before
        # a marking as long as the rank is built
        if t.rank > MAX_ROOT_SYSTEM_RANK:
            build_root_system(t)
        return _checked(dim, [(parabolic(t, range(1, t.rank + 1)), None)])
    raise UnknownClassification(
        f"symplectic-resolution data for {o} is not curated")


def equivalent_parabolics(p: ParabolicType) -> list[ParabolicType]:
    """The equivalence class of P: parabolics resolving the same closure.

    Type A: the polarizations of P's Richardson orbit, which are the
    orderings of the block composition. Elsewhere only the Borel is
    supported (it is alone in its class by a dimension count).
    """
    if not p.marked:
        raise EmptyMarking("equivalence needs a proper parabolic")
    t = p.simple_type
    if t.family == "A":
        return [q.parabolic
                for q in polarizations(richardson_partition(p))]
    if p.marked == tuple(range(1, t.rank + 1)):
        return [p]
    raise UnknownClassification(
        f"equivalence classes outside type A are not curated ({p})")


# --- chamber complexes --------------------------------------------------------

class Wall(namedtuple("Wall", "chamber_a chamber_b position entries")):
    """Codimension-one contact between two chambers. In type A the move
    is the adjacent transposition swapping ``entries`` at ``position``
    (1-based) of chamber_a's composition."""

    __slots__ = ()


class ChamberComplex(namedtuple("ChamberComplex", "chambers walls")):
    """The movable cone: its chambers, which are the polarizations sorted
    by label, and the walls between them."""

    __slots__ = ()

    @property
    def chamber_count(self) -> int:
        return len(self.chambers)

    @property
    def is_connected(self) -> bool:
        if not self.chambers:
            return False
        labels = [c.label for c in self.chambers]
        adjacency = {lab: set() for lab in labels}
        for w in self.walls:
            adjacency[w.chamber_a].add(w.chamber_b)
            adjacency[w.chamber_b].add(w.chamber_a)
        seen = {labels[0]}
        frontier = [labels[0]]
        while frontier:
            fresh = adjacency[frontier.pop()] - seen
            seen |= fresh
            frontier.extend(fresh)
        return len(seen) == len(labels)


def chamber_complex_for(orbit: OrbitLabel, polarization_list) -> ChamberComplex:
    """Assemble the chamber complex from an explicit polarization list.

    Type A: chambers are the distinct orderings of the dual partition and
    walls are adjacent transpositions of distinct entries. Other types:
    only single-chamber complexes are constructible from the shipped
    classification data.
    """
    if not polarization_list:
        raise NoPolarization(f"{orbit} has no polarization")
    chambers = tuple(sorted(polarization_list, key=attrgetter("label")))
    type_a = orbit.simple_type.family == "A"
    if not type_a and len(chambers) > 1:
        raise UnknownClassification(
            "wall structure outside type A is not curated")
    walls = []
    if type_a:
        # wall ends are the chambers' own composition tuples, and the
        # chambers are in label (= composition) order
        labels = {c.composition: c.composition for c in chambers}
        pairs = {}  # one entries tuple per (a, b), shared by its walls
        for comp in labels:
            for i, (a, b) in enumerate(zip(comp, comp[1:])):
                if a == b:
                    continue
                swapped = labels.get(comp[:i] + (b, a) + comp[i + 2:])
                invariant(swapped is not None, "orbit orderings must be "
                          "closed under adjacent transpositions")
                if a < b:  # comp < swapped: they first differ at i
                    # chamber_a, chamber_b, position (1-based), entries
                    entries = pairs.setdefault((a, b), (a, b))
                    walls.append(Wall(comp, swapped, i + 1, entries))
    # Closed under adjacent transpositions, the chambers hold every
    # ordering of the first one's composition, which those moves connect
    # (bubble sort): the wall graph is connected iff there are no other
    # chambers, i.e. iff the counts agree. A non-A complex has one chamber.
    invariant(not type_a or len(chambers) == distinct_ordering_count(
        chambers[0].composition), "wall graph must be connected")
    return ChamberComplex(chambers=chambers, walls=tuple(walls))


def movable_chambers(o: OrbitLabel) -> ChamberComplex:
    """Chamber structure of the movable cone of a contact resolution:
    one ample-cone chamber per equivalent parabolic."""
    return chamber_complex_for(o, polarizations(o))


def canonical_degree_on_curve(n_contact: int, l_degree) -> Fraction:
    """Degree of the canonical bundle on a curve class: -(n+1) L . C.

    Exceptional curve classes have L-degree zero, hence K-degree zero.
    """
    if n_contact < 0:
        raise ContactresError("contact dimension n must be nonnegative")
    return -(n_contact + 1) * rational(l_degree)


class ResolutionReport(namedtuple(
        "ResolutionReport",
        "orbit verdict reason chamber_complex "
        "affine_closure_admits_symplectic_resolution notes")):
    """The full answer for one orbit."""

    __slots__ = ()

    @property
    def polarizations(self) -> tuple[Polarization, ...]:
        """The complex's chambers, which are the polarizations, or ()."""
        return self.chamber_complex.chambers if self.chamber_complex else ()

    @property
    def resolution_exists(self) -> bool:
        return self.verdict in (VERDICT_SMOOTH, VERDICT_EXISTS)


def contact_resolution_exists(o: OrbitLabel) -> ResolutionReport:
    """Decide the existence trichotomy and assemble the full report.

    The report holds no oracle rows: ``verify.oracle_block`` builds them
    from it."""
    record = orbit_record(o)
    try:
        polar = polarizations_of(record)  # the zero orbit raises ZeroOrbit
    except UnknownClassification:
        polar = None

    # an exceptional orbit's note is its table's; a classical one notes
    # the boundary case, an empty list
    if o.is_exceptional:
        note = exceptional_entry(o).note
    else:
        note = NOTE_MINIMAL_NON_A if polar == [] else None

    if record.proj_normalization_smooth:
        verdict = VERDICT_SMOOTH
        reason = REASON_MINIMAL if record.is_minimal else REASON_G2DIM8
    elif polar:
        verdict = VERDICT_EXISTS
        reason = REASON_SYMPLECTIC
    else:
        # only a smooth projectivised normalization has an empty list
        invariant(polar is None, "Unknown must come with no polarization "
                  "list")
        verdict = VERDICT_UNKNOWN
        reason = REASON_INDETERMINATE

    chambers = chamber_complex_for(o, polar) if polar else None
    # a polarization list witnesses a symplectic resolution of the
    # affine closure, and an empty one is a definitive "no"
    affine = None if polar is None else bool(polar)

    report = ResolutionReport(
        orbit=record,
        verdict=verdict,
        reason=reason,
        chamber_complex=chambers,
        affine_closure_admits_symplectic_resolution=affine,
        notes=(note,) if note else (),
    )
    invariant(report.resolution_exists == (
        bool(report.polarizations)
        or report.reason in (REASON_MINIMAL, REASON_G2DIM8)),
        "a resolution exists iff polarizations or a smooth reason")
    invariant((verdict == VERDICT_SMOOTH) == record.proj_normalization_smooth,
              "SmoothAlready iff the projectivised normalization is smooth")
    return report
