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
  of them (counted in closed form first); outside type A
  the answer comes from curated classification data and absent entries
  yield an honest Unknown.
* The polarization set is decided here, once, by :func:`polarizations`.
  The verdict, the affine-closure flag, the equivalence class of a type-A
  parabolic and the chamber complex of the movable cone all derive from
  it. A chamber is the ample cone of one resolution P(T*(G/P)), so a
  chamber *is* a polarization: the complex holds the
  :class:`Polarization` records themselves, each with its ample cone in
  its own weight basis, and, in type A, one wall for each adjacent
  transposition of distinct entries of the composition. Only the
  combinatorial gluing is recorded; no common linear embedding of all
  chambers is attempted (none is available at this level of the theory).
* Each fact about a resolution is computed once, when its record is
  built: the flag dimension of each polarization, checked against the
  one orbit dimension of the decision (dim O = 2 dim G/P), and its
  composition, the ordering it was cut from (type-A markings are cut
  without re-validating them). The ample orthant of each rank is shared
  (in ``cones``).
* :func:`contact_resolution_exists` takes only the orbit and returns
  only the decision. The matrix oracles that cross-check it run in
  ``verify``, so this module does not import them.

The records are named tuples (see ``lie_core``). Chamber labels and wall
ends are plain composition tuples, compared only with each other.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
# unused here, but perfbench/layertrace.py patches this name to count orderings
from itertools import permutations  # noqa: F401

from .cones import ample_cone
from .errors import (
    ContactresError,
    EmptyMarking,
    NoPolarization,
    SizeCapExceeded,
    UnknownClassification,
    UnsupportedType,
    ZeroOrbit,
    invariant,
)
from .lie_core import (
    ParabolicType,
    flag_dimension,
    is_projective_space,
    parabolic,
)
from .orbits import (
    OrbitLabel,
    dual_partition,
    exceptional_entry,
    is_minimal_orbit,
    is_zero_orbit,
    orbit_dimension,
    orbit_record,
    regular_orbit_label,
    validate_orbit,
)

VERDICT_SMOOTH = "SmoothAlready"
VERDICT_EXISTS = "ContactResolutionsExist"
VERDICT_NONE = "NoContactResolution"
VERDICT_UNKNOWN = "Unknown"

REASON_MINIMAL = "Minimal"
REASON_G2DIM8 = "G2dim8"
REASON_SYMPLECTIC = "SymplecticResolution"
REASON_TABLE = "ClassificationTable"
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


class Polarization(namedtuple("Polarization", "parabolic composition "
                               "flag_dimension springer_degree")):
    """A parabolic P whose Springer map resolves the orbit closure, so
    that P(T*(G/P)) is a contact resolution; its ample cone is one
    chamber of the movable cone. ``composition`` is P's block
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


def _checked(o: OrbitLabel, found, springer_degree) -> list[Polarization]:
    """The polarizations of ``o`` from (parabolic, composition) pairs.
    Each Springer map is birational, so each flag dimension must be half
    the orbit's: dim O = 2 dim G/P."""
    dim = orbit_dimension(o)
    polar = []
    for p, comp in found:
        flag_dim = flag_dimension(p)
        invariant(2 * flag_dim == dim,
                  "birational polarization must have dim O = 2 dim G/P")
        polar.append(Polarization(p, comp, flag_dim, springer_degree))
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
    count = math.factorial(len(items))
    for mult in Counter(items).values():
        count //= math.factorial(mult)
    return count


def _type_a_polarizations(o: OrbitLabel) -> list[Polarization]:
    dual = dual_partition(o.partition)
    count = distinct_ordering_count(dual)
    if count > MAX_CHAMBERS:
        raise SizeCapExceeded(f"{o} has {count} polarizations, over the "
                              f"cap of {MAX_CHAMBERS}")
    # an ordering of a valid dual partition is a valid composition of
    # rank + 1, so its marking is cut without re-validating it; Springer
    # maps are birational in type A
    t = o.simple_type
    return _checked(o, ((parabolic(t, accumulate(comp[:-1])), comp)
                        for comp in _distinct_orderings(dual)), 1)


def polarizations(o: OrbitLabel) -> list[Polarization]:
    """All polarizations of the orbit closure (its equivalence class).

    Sorted lexicographically by composition (type A) or marking.
    Raises :class:`UnknownClassification` where the curated data is
    silent; returns the empty list only when non-existence is definitive.
    """
    if is_zero_orbit(o):
        raise ZeroOrbit(f"{o} is the zero orbit")
    t = o.simple_type
    if t.family == "A":
        return _type_a_polarizations(o)
    if o.is_exceptional:
        entry = exceptional_entry(o)
        if entry.polarizations is not None:
            found = sorted(parabolic(t, marks)
                           for marks in entry.polarizations)
            return _checked(o, ((p, None) for p in found),
                            entry.springer_degree)
        if entry.admits_symplectic_resolution is False:
            return []
        raise UnknownClassification(
            f"polarization data for {o} not in the shipped table")
    # classical non-A: only two rank-uniform facts are curated in code
    if is_minimal_orbit(o):
        # minimal orbits outside type A admit no symplectic resolution
        return []
    if o == regular_orbit_label(t):
        # the nilpotent cone always has its Springer resolution
        return _checked(o, [(parabolic(t, range(1, t.rank + 1)), None)], 1)
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

    def degree(self, label) -> int:
        return sum(1 for w in self.walls
                   if w.chamber_a == label or w.chamber_b == label)

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
            for nxt in adjacency[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
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
        for comp in labels:
            for i in range(len(comp) - 1):
                if comp[i] == comp[i + 1]:
                    continue
                swapped = list(comp)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                swapped = labels.get(tuple(swapped))
                invariant(swapped is not None, "orbit orderings must be "
                          "closed under adjacent transpositions")
                if comp < swapped:
                    walls.append(Wall(
                        chamber_a=comp,
                        chamber_b=swapped,
                        position=i + 1,
                        entries=(comp[i], comp[i + 1]),
                    ))
    complex_ = ChamberComplex(chambers=chambers, walls=tuple(walls))
    invariant(complex_.is_connected, "wall graph must be connected")
    return complex_


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
    return Fraction(-(n_contact + 1)) * Fraction(l_degree)


def is_twistor_space(p: ParabolicType) -> bool:
    """Whether the projectivised cotangent bundle of G/P is a twistor
    space of a quaternion-Kahler manifold: exactly when G/P is P^n."""
    return is_projective_space(p)


class ResolutionReport(namedtuple(
        "ResolutionReport",
        "orbit verdict reason polarizations chamber_complex "
        "affine_closure_admits_symplectic_resolution notes")):
    """The full answer for one orbit."""

    __slots__ = ()

    @property
    def resolution_exists(self) -> bool:
        return self.verdict in (VERDICT_SMOOTH, VERDICT_EXISTS)


def contact_resolution_exists(o: OrbitLabel) -> ResolutionReport:
    """Decide the existence trichotomy and assemble the full report.

    The report holds no oracle rows: ``verify.oracle_block`` builds them
    from it."""
    record = orbit_record(o)
    if record.is_zero:
        raise ZeroOrbit(f"{o} is the zero orbit")

    try:
        polar = polarizations(o)
    except UnknownClassification:
        polar = None

    t = o.simple_type
    notes: list[str] = []
    if o.is_exceptional:
        entry = exceptional_entry(o)
        if entry.note:
            notes.append(entry.note)

    if record.proj_normalization_smooth:
        verdict = VERDICT_SMOOTH
        reason = REASON_MINIMAL if record.is_minimal else REASON_G2DIM8
        if reason == REASON_MINIMAL and t.family != "A" and not o.is_exceptional:
            notes.append(NOTE_MINIMAL_NON_A)
    elif polar:
        verdict = VERDICT_EXISTS
        reason = REASON_SYMPLECTIC
    elif polar is not None:
        verdict = VERDICT_NONE
        reason = REASON_TABLE
    else:
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
        polarizations=tuple(polar or ()),
        chamber_complex=chambers,
        affine_closure_admits_symplectic_resolution=affine,
        notes=tuple(notes),
    )
    invariant(report.resolution_exists == (
        bool(report.polarizations)
        or report.reason in (REASON_MINIMAL, REASON_G2DIM8)),
        "a resolution exists iff polarizations or a smooth reason")
    invariant((verdict == VERDICT_SMOOTH) == record.proj_normalization_smooth,
              "SmoothAlready iff the projectivised normalization is smooth")
    return report
