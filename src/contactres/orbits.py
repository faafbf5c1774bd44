"""Nilpotent orbits: partition labels, validity, dimensions, minimality.

Classical orbits are labeled by partitions subject to the usual
parity-multiplicity rule, one predicate read by ``validate_orbit`` and
by the walk; exceptional orbits by opaque keys from the table written
below as ``ExceptionalOrbitEntry`` rows. The table states only what no
rule derives: each orbit's key and dimension, a note for its reports and
its provenance; whether the orbit is resolved, and by which parabolics,
is decided by the rules of ``resolutions``. ``orbits_of`` is the one walk
over a type's orbits: each once, the zero orbit included, a very-even
type-D partition once per tag (Collingwood and McGovern, ch. 5). The
minimal orbit is not walked to, since the walk is exponential in the
rank: ``minimal_orbit_label`` writes it down in closed form in A-D and
takes the table's orbit of its dimension in E/F/G. Dimension
formulas for the classical types are the standard closed forms; the type
A formula is additionally cross-validated against the exact ad-rank
oracle in the test suite and verification harness, which is the ground
truth here.

An orbit record's one dimension decides zero (dimension 0), minimal (2
h-check - 2) and regular (2 |positive roots|), each alone in its dimension.

The labels, records and table entries are named tuples (see
``lie_core``); the exceptional table is keyed by plain (family, rank,
key) tuples, never by a record.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from operator import index

from .errors import (
    InvalidPartition,
    SizeCapExceeded,
    UnknownExceptionalKey,
    invariant,
)
from .lie_core import SimpleType, _is_digits, parse_simple_type

Partition = tuple[int, ...]

# --- partitions ---------------------------------------------------------------

def dual_partition(part: Partition) -> Partition:
    """Transpose of the Young diagram."""
    part = tuple(part)
    if not part:
        return ()
    return tuple(sum(1 for p in part if p >= j) for j in range(1, part[0] + 1))


def partitions_of(n: int):
    """Weakly decreasing partitions of n, in reverse-lex order."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


# --- orbit labels -------------------------------------------------------------

class OrbitLabel(namedtuple(
        "OrbitLabel", "simple_type partition exceptional_key very_even_tag",
        defaults=(None, None, None))):
    """A nilpotent orbit: partition (classical) or table key (exceptional).

    Very even type-D partitions label two orbits; ``very_even_tag`` keeps
    the I/II disambiguation. The two share a dimension, so an untagged
    label has one, but their Richardson preimages differ, so the decision
    refuses an untagged label.
    """

    __slots__ = ()

    @property
    def is_exceptional(self) -> bool:
        return self.exceptional_key is not None

    def __str__(self):
        if self.is_exceptional:
            return f"{self.simple_type}:{self.exceptional_key}"
        body = ",".join(str(p) for p in self.partition)
        tag = f"/{self.very_even_tag}" if self.very_even_tag else ""
        return f"{self.simple_type}:{body}{tag}"


def _partition_total(t: SimpleType) -> int:
    return {"A": t.rank + 1, "B": 2 * t.rank + 1,
            "C": 2 * t.rank, "D": 2 * t.rank}[t.family]


def is_very_even(t: SimpleType, part: Partition) -> bool:
    return t.family == "D" and all(p % 2 == 0 for p in part)


def _parity_violations(t: SimpleType, part: Partition) -> list[int]:
    """The parts that break the parity-multiplicity rule: even parts in
    B and D, odd parts in C, need even multiplicity; A has no rule."""
    if t.family == "A":
        return []
    parity = int(t.family == "C")
    return [p for p, m in Counter(part).items()
            if p % 2 == parity and m % 2 == 1]


def validate_orbit(t: SimpleType, raw, very_even_tag: str | None = None) -> OrbitLabel:
    """Validate and canonicalize an orbit label.

    ``raw`` is a partition (any order; canonicalized to weakly decreasing)
    for classical types, or a table key string for E/F/G.
    """
    if isinstance(raw, str):
        if t.is_classical:
            raise InvalidPartition(
                f"classical type {t} takes a partition, not a key")
        table = exceptional_table()
        if (t.family, t.rank, raw) not in table:
            raise UnknownExceptionalKey(f"{t}:{raw} not in the shipped table")
        return OrbitLabel(simple_type=t, exceptional_key=raw)

    if not t.is_classical:
        raise InvalidPartition(f"exceptional type {t} takes a table key")
    # a part that is not an int, a float say, raises TypeError
    part = tuple(sorted(map(index, raw), reverse=True))
    if not part or any(p <= 0 for p in part):
        raise InvalidPartition(f"parts must be positive integers: {raw}")
    total = _partition_total(t)
    if sum(part) != total:
        raise InvalidPartition(
            f"partition {part} sums to {sum(part)}, type {t} needs {total}")
    bad = _parity_violations(t, part)
    if bad:
        raise InvalidPartition(f"type {t}: {('even', 'odd')[t.family == 'C']} "
                               f"parts {bad} must have even multiplicity")
    if very_even_tag is not None:
        if very_even_tag not in ("I", "II"):
            raise InvalidPartition(f"very-even tag must be I or II, got "
                                   f"{very_even_tag!r}")
        if not is_very_even(t, part):
            untagged = OrbitLabel(simple_type=t, partition=part)
            raise InvalidPartition(
                f"{untagged} is not very even; no I/II tag applies")
    return OrbitLabel(simple_type=t, partition=part,
                      very_even_tag=very_even_tag)


# --- the walk -----------------------------------------------------------------

def orbits_of(t: SimpleType):
    """Every orbit of ``t`` once: the partitions that keep the parity rule
    in ``partitions_of`` order, a very-even one as /I then /II, or the
    table's orbits of an E/F/G type in row order, by increasing dimension."""
    if not t.is_classical:
        yield from (OrbitLabel(simple_type=t, exceptional_key=key)
                    for f, r, key in exceptional_table()
                    if (f, r) == (t.family, t.rank))
        return
    for part in partitions_of(_partition_total(t)):
        if not _parity_violations(t, part):
            for tag in ("I", "II") if is_very_even(t, part) else (None,):
                yield OrbitLabel(simple_type=t, partition=part,
                                 very_even_tag=tag)


# --- dimension formulas -------------------------------------------------------

def orbit_dimension(o: OrbitLabel) -> int:
    """Orbit dimension from the standard closed forms (table for E/F/G):
    over the parts d of the dual partition, dim g + 1 - sum d^2 in type A
    and dim g - (sum d^2 -+ #odd parts) / 2 in B/D and C (Collingwood and
    McGovern, ch. 6), with dim g = 2 |positive roots| + rank."""
    if o.is_exceptional:
        return exceptional_entry(o).dimension
    t = o.simple_type
    dim_g = 2 * t.num_positive_roots + t.rank
    # sum d^2 over the dual partition is sum (2i - 1) lambda_i over the
    # decreasing parts, i from 1: no tuple as long as the largest part
    sq = sum((2 * i + 1) * p for i, p in enumerate(o.partition))
    odd = sum(1 for p in o.partition if p % 2 == 1)
    if t.family == "A":
        dim2 = 2 * (dim_g + 1 - sq)
    else:
        dim2 = 2 * dim_g - sq + (-odd if t.family == "C" else odd)
    invariant(dim2 % 4 == 0, "orbit dimension must be an even integer")
    return dim2 // 2


def minimal_orbit_dimension(t: SimpleType) -> int:
    """Dimension of the minimal nonzero orbit: 2 h-check - 2."""
    return 2 * t.dual_coxeter_number - 2


def minimal_orbit_label(t: SimpleType) -> OrbitLabel:
    """The minimal nonzero orbit: the first of (2, 1, ...) and (2, 2, 1,
    ...) that keeps the parity rule, or the table's of dim 2 h-check - 2."""
    if t.is_classical:
        total = _partition_total(t)
        part = (2,) + (1,) * (total - 2)
        if _parity_violations(t, part):
            part = (2, 2) + (1,) * (total - 4)
        return OrbitLabel(simple_type=t, partition=part)
    want = minimal_orbit_dimension(t)
    for o in orbits_of(t):
        if orbit_dimension(o) == want:
            return o
    raise UnknownExceptionalKey(f"no minimal-orbit entry for {t}")


# --- orbit records ------------------------------------------------------------

class OrbitRecord(namedtuple("OrbitRecord", "label dim_orbit is_minimal "
                             "is_zero contact_n proj_normalization_smooth")):
    """Everything the resolution machinery needs to know about one orbit."""

    __slots__ = ()

    @property
    def canonical_bundle_exponent(self) -> int | None:
        # K = L^{-(n+1)} on the contact side, so the exponent is n+1.
        return None if self.contact_n is None else self.contact_n + 1


def orbit_record(o: OrbitLabel) -> OrbitRecord:
    """The orbit's record; a dimension with more digits than ``str``
    writes (``sys.get_int_max_str_digits``, 0 for no limit) is refused."""
    dim = orbit_dimension(o)
    # judged by its bits first, since str(dim) is what would raise; a
    # Python without the limit (before 3.10.7) has no getter
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and dim.bit_length() > 3 * limit and dim >= 10 ** limit:
        raise SizeCapExceeded(f"the orbit dimension has more than {limit} "
                              "digits, too many to write")
    zero = dim == 0  # the zero orbit is the only orbit of dimension 0
    minimal = not zero and dim == minimal_orbit_dimension(o.simple_type)
    g2dim8 = (o.simple_type.family, o.simple_type.rank, dim) == ("G", 2, 8)
    return OrbitRecord(
        label=o,
        dim_orbit=dim,
        is_minimal=minimal,
        is_zero=zero,
        contact_n=None if zero else (dim - 2) // 2,
        proj_normalization_smooth=minimal or g2dim8,
    )


# --- exceptional table --------------------------------------------------------

ExceptionalOrbitEntry = namedtuple(
    "ExceptionalOrbitEntry", "family rank key dimension note provenance",
    defaults=(None, None))

_FU_2003 = ("'Symplectic resolutions for nilpotent orbits', "
            "Invent. math. 151 (2003)")
_REGULAR = "regular orbit; closure is the nilpotent cone"
_SPRINGER = "Springer resolution via the Borel subgroup, birational"


def _minimal(dimension: int) -> str:
    return (f"minimal orbit, dimension 2h-check - 2 = {dimension}; "
            f"non-resolvability outside type A: {_FU_2003}, 167-186")


# Each type's orbits by increasing dimension. A key is "dim" and the
# dimension, unambiguous while a type's rows have distinct dimensions.
# Changing a row changes ``table_version`` (the tests pin the rows' sha256).
_EXCEPTIONAL_ORBITS = (
    ExceptionalOrbitEntry("G", 2, "dim0", 0, provenance="zero orbit"),
    ExceptionalOrbitEntry(
        "G", 2, "dim6", 6,
        "minimal orbit; the punctured closure is smooth but the affine "
        "closure has no symplectic resolution",
        "minimal orbit, dimension 2h-check - 2 = 6; no parabolic of G2 has "
        "flag dimension 3, so not Richardson; non-resolvability of minimal "
        f"orbit closures outside type A: {_FU_2003}, 167-186"),
    ExceptionalOrbitEntry(
        "G", 2, "dim8", 8,
        "punctured closure W0 is singular; its normalization is the minimal "
        "nilpotent orbit closure of so_7, which is smooth and symplectic, and "
        "that resolution of W0 does not extend over the origin",
        f"not Richardson and no symplectic resolution: {_FU_2003}, Prop. "
        "3.21; identification of the normalization of W0 with the so_7 "
        "minimal orbit: Kraft, and Levasseur-Smith"),
    ExceptionalOrbitEntry(
        "G", 2, "dim10", 10, provenance=(
            "both maximal parabolics of G2 have flag dimension 5 and their "
            "Richardson orbit is the unique 10-dimensional orbit; "
            "Springer-map degrees not curated here, so resolution existence "
            "is left unknown")),
    ExceptionalOrbitEntry(
        "G", 2, "dim12", 12, _REGULAR,
        "Springer resolution via the Borel subgroup; birational because a "
        "regular nilpotent element lies in a unique Borel subalgebra"),
    ExceptionalOrbitEntry("F", 4, "dim0", 0, provenance="zero orbit"),
    ExceptionalOrbitEntry("F", 4, "dim16", 16, "minimal orbit", _minimal(16)),
    ExceptionalOrbitEntry("F", 4, "dim48", 48, _REGULAR, _SPRINGER),
    ExceptionalOrbitEntry("E", 6, "dim0", 0, provenance="zero orbit"),
    ExceptionalOrbitEntry("E", 6, "dim22", 22, "minimal orbit", _minimal(22)),
    ExceptionalOrbitEntry("E", 6, "dim72", 72, _REGULAR, _SPRINGER),
    ExceptionalOrbitEntry("E", 7, "dim0", 0, provenance="zero orbit"),
    ExceptionalOrbitEntry("E", 7, "dim34", 34, "minimal orbit", _minimal(34)),
    ExceptionalOrbitEntry("E", 7, "dim126", 126, _REGULAR, _SPRINGER),
    ExceptionalOrbitEntry("E", 8, "dim0", 0, provenance="zero orbit"),
    ExceptionalOrbitEntry("E", 8, "dim58", 58, "minimal orbit", _minimal(58)),
    ExceptionalOrbitEntry("E", 8, "dim240", 240, _REGULAR, _SPRINGER),
)
_TABLE = {(e.family, e.rank, e.key): e for e in _EXCEPTIONAL_ORBITS}


def exceptional_table() -> dict:
    """The shipped rows keyed by (family, rank, key), in row order."""
    return _TABLE


def table_version() -> str:
    return "1"


def exceptional_entry(o: OrbitLabel) -> ExceptionalOrbitEntry:
    t = o.simple_type
    try:
        return exceptional_table()[(t.family, t.rank, o.exceptional_key)]
    except KeyError:
        raise UnknownExceptionalKey(str(o)) from None


# --- text grammar -------------------------------------------------------------
# An orbit is a type, a colon and parts split by commas (ASCII digit runs,
# no spaces) or an exceptional key; ``/I`` or ``/II`` tags a very-even one.

def parse_orbit(text: str) -> OrbitLabel:
    """Parse the orbit grammar: ``"A3:2,1,1"``, ``"G2:dim8"``,
    ``"D4:2,2,2,2/I"``."""
    head, sep, tail = text.partition(":")
    if not sep or not tail:
        raise InvalidPartition(
            f"cannot parse orbit from {text!r}; expected TYPE:parts or TYPE:key")
    t = parse_simple_type(head)
    tag = None
    if "/" in tail:
        tail, tag = tail.split("/", 1)
    parts = tail.strip().split(",")
    if all(map(_is_digits, parts)):
        try:
            parts = tuple([int(part) for part in parts])
        except ValueError:  # more digits than int() converts (4,300 by default)
            raise InvalidPartition(f"a part of the {t} partition has too "
                                   "many digits to read") from None
        return validate_orbit(t, parts, very_even_tag=tag)
    if t.is_classical:
        raise InvalidPartition(
            f"cannot parse partition {tail!r} of type {t}; expected "
            "comma-separated integers such as 3,2,1")
    if tag is not None:
        raise InvalidPartition("very-even tag applies only to partitions")
    return validate_orbit(t, tail.strip())
