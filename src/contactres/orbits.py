"""Nilpotent orbits: partition labels, validity, dimensions, minimality.

Classical orbits are labeled by partitions subject to the usual
parity-multiplicity rule, one predicate read by ``validate_orbit`` and
by the walk; exceptional orbits by opaque keys from the table shipped in
``data/exceptional_orbits.txt``. The table states only what no rule
derives: each orbit's key and dimension, a note for its reports and its
provenance; whether the orbit is resolved, and by which parabolics, is
decided by the rules of ``resolutions``. ``orbits_of`` is the one walk
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

import os
import re
from collections import Counter, namedtuple
from functools import lru_cache
from operator import index

from .errors import (
    InvalidPartition,
    TableFormatError,
    UnknownExceptionalKey,
    invariant,
)
from .lie_core import SimpleType, parse_simple_type

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
    table's orbits of an E/F/G type by increasing dimension."""
    if not t.is_classical:
        found = [OrbitLabel(simple_type=t, exceptional_key=key)
                 for f, r, key in exceptional_table()
                 if (f, r) == (t.family, t.rank)]
        yield from sorted(found, key=orbit_dimension)
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
    dim = orbit_dimension(o)
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


def _parse_int(value: str, where: str) -> int:
    if not re.fullmatch(r"[0-9]+", value):
        raise TableFormatError(f"{where}: expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:  # more digits than int() converts (4,300 by default)
        raise TableFormatError(
            f"{where}: an integer has too many digits to read") from None


def _table_text() -> str:
    # read through the package's own loader, as ``pkgutil.get_data``
    # does, so a zipped install works too; ``importlib.resources`` would
    # cost a clean interpreter ~25 ms to import
    path = os.path.join(os.path.dirname(__file__), "data",
                        "exceptional_orbits.txt")
    return __spec__.loader.get_data(path).decode("utf-8")


@lru_cache(maxsize=1)
def _load_table() -> tuple[str, dict]:
    version = None
    table: dict[tuple[str, int, str], ExceptionalOrbitEntry] = {}
    record: dict[str, str] = {}

    def flush():
        if not record:
            return
        if "orbit" not in record or "dimension" not in record:
            raise TableFormatError(f"record missing orbit/dimension: {record}")
        where = record["orbit"]
        head, _, key = where.partition(":")
        if not key:
            raise TableFormatError(f"{where}: orbit must be TYPE:KEY")
        t = parse_simple_type(head)
        if (t.family, t.rank, key) in table:
            raise TableFormatError(f"duplicate table key {where}")
        # a key no field takes is refused rather than dropped
        for k in record:
            if k not in ("orbit", "dimension", "note", "provenance"):
                raise TableFormatError(f"{where}: unknown key {k!r}")
        entry = ExceptionalOrbitEntry(
            t.family, t.rank, key, _parse_int(record["dimension"], where),
            record.get("note"), record.get("provenance"))
        if entry.dimension % 2 != 0:
            raise TableFormatError(f"{where}: odd orbit dimension")
        table[(t.family, t.rank, key)] = entry
        record.clear()

    for line in _table_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            m = re.match(r"#\s*table_version:\s*(\S+)", stripped)
            if m:
                version = m.group(1)
            continue
        if not stripped:
            flush()
            continue
        if ":" not in stripped:
            raise TableFormatError(f"expected 'key: value', got {line!r}")
        k, v = (part.strip() for part in stripped.split(":", 1))
        if k in record:
            raise TableFormatError(f"{record.get('orbit')}: repeated key {k!r}")
        record[k] = v
    flush()
    if version is None:
        raise TableFormatError("table is missing a table_version header")
    return version, table


def exceptional_table() -> dict:
    return _load_table()[1]


def table_version() -> str:
    return _load_table()[0]


def exceptional_entry(o: OrbitLabel) -> ExceptionalOrbitEntry:
    t = o.simple_type
    try:
        return exceptional_table()[(t.family, t.rank, o.exceptional_key)]
    except KeyError:
        raise UnknownExceptionalKey(str(o)) from None


# --- text grammar -------------------------------------------------------------

_PARTITION_RE = re.compile(r"^[0-9]+(,[0-9]+)*$")


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
    if _PARTITION_RE.match(tail.strip()):
        try:
            parts = tuple(int(x) for x in tail.split(","))
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
