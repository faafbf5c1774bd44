"""Nilpotent orbits: partition labels, validity, dimensions, minimality.

Classical orbits are labeled by partitions subject to the usual
parity-multiplicity rules; exceptional orbits by opaque keys from the
curated table shipped in ``data/exceptional_orbits.txt``. Dimension
formulas for the classical types are the standard closed forms; the type
A formula is additionally cross-validated against the exact ad-rank
oracle in the test suite and verification harness, which is the ground
truth here.

The labels, records and table entries are named tuples (see
``lie_core``); the exceptional table is keyed by plain (family, rank,
key) tuples, never by a record.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from .errors import (
    InvalidPartition,
    TableFormatError,
    UnknownExceptionalKey,
    ZeroOrbit,
    invariant,
)
from .lie_core import (
    SimpleType,
    build_root_system,
    parse_marking,
    parse_simple_type,
)

Partition = tuple[int, ...]

# Constant: these are theorems about the projectivised normalization,
# carried on every record as metadata.
SINGULARITY_FLAGS = {"projectively_normal": True, "rational_gorenstein": True}


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


def _multiplicities(part: Partition) -> dict[int, int]:
    mult: dict[int, int] = {}
    for p in part:
        mult[p] = mult.get(p, 0) + 1
    return mult


# --- orbit labels -------------------------------------------------------------

class OrbitLabel(namedtuple(
        "OrbitLabel", "simple_type partition exceptional_key very_even_tag",
        defaults=(None, None, None))):
    """A nilpotent orbit: partition (classical) or table key (exceptional).

    Very even type-D partitions label two orbits; ``very_even_tag`` keeps
    the I/II disambiguation. Nothing computed in this package
    distinguishes the two, so the tag is carried but never branched on.
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
    part = tuple(sorted((int(p) for p in raw), reverse=True))
    if not part or any(p <= 0 for p in part):
        raise InvalidPartition(f"parts must be positive integers: {raw}")
    total = _partition_total(t)
    if sum(part) != total:
        raise InvalidPartition(
            f"partition {part} sums to {sum(part)}, type {t} needs {total}")
    mult = _multiplicities(part)
    if t.family in ("B", "D"):
        bad = [p for p, m in mult.items() if p % 2 == 0 and m % 2 == 1]
        if bad:
            raise InvalidPartition(
                f"type {t}: even parts {bad} must have even multiplicity")
    elif t.family == "C":
        bad = [p for p, m in mult.items() if p % 2 == 1 and m % 2 == 1]
        if bad:
            raise InvalidPartition(
                f"type {t}: odd parts {bad} must have even multiplicity")
    if very_even_tag is not None:
        if very_even_tag not in ("I", "II"):
            raise InvalidPartition(f"very-even tag must be I or II, got "
                                   f"{very_even_tag!r}")
        if not is_very_even(t, part):
            raise InvalidPartition(
                f"{t}:{part} is not very even; no I/II tag applies")
    return OrbitLabel(simple_type=t, partition=part,
                      very_even_tag=very_even_tag)


def is_zero_orbit(o: OrbitLabel) -> bool:
    if o.is_exceptional:
        return exceptional_entry(o).dimension == 0
    return all(p == 1 for p in o.partition)


# --- dimension formulas -------------------------------------------------------

def orbit_dimension(o: OrbitLabel) -> int:
    """Orbit dimension from the standard closed forms (table for E/F/G)."""
    if o.is_exceptional:
        return exceptional_entry(o).dimension
    part = o.partition
    dual = dual_partition(part)
    sq = sum(c * c for c in dual)
    n = o.simple_type.rank
    fam = o.simple_type.family
    if fam == "A":
        dim2 = 2 * ((n + 1) ** 2 - sq)
    elif fam in ("B", "D"):
        big = 2 * n + 1 if fam == "B" else 2 * n
        odd = sum(1 for p in part if p % 2 == 1)
        dim2 = big * big - big - sq + odd
    else:  # C
        odd = sum(1 for p in part if p % 2 == 1)
        dim2 = 2 * (2 * n * n + n) - sq - odd
    invariant(dim2 % 4 == 0, "orbit dimension must be an even integer")
    return dim2 // 2


def minimal_orbit_dimension(t: SimpleType) -> int:
    """Dimension of the minimal nonzero orbit: 2 h-check - 2."""
    return 2 * t.dual_coxeter_number - 2


def minimal_orbit_label(t: SimpleType) -> OrbitLabel:
    """The minimal nonzero nilpotent orbit of a simple type."""
    fam, n = t.family, t.rank
    if fam == "A":
        part = (2,) + (1,) * (n - 1)
    elif fam == "B":
        part = (2, 2) + (1,) * (2 * n - 3)
    elif fam == "C":
        part = (2,) + (1,) * (2 * n - 2)
    elif fam == "D":
        part = (2, 2) + (1,) * (2 * n - 4)
    else:
        want = minimal_orbit_dimension(t)
        for (f, r, key), entry in exceptional_table().items():
            if (f, r) == (fam, n) and entry.dimension == want:
                return OrbitLabel(simple_type=t, exceptional_key=key)
        raise UnknownExceptionalKey(f"no minimal-orbit entry for {t}")
    label = validate_orbit(t, part)
    invariant(orbit_dimension(label) == minimal_orbit_dimension(t),
              "minimal orbit must have dimension 2 h-check - 2")
    return label


def regular_orbit_label(t: SimpleType) -> OrbitLabel | None:
    """The regular orbit (dense in the nilpotent cone), if representable."""
    fam, n = t.family, t.rank
    if fam == "A":
        return validate_orbit(t, (n + 1,))
    if fam == "B":
        return validate_orbit(t, (2 * n + 1,))
    if fam == "C":
        return validate_orbit(t, (2 * n,))
    if fam == "D":
        return validate_orbit(t, (2 * n - 1, 1))
    want = build_root_system(t).dim_algebra - n
    for (f, r, key), entry in exceptional_table().items():
        if (f, r) == (fam, n) and entry.dimension == want:
            return OrbitLabel(simple_type=t, exceptional_key=key)
    return None


def is_minimal_orbit(o: OrbitLabel) -> bool:
    """Whether o is the minimal nonzero orbit of its type."""
    if is_zero_orbit(o):
        raise ZeroOrbit(f"{o} is the zero orbit")
    return orbit_dimension(o) == minimal_orbit_dimension(o.simple_type)


# --- orbit records ------------------------------------------------------------

class OrbitRecord(namedtuple("OrbitRecord", "label dim_orbit is_minimal "
                             "is_zero contact_n proj_normalization_smooth")):
    """Everything the resolution machinery needs to know about one orbit."""

    __slots__ = ()

    @property
    def singularity_flags(self) -> dict[str, bool]:
        return dict(SINGULARITY_FLAGS)

    @property
    def canonical_bundle_exponent(self) -> int | None:
        # K = L^{-(n+1)} on the contact side, so the exponent is n+1.
        return None if self.contact_n is None else self.contact_n + 1


def orbit_record(o: OrbitLabel) -> OrbitRecord:
    dim = orbit_dimension(o)
    zero = is_zero_orbit(o)
    minimal = False if zero else is_minimal_orbit(o)
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
    "ExceptionalOrbitEntry",
    "family rank key dimension is_richardson admits_symplectic_resolution "
    "polarizations springer_degree note provenance",
    defaults=(None,) * 6)


def _parse_bool(value: str, where: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise TableFormatError(f"{where}: expected true/false, got {value!r}")


def _parse_int(value: str, where: str) -> int:
    if not re.fullmatch(r"[0-9]+", value):
        raise TableFormatError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _parse_polarizations(value: str, rank: int, where: str):
    marks = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if chunk == "full":
            marks.append(tuple(range(1, rank + 1)))
            continue
        marked = parse_marking(chunk)
        if not marked:
            raise TableFormatError(f"{where}: bad polarization entry {chunk!r}")
        marked = tuple(sorted(marked))
        if marked[0] < 1 or marked[-1] > rank:
            raise TableFormatError(
                f"{where}: marked roots {marked} outside 1..{rank}")
        marks.append(marked)
    return tuple(marks)


def _table_text() -> str:
    return resources.files("contactres").joinpath(
        "data/exceptional_orbits.txt").read_text(encoding="utf-8")


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
        t = parse_simple_type(record["orbit"].split(":")[0])
        key = record["orbit"].split(":", 1)[1]
        if (t.family, t.rank, key) in table:
            raise TableFormatError(f"duplicate table key {record['orbit']}")
        where = record["orbit"]
        entry = ExceptionalOrbitEntry(
            family=t.family,
            rank=t.rank,
            key=key,
            dimension=_parse_int(record["dimension"], where),
            is_richardson=(_parse_bool(record["is_richardson"], where)
                           if "is_richardson" in record else None),
            admits_symplectic_resolution=(
                _parse_bool(record["admits_symplectic_resolution"], where)
                if "admits_symplectic_resolution" in record else None),
            polarizations=(
                _parse_polarizations(record["polarizations"], t.rank, where)
                if "polarizations" in record else None),
            springer_degree=(_parse_int(record["springer_degree"], where)
                             if "springer_degree" in record else None),
            note=record.get("note"),
            provenance=record.get("provenance"),
        )
        if entry.dimension % 2 != 0:
            raise TableFormatError(f"{where}: odd orbit dimension")
        # A polarization list witnesses a symplectic resolution, so the two
        # keys come together: existence without the list would assert a
        # resolution no report can enumerate, and a list without existence
        # would contradict itself.
        resolvable = entry.admits_symplectic_resolution is True
        if resolvable and entry.polarizations is None:
            raise TableFormatError(
                f"{where}: admits_symplectic_resolution without polarizations")
        if entry.polarizations is not None and not resolvable:
            raise TableFormatError(
                f"{where}: polarizations without "
                "admits_symplectic_resolution: true")
        # Listed polarizations are birational, so their Springer degree is
        # 1; a degree with no polarization to carry it would be dropped.
        if entry.springer_degree not in (None, 1) or (
                entry.springer_degree and entry.polarizations is None):
            raise TableFormatError(
                f"{where}: springer_degree must be 1, next to polarizations")
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
        k, v = stripped.split(":", 1)
        record[k.strip()] = v.strip()
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
        parts = tuple(int(x) for x in tail.split(","))
        return validate_orbit(t, parts, very_even_tag=tag)
    if t.is_classical:
        raise InvalidPartition(
            f"cannot parse partition {tail!r} of type {t}; expected "
            "comma-separated integers such as 3,2,1")
    if tag is not None:
        raise InvalidPartition("very-even tag applies only to partitions")
    return validate_orbit(t, tail.strip())
