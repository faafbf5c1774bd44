"""The label grammar as regular expressions: the reference path the tests
check the package's parsers against, which read each label with string
operations. The three patterns are the grammar's first statement; each
``reference_*`` parser returns what the package's parser of the same
name returns, or raises its error with its message. No package code
calls this module.
"""

import re

from contactres.errors import DimensionMismatch, InvalidPartition, InvalidRank
from contactres.lie_core import SimpleType, parabolic
from contactres.orbits import validate_orbit

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")
_MARKING_RE = re.compile(r"\{\s*([0-9]+(\s*,\s*[0-9]+)*)?\s*\}")
_PARTITION_RE = re.compile(r"^[0-9]+(,[0-9]+)*$")


def reference_simple_type(text: str) -> SimpleType:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise InvalidRank(f"cannot parse simple type from {text!r}")
    try:
        rank = int(m.group(2))
    except ValueError:  # more digits than int() converts (4,300 by default)
        raise InvalidRank(f"the rank of type {m.group(1)} has too many "
                          "digits to read") from None
    return SimpleType(m.group(1), rank)


def reference_marking(text: str) -> tuple[int, ...] | None:
    """The marks of ``{i,j,...}`` in written order, ``()`` for ``{}``, or
    None when ``text`` is not of that form (an empty mark included)."""
    if not _MARKING_RE.fullmatch(text.strip()):
        return None
    try:
        return tuple([int(tok) for tok in re.findall(r"[0-9]+", text)])
    except ValueError:
        raise DimensionMismatch("a marked root has too many digits to "
                                "read") from None


def reference_parabolic(text: str):
    head, _, tail = text.partition(":")
    marks = reference_marking(tail)
    if marks is None:
        raise DimensionMismatch(
            f"cannot parse parabolic from {text!r}; expected TYPE:{{i,j,...}}")
    return parabolic(reference_simple_type(head), marks)


def reference_orbit(text: str):
    head, sep, tail = text.partition(":")
    if not sep or not tail:
        raise InvalidPartition(
            f"cannot parse orbit from {text!r}; expected TYPE:parts or TYPE:key")
    t = reference_simple_type(head)
    tag = None
    if "/" in tail:
        tail, tag = tail.split("/", 1)
    m = _PARTITION_RE.match(tail.strip())
    if m:
        try:
            parts = tuple(int(x) for x in m.group().split(","))
        except ValueError:
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
