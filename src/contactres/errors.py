"""Exception hierarchy.

Every domain-level failure raises a subclass of :class:`ContactresError`,
so callers (and the CLI) can distinguish "the mathematics rejects this
input" from genuine bugs, which raise :class:`InternalInvariantError`.
"""


class ContactresError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRank(ContactresError):
    """Rank outside the bounds of the simple-type family."""


class EmptyMarking(ContactresError):
    """Operation requires a proper parabolic (nonempty marked set)."""


class InvalidPartition(ContactresError):
    """Partition fails the total or parity-multiplicity rule of its type."""


class UnknownExceptionalKey(ContactresError):
    """Exceptional orbit key not present in the shipped table."""


class ZeroOrbit(ContactresError):
    """Operation is undefined on the zero nilpotent orbit."""


class ZeroElement(ContactresError):
    """Matrix oracle requires a nonzero nilpotent element."""


class UnsupportedType(ContactresError):
    """No recipe and no table entry for this simple type."""


class UnknownClassification(ContactresError):
    """The curated classification table is silent on this case."""


class SizeCapExceeded(ContactresError):
    """Requested matrix size exceeds the configured desk-scale cap."""


class NonFiniteFiber(ContactresError):
    """Flag-counting oracle met a positive-dimensional solution set."""


class NonGenericSample(ContactresError):
    """Seeded samples disagree without a dominance-maximal Jordan type."""


class DimensionMismatch(ContactresError):
    """Vector length differs from the declared ambient dimension."""


class NoPolarization(ContactresError):
    """Orbit has no polarization, so no chamber complex exists."""


class UnknownSuite(ContactresError):
    """Verification suite id is not one of the known suites."""


class TableFormatError(ContactresError):
    """Shipped exceptional-orbit table is malformed."""


class InternalInvariantError(AssertionError):
    """An internal invariant failed: a bug, never an answer to report."""


def invariant(holds: bool, message: str) -> None:
    """An ``assert`` that ``python -O`` keeps."""
    if not holds:
        raise InternalInvariantError(message)
