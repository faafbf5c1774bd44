"""Root systems, parabolic markings, and flag-variety combinatorics.

Simple types A-G with Bourbaki numbering of simple roots throughout; all
I/O (the ``"A3:{1,3}"`` grammar, JSON reports) uses that numbering.

Roots live in simple-root coordinates as integer tuples. Root systems are
generated by closing the simple roots under simple reflections and then
validated against the classical cardinalities, so there is a single code
path for all types and it is self-checking.

Poincare polynomials of Weyl groups and their parabolic quotients are
computed from Macdonald's height product

    W(t) = prod_{alpha > 0} (1 - t^{ht(alpha)+1}) / (1 - t^{ht(alpha)})

In the quotient by the Levi's product only the nilradical roots remain,
and their factors telescope into one net exponent e_k per (1 - t^k),
applied as sparse in-place steps, never as dense polynomial products.
This needs only the positive roots, never an enumeration of W; the test
suite enumerates W at small rank as an independent cross-check.

A parabolic is a (simple type, marking) value. Its nilradical is a
bitset over the positive roots, the OR of one bitset per marked node,
and its flag dimension is the bitset's bit count; the per-node bitsets
are built once per root system, on first use. Nothing is cached per
parabolic: the Poincare polynomial and the twistor test recompute its
nilradical roots. The package's errors are the only import.

Value records here and in the other modules are ``collections.namedtuple``
subclasses with ``__slots__ = ()``. Those that validate their input do
it in ``__new__``. Records are immutable, and hashed and
compared in C as the tuple of their fields. So a record is also
iterable and orderable, and equals a plain tuple, or a record of
another type, with the same items. The package never puts a record and a
plain tuple in one comparison, dict, set or cache, and never calls
``_make`` or ``_replace``, which skip ``__new__``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from operator import index

from .errors import (
    DimensionMismatch,
    EmptyMarking,
    InvalidRank,
    SizeCapExceeded,
    invariant,
)

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Number of positive roots per family, as a function of the rank.
_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# Largest rank whose root system is built. The reflection closure costs
# roughly rank^4 to rank^5: the slowest of A-D builds in ~0.6 s at rank
# 40, ~0.9 s at 45 and 1.1-1.4 s at 50, and B100 took ~20 s (CPython
# 3.11.7, 2-core x86-64). Closed-form answers, such as orbit dimensions,
# build no root system and meet no cap.
MAX_ROOT_SYSTEM_RANK = 40

DUAL_COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}

class SimpleType(namedtuple("SimpleType", "family rank")):
    """A simple complex Lie algebra type: family letter plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in RANK_BOUNDS:
            raise InvalidRank(f"unknown family {family!r}")
        lo, hi = RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidRank(f"rank {rank} out of bounds for type {family}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def dual_coxeter_number(self) -> int:
        return DUAL_COXETER_NUMBER[self.family](self.rank)

    @property
    def num_positive_roots(self) -> int:
        return _POSITIVE_ROOT_COUNT[self.family](self.rank)

    @property
    def is_classical(self) -> bool:
        return self.family in "ABCD"


class RootSystemData(namedtuple(
        "RootSystemData", "simple_type cartan_matrix positive_roots")):
    """Cartan matrix and positive roots of a type.

    Conventions: ``cartan_matrix[i][j] = <alpha_i, alpha_j-check>`` (zero
    based), and positive roots are integer tuples of simple-root
    coefficients.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.simple_type.rank


def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # 1-based node labels, as in the Bourbaki plates
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if family in "ABC":
        for i in range(1, n):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            bond(n - 1, n, -2, -1)  # alpha_n short
        if family == "C" and n >= 2:
            bond(n - 1, n, -1, -2)  # alpha_n long
    elif family == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif family == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]:
            bond(i, j)
        if n >= 7:
            bond(6, 7)
        if n == 8:
            bond(7, 8)
    elif family == "F":
        bond(1, 2)
        bond(2, 3, -2, -1)  # alpha_3 short
        bond(3, 4)
    elif family == "G":
        bond(1, 2, -1, -3)  # alpha_1 short
    return c


def _pairing_with_coroot(coeffs, cartan, j) -> int:
    """<beta, alpha_j-check> for beta given by simple-root coefficients."""
    return sum(ci * cartan[i][j] for i, ci in enumerate(coeffs))


def _generate_roots(cartan) -> set[tuple[int, ...]]:
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for j in range(n):
            k = _pairing_with_coroot(beta, cartan, j)
            if k == 0:
                continue
            image = list(beta)
            image[j] -= k
            image = tuple(image)
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return roots


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystemData:
    """Generate the full root-system data for a simple type.

    Roots are produced by reflection closure and validated against the
    classical positive-root count, so a bad Cartan matrix cannot slip
    through silently. A rank over ``MAX_ROOT_SYSTEM_RANK`` is refused
    with :class:`SizeCapExceeded` before any root is generated.
    """
    if t.rank > MAX_ROOT_SYSTEM_RANK:
        raise SizeCapExceeded(f"{t} has rank {t.rank}, over the root-system "
                              f"cap of {MAX_ROOT_SYSTEM_RANK}")
    cartan = _cartan_matrix(t.family, t.rank)
    roots = _generate_roots(cartan)
    positive = sorted(r for r in roots if all(c >= 0 for c in r))
    expected = t.num_positive_roots
    invariant(len(positive) == expected and 2 * len(positive) == len(roots),
              f"root generation for {t} produced {len(positive)} positive "
              f"roots, expected {expected}")
    return RootSystemData(
        simple_type=t,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(positive),
    )


class ParabolicType(namedtuple("ParabolicType", "simple_type marked")):
    """A conjugacy class of parabolics: a simple type and a marked subset
    of its simple roots, compared and hashed as that value.

    ``marked`` uses 1-based Bourbaki indices, sorted and without repeats
    whatever order it is given in. The empty marking stands for the whole
    group; operations that need a proper parabolic raise
    :class:`EmptyMarking` on it.
    """

    __slots__ = ()

    def __new__(cls, simple_type: SimpleType, marked):
        n = simple_type.rank
        # a mark that is not an int, a float say, raises TypeError
        cleaned = tuple(sorted(set(map(index, marked))))
        if cleaned and (cleaned[0] < 1 or cleaned[-1] > n):
            raise DimensionMismatch(f"marked roots {marked} outside 1..{n}")
        return super().__new__(cls, simple_type, cleaned)

    def __str__(self):
        inner = ",".join(str(i) for i in self.marked)
        return f"{self.simple_type}:{{{inner}}}"

    @property
    def root_system(self) -> RootSystemData:
        return build_root_system(self.simple_type)


def parabolic(t: SimpleType, marked) -> ParabolicType:
    return ParabolicType(t, tuple(marked))


@lru_cache(maxsize=None)
def _node_roots(t: SimpleType) -> tuple[int, ...]:
    """For each simple root i, the positive roots with a nonzero alpha_i
    coefficient as a bitset: entry i - 1 has bit k set when
    ``positive_roots[k]`` is such a root."""
    bits = [0] * t.rank
    for k, r in enumerate(build_root_system(t).positive_roots):
        for i, c in enumerate(r):
            if c:
                bits[i] |= 1 << k
    return tuple(bits)


def _nilradical(node_roots: tuple[int, ...], marked) -> int:
    """The nilradical of the parabolic with these marked nodes, as a
    bitset of positive roots: a positive root lies in it exactly when it
    has a nonzero coefficient on some marked node."""
    nil = 0
    for i in marked:
        nil |= node_roots[i - 1]
    return nil


def _nilradical_roots(p: ParabolicType) -> tuple[tuple[int, ...], ...]:
    """The positive roots in the nilradical of P, in ``positive_roots``
    order: those at the set bits of its bitset."""
    nil = _nilradical(_node_roots(p.simple_type), p.marked)
    # bin() reversed lists bit k at position k, up to the highest set bit
    return tuple([r for r, bit in zip(p.root_system.positive_roots,
                                      bin(nil)[:1:-1]) if bit == "1"])


def flag_dimension(p: ParabolicType) -> int:
    """dim G/P = number of positive roots in the nilradical of P.

    Those are exactly the positive roots with a nonzero coefficient on
    some marked simple root: the set bits of the OR of the marked nodes'
    root bitsets. The bitsets are built once per simple type; nothing is
    cached per parabolic.
    """
    if not p.marked:
        raise EmptyMarking("flag dimension needs a proper parabolic")
    node_roots = _node_roots(p.simple_type)  # refuses an over-cap rank first
    return _nilradical(node_roots, p.marked).bit_count()


# --- Poincare polynomials ---------------------------------------------------

def _times_one_minus_power(q: list[int], k: int) -> None:
    """q <- q * (1 - t^k), in place."""
    q.extend([0] * k)
    for i in range(len(q) - 1, k - 1, -1):
        q[i] -= q[i - k]


def _divide_one_minus_power(q: list[int], k: int) -> None:
    """q <- q / (1 - t^k), in place. The series quotient, built up to the
    degree of q, is a polynomial exactly when its top k terms vanish."""
    for i in range(k, len(q)):
        q[i] += q[i - k]
    invariant(not any(q[-k:]), "inexact polynomial division")
    del q[-k:]


def poincare_polynomial(p: ParabolicType) -> tuple[int, ...]:
    """Coefficients (b_0, b_2, b_4, ...) of the Poincare polynomial of G/P.

    Only the nilradical roots survive in the quotient of the height
    products of W and of the Levi Weyl group. Their net exponents per
    (1 - t^k) are applied as sparse steps, all products before the exact
    divisions. The degree always equals dim G/P.
    """
    if not p.marked:
        raise EmptyMarking("Poincare polynomial needs a proper parabolic")
    roots = _nilradical_roots(p)
    exponents: dict[int, int] = {}
    for root in roots:
        h = sum(root)
        exponents[h + 1] = exponents.get(h + 1, 0) + 1
        exponents[h] = exponents.get(h, 0) - 1
    quot = [1]
    for k, e in sorted(exponents.items()):
        for _ in range(e):
            _times_one_minus_power(quot, k)
    for k, e in sorted(exponents.items()):
        for _ in range(-e):
            _divide_one_minus_power(quot, k)
    invariant(quot[-1] != 0 and len(quot) - 1 == len(roots),
              "Poincare polynomial degree must equal dim G/P")
    return tuple(quot)


def is_projective_space(p: ParabolicType) -> bool:
    """Whether G/P is a projective space, by Kobayashi-Ochiai.

    G/P is P^N exactly when P is maximal, say with marked node i, and its
    Fano index <2 rho - 2 rho_L, alpha_i-check> equals N + 1, where
    N = dim G/P. The index is the sum of <beta, alpha_i-check> over the
    nilradical roots beta. An all-ones Poincare polynomial is necessary
    but not sufficient: odd quadrics (B_n:{1}) and both G2 flag varieties
    share it.
    """
    dim = flag_dimension(p)
    if len(p.marked) != 1:
        return False
    cartan, i = p.root_system.cartan_matrix, p.marked[0] - 1
    return dim + 1 == sum(_pairing_with_coroot(beta, cartan, i)
                          for beta in _nilradical_roots(p))


# --- text grammar ------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")
_MARKING_RE = re.compile(r"\{\s*([0-9]+(\s*,\s*[0-9]+)*)?\s*\}")


def parse_simple_type(text: str) -> SimpleType:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise InvalidRank(f"cannot parse simple type from {text!r}")
    try:
        rank = int(m.group(2))
    except ValueError:  # more digits than int() converts (4,300 by default)
        raise InvalidRank(f"the rank of type {m.group(1)} has too many "
                          "digits to read") from None
    return SimpleType(m.group(1), rank)


def parse_marking(text: str) -> tuple[int, ...] | None:
    """The marks of ``{i,j,...}`` in written order, ``()`` for ``{}``, or
    None when ``text`` is not of that form (an empty mark included)."""
    if not _MARKING_RE.fullmatch(text.strip()):
        return None
    try:
        return tuple([int(tok) for tok in re.findall(r"[0-9]+", text)])
    except ValueError:  # more digits than int() converts (4,300 by default)
        raise DimensionMismatch("a marked root has too many digits to "
                                "read") from None


def parse_parabolic(text: str) -> ParabolicType:
    """Parse the parabolic grammar, e.g. ``"A3:{1,3}"``."""
    head, _, tail = text.partition(":")
    marks = parse_marking(tail)
    if marks is None:
        raise DimensionMismatch(
            f"cannot parse parabolic from {text!r}; expected TYPE:{{i,j,...}}")
    return parabolic(parse_simple_type(head), marks)
