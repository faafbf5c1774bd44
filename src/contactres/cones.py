"""Exact rational polyhedral cones: the cone engine.

Cones are stored by canonical generators: the extreme rays of the pointed
part (primitive integer vectors, sorted) plus a +/- pair for each vector
of the reduced-echelon lineality basis. ``cone_from_generators`` is the
one door for outside vectors: it scales each to a primitive integer
vector (refusing a float) and drops zeros and repeats. Canonicalization
and duality both go through one polar pass, incremental double
description (Motzkin's method; Fukuda and Prodon, 1996), which takes
canonical integer generators as they are. The pass starts from all of
R^dim, with the unit vectors as its lineality, and the constraints enter
one at a time. One that is nonzero on the lineality cuts it; otherwise
two rays combine only when adjacent: they share at least d - 2 zero
constraints (d is the dimension of the pointed part so far), and no
third ray is zero on all of those. Constraints that span R^dim cut the
whole lineality, and the rays come out canonical with no elimination.
Otherwise what is left spans the lineality, the kernel of the
constraints, and the pass reruns from the reduced echelon rows of their
row space W, so that the pointed part lies in W: at most two
eliminations. At the ambient dimension cap, a pointed cone on 11
generators builds in about 20 ms (CPython 3.11, 2-core x86-64).

This module is the double-description checker. Its one package caller
is ``verify._suite_cones``; no decision loads it. ``RationalCone``, the
record it builds, and the closed-form ample cone live in ``resolutions``.
"""

from __future__ import annotations

from math import gcd

from .errors import DimensionMismatch, SizeCapExceeded, invariant
from .ratlinalg import dot, primitive, row_basis
from .resolutions import RationalCone, _generators

MAX_AMBIENT_DIM = 8


def _cancel(su, u, sv, v):
    """Primitive su v - sv u for primitive u and v, given su = a.u > 0 and
    sv = a.v: a vanishes on it, and it keeps v's side of a = 0."""
    if not sv:
        return v
    w = [su * x - sv * y for x, y in zip(v, u)]
    g = gcd(*w)
    return tuple([x // g for x in w])


def _double_description(constraints, lin):
    """The cone {y in span(lin) : <c, y> >= 0 for all c}, built up from
    span(lin) one constraint at a time: (rays, lineality left).

    ``lin`` is a list of independent primitive vectors, and the pass may
    change it. The rays come out primitive and sorted; they are extreme
    modulo the lineality left, so with none left they are the extreme rays.
    """
    start = len(lin)
    rays = []  # (ray, bitmask of the constraints added so far it makes zero)
    for k, a in enumerate(constraints):
        bit = 1 << k
        signs = [dot(a, v) for v in lin]
        i = next((i for i, s in enumerate(signs) if s), None)
        if i is not None:
            # a cuts the lineality: w becomes a ray, and the rest moves
            # along w onto the hyperplane a = 0
            w, sw = lin.pop(i), signs.pop(i)
            if sw < 0:
                w, sw = tuple([-x for x in w]), -sw
            lin = [_cancel(sw, w, s, v) for v, s in zip(lin, signs)]
            rays = [(_cancel(sw, w, dot(a, r), r), z | bit) for r, z in rays]
            rays.append((w, bit - 1))
            continue
        # modulo lin the cone is pointed, of dimension d = start - len(lin)
        # and cut out by constraints of rank d; two adjacent rays span a
        # 2-face, on which constraints of rank d - 2 vanish: d - 2 bits or more
        least = start - len(lin) - 2
        signed = [(r, z, dot(a, r)) for r, z in rays]
        rays = [(r, z | bit if s == 0 else z) for r, z, s in signed if s >= 0]
        for p, zp, sp in signed:
            if sp <= 0:
                continue
            for n, zn, sn in signed:
                if sn >= 0:
                    continue
                common = zp & zn
                if common.bit_count() < least or any(
                        m & common == common and m != zp and m != zn
                        for _, m, _ in signed):
                    continue  # not adjacent: the edge is not a face
                rays.append((_cancel(sp, p, sn, n), common | bit))
    return tuple(sorted(r for r, _ in rays)), lin


def _polar_rays(constraints, dim):
    """Generators of {y : <c, y> >= 0 for all c}: (extreme rays, lineality).

    The constraints are integer vectors, taken as they are: the package
    passes canonical generators. The pass starts from all of R^dim, with
    the unit vectors as its lineality; when the constraints do not span
    R^dim, what is left spans the lineality, and the pass reruns from the
    RREF rows of W, the row space of the constraints, so that the pointed
    part lies inside W.
    """
    units = [tuple([int(i == j) for j in range(dim)]) for i in range(dim)]
    rays, left = _double_description(constraints, units)
    if not left:
        return rays, ()
    if rays:  # with no ray the cone is its lineality: nothing to rerun
        rays, rest = _double_description(constraints,
                                         list(row_basis(constraints)))
        invariant(not rest, "no lineality may remain inside the row space")
    return rays, row_basis(left)


def cone_from_generators(dim: int, gens) -> RationalCone:
    """Build the cone spanned by ``gens`` in canonical form.

    Canonicalization runs generators -> facets -> generators; by the
    bipolar theorem the result is the same cone, now presented by its
    extreme rays in primitive sorted form.
    """
    if dim < 1:
        raise DimensionMismatch("ambient dimension must be positive")
    if dim > MAX_AMBIENT_DIM:
        raise SizeCapExceeded(
            f"ambient dimension {dim} exceeds cap {MAX_AMBIENT_DIM}")
    gens = list(gens)
    for g in gens:
        if len(g) != dim:
            raise DimensionMismatch(
                f"generator {g} has length {len(g)}, expected {dim}")
    gens = list(dict.fromkeys([g for g in map(primitive, gens) if any(g)]))
    facets = _generators(*_polar_rays(gens, dim))
    cone = RationalCone(dim, *_polar_rays(facets, dim), facets)
    invariant(all(dot(h, g) >= 0 for h in facets for g in cone.generators),
              "every generator must satisfy every facet")
    return cone


def dual_cone(c: RationalCone) -> RationalCone:
    """{y : <y, x> >= 0 for all x in c}, cut out by c's canonical
    generators as they are; an involution on closed cones."""
    gens = c.generators
    return RationalCone(c.ambient_dim, *_polar_rays(gens, c.ambient_dim), gens)
