"""Exact polytope oracle: the faces of conv(V) from the points alone.

The points are scaled to integers once, by the lcm of their denominators,
and projected onto the pivot columns of the fraction-free (Bareiss)
elimination of {p - p0}; there they are full-dimensional, and the
projection keeps every face.  The facets are the extreme rays of the cone
{y : (1, p).y >= 0 for all p}, found by the double description method
(Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, *Double
description method revisited*, 1996) on integer rays kept primitive by
gcd.  Each ray carries the bitmask of the points it is tight on, which is
its facet's vertex set, and two rays are combined only when they pass the
combinatorial adjacency test.  Every face is an intersection of facets
(Kaibel and Pfetsch, *Computing the face lattice of a polytope from its
vertex-facet incidences*, 2002), so the face lattice is the facet
bitmasks closed under intersection, and the face test reads it.  No
floating point appears in any decision path, and nothing here knows about
permutations: the module is ground truth for the Bruhat code.

Scale guards: the facet routines are meant for desk-scale instances (point
sets from S_n with n <= 5).  The affine rank has no such guard.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import DomainError

MAX_POINTS = 200
MAX_DIM = 12


def _integer_points(points):
    """The points as integer tuples, all scaled by the lcm of their
    denominators (int and Fraction both carry numerator and denominator);
    one common scale keeps every affine relation."""
    if not points:
        raise DomainError("empty point set")
    if any(len(p) != len(points[0]) for p in points):
        raise DomainError("points of mixed dimension")
    try:
        den = math.lcm(*{x.denominator for p in points for x in p})
    except AttributeError:
        bad = next(x for p in points for x in p if not hasattr(x, "denominator"))
        raise DomainError(f"coordinates must be int or Fraction, got {bad!r}") from None
    if den == 1:
        return [tuple(x.numerator for x in p) for p in points]
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def _pivot_columns(ints):
    """The pivot columns of the fraction-free (Bareiss) elimination of the
    difference rows {p - p0} of integer points."""
    p0 = ints[0]
    mat = [[a - b for a, b in zip(p, p0)] for p in ints[1:]]
    cols = []
    prev = 1
    for col in range(len(p0)):
        r = len(cols)
        pivot_row = next((k for k in range(r, len(mat)) if mat[k][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        for row in mat[r + 1 :]:
            f = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (top[col] * row[c] - f * top[c]) // prev
        prev = top[col]
        cols.append(col)
        if len(cols) == len(mat):
            break
    return cols


def affine_rank(points) -> int:
    """Dimension of the affine hull: the rank of {p - p0}, by fraction-free
    elimination of the points scaled to integers."""
    return len(_pivot_columns(_integer_points(points)))


def _combine(s, x, t, y):
    """s x - t y, divided by the gcd of its entries."""
    z = [s * a - t * b for a, b in zip(x, y)]
    g = math.gcd(*z)
    return tuple(a // g for a in z)


def _facets(points):
    """The distinct points, sorted, and the facets of their hull as
    bitmasks over that list, by double description on the cone
    {y : (1, p).y >= 0}.  The cone starts as the whole space, held as a
    lineality basis.  A row that is nonzero on the lineality turns one
    lineality vector into a ray, by elimination; otherwise the rays on
    either side of the row are paired, and a pair is combined iff no other
    ray is tight on every row both are tight on.  Adjacent rays of a cone
    of dimension k (modulo its lineality) share k - 2 independent tight
    rows, so pairs sharing fewer rows are skipped before that test."""
    keyed = dict(zip(map(tuple, points), _integer_points(points)))
    uniq = sorted(keyed)
    if len(uniq) > MAX_POINTS or len(uniq[0]) > MAX_DIM:
        raise DomainError(f"scale guard exceeded: {len(uniq)} points in dimension {len(uniq[0])}")
    ints = [keyed[p] for p in uniq]
    cols = _pivot_columns(ints)
    rows = [(1, *(p[c] for c in cols)) for p in ints]
    lin = [tuple(int(i == k) for i in range(len(cols) + 1)) for k in range(len(cols) + 1)]
    rays = []  # (integer ray, bitmask of the rows it is tight on)
    for k, a in enumerate(rows):
        bit = 1 << k
        vals = [sum(map(mul, a, m)) for m in lin]
        h = next((i for i, s in enumerate(vals) if s), None)
        if h is not None:
            l, s = lin.pop(h), vals.pop(h)
            if s < 0:
                l, s = tuple(-x for x in l), -s
            lin = [_combine(s, m, t, l) for m, t in zip(lin, vals)]
            rays = [(_combine(s, r, sum(map(mul, a, r)), l), z | bit) for r, z in rays]
            rays.append((l, bit - 1))  # tight on every earlier row
            continue
        signed = [(r, z, sum(map(mul, a, r))) for r, z in rays]
        masks = [z for _r, z in rays]
        rays = [(r, z | bit if t == 0 else z) for r, z, t in signed if t >= 0]
        need = len(cols) - 1 - len(lin)  # k - 2
        for rp, zp, tp in signed:
            if tp <= 0:
                continue
            for rn, zn, tn in signed:
                if tn < 0:
                    z = zp & zn
                    if z.bit_count() >= need and sum(z & m == z for m in masks) == 2:
                        rays.append((_combine(tp, rn, tn, rp), z | bit))
    return uniq, [z for _r, z in rays]


def face_lattice(V):
    """The sorted distinct points of V, and every face of conv(V) as the
    bitmask of its points over them: the facets closed under intersection."""
    uniq, facets = _facets(V)
    return uniq, intersections(facets, (1 << len(uniq)) - 1)


def intersections(facets, full):
    """Every face as a vertex bitmask: the nonempty intersections of the
    facet bitmasks, full (that of no facet) included."""
    masks = {full}
    for f in facets:
        masks |= {f & g for g in masks}
    masks.discard(0)
    return masks


def is_face(S, V) -> bool:
    """Is S the set of points of V on some face of conv(V)?"""
    sset = frozenset(map(tuple, S))
    if not sset:
        raise DomainError("empty face candidate")
    if not sset <= set(map(tuple, V)):
        raise DomainError("face candidate is not a subset of the point set")
    uniq, faces = face_lattice(V)
    return sum(1 << k for k, p in enumerate(uniq) if p in sset) in faces


def face_vertices(w, V):
    """The argmax of V under the functional w (the face it exposes), as a
    bitmask over V."""
    vals = [sum(map(mul, w, p)) for p in V]
    best = max(vals)
    return sum(1 << k for k, x in enumerate(vals) if x == best)
