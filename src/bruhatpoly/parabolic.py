"""Parabolic interval polytopes in type A.

Conventions.  J is a subset of {1..n-1} naming fundamental-weight indices;
the parabolic subgroup W_J is generated by the OTHER simple reflections
{s_i : i not in J}, so it permutes positions within the blocks of {1..n}
obtained by cutting after each j in J.  The weight point of z is

    p(z) = sum over j in J of the 0/1 indicator of the value set
           {z(1), ..., z(j)},

an integer vector constant exactly on the cosets z W_J.  The polytope is
the hull of {p(z) : u <= z <= v}, with v minimal in its coset.  For
J = {1..n-1}, p(z)_a = n - z^{-1}(a), so the hull is affinely the polytope
of [u^{-1}, v^{-1}], not that of [u, v].
"""

from __future__ import annotations

from collections import Counter

from .errors import DomainError
from .intervals import _bits, comparabilities, interval, require_leq
from .perms import Perm, check_perm, format_perm, identity


def check_subset(n: int, J) -> tuple:
    J = tuple(sorted(set(J)))
    if any(not 1 <= j <= n - 1 for j in J):
        raise DomainError(f"J must be a subset of 1..{n - 1}, got {J!r}")
    return J


def position_blocks(n: int, J) -> tuple:
    """The intervals of {1..n} obtained by cutting after each j in J; these
    are the position blocks permuted by W_J."""
    J = check_subset(n, J)
    cuts = [0, *J, n]
    return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]))


def min_coset_rep(z: Perm, J) -> Perm:
    """The shortest element of z W_J: sort values within each position block."""
    blocks = position_blocks(len(check_perm(z)), J)
    return tuple(a for b in blocks for a in sorted(z[b[0] - 1 : b[-1]]))


def is_min_rep(z: Perm, J) -> bool:
    return z == min_coset_rep(z, J)


def weight_point(z: Perm, J) -> tuple:
    """p(z): 1 at each value of z(1..j), for each j in J."""
    return _weight_point(z, check_subset(len(check_perm(z)), J))


def _weight_point(z: Perm, J) -> tuple:
    """weight_point for a J already checked."""
    p = [0] * len(z)
    for j in J:
        for a in z[:j]:
            p[a - 1] += 1
    return tuple(p)


def _check_instance(u: Perm, v: Perm, J) -> tuple:
    """J checked, v minimal in its coset and u <= v, or DomainError."""
    J = check_subset(len(u), J)
    if not is_min_rep(v, J):
        raise DomainError(
            f"{format_perm(v)} is not minimal in its coset for J={list(J)}; "
            f"use min_coset_rep, which gives {format_perm(min_coset_rep(v, J))}"
        )
    require_leq(u, v)
    return J


def parabolic_bip_vertices(u: Perm, v: Perm, J):
    """Deduplicated, sorted weight points of the interval [u, v]."""
    J = _check_instance(u, v, J)
    return sorted({_weight_point(z, J) for z in interval(u, v).order})


def coset_reps_in_interval(u: Perm, v: Perm, J):
    """Sorted minimal representatives of the cosets meeting [u, v]."""
    return sorted({min_coset_rep(z, J) for z in interval(u, v).order})


def _is_interval_set(pre, above, below) -> bool:
    """Is F = p([x, y]), x <= y in T and y minimal in its coset?  pre holds
    each of F's preimages in T as a bitmask over T.order; (above, below) =
    comparabilities(T).  T.order extends Bruhat order, so a lowest bit is a
    minimal representative; all lie below y, so y is the last.  Then [x, y]
    = above[x] & below[y] lies in the (disjoint) preimages and meets each."""
    U, y = sum(pre), max(m & -m for m in pre).bit_length() - 1
    for x in _bits(U & below[y]):
        S = above[x] & below[y]
        if not S & ~U and all(S & m for m in pre):
            return True
    return False


def parabolic_faces_check(u: Perm, v: Perm, J) -> dict:
    """Executable check of the faces theorem for the parabolic polytope.

    The faces are the facets of the weight points (polytopes._facets: each
    maximizes a 0/1 direction) closed under intersection.  Each must be a
    point set {p(z) : x <= z <= y} for some x <= y, y minimal in its coset;
    0-faces biject with the cosets meeting [u, v]; 1-faces join cover-related
    cosets.  Refused past polytopes.MAX_FACE_ELEMENTS elements in [e, v]."""
    from . import exactlp, polytopes

    J = _check_instance(u, v, J)
    # F = p([x, y]) has [x, y] in [e, v], not always in [u, v]: y is the
    # minimal representative of a point p(z) of F, z <= v; K indexes [u, v]
    T = interval(identity(len(u)), v)
    polytopes.require_face_bound("the faces check", len(T))
    above, below = comparabilities(T)
    pts = [_weight_point(z, J) for z in T.order]
    K = list(_bits(above[T.order.index(u)]))
    V = sorted({pts[k] for k in K})
    # a cover swaps two values: the hull is the product of its projections to
    # the blocks the covers join, and a block of b values gives 2^(b-1) <= len(T)
    swaps = [(T.order[i][a - 1], T.order[i][b - 1]) for i in K for _j, (a, b) in T.up[i]]
    blocks = [B for B in polytopes.label_partition(len(u), swaps) if len(B) > 1]
    facets = polytopes._facets(V, blocks)
    faces = exactlp.intersections(facets, (1 << len(V)) - 1)
    index, pre = {p: k for k, p in enumerate(V)}, [0] * len(V)
    for k, p in enumerate(pts):
        if p in index:
            pre[index[p]] |= 1 << k
    violations = sorted(
        [V[k] for k in _bits(F)] for F in faces
        if not _is_interval_set([pre[k] for k in _bits(F)], above, below)
    )

    cosets = {min_coset_rep(T.order[k], J) for k in K}
    zero_cells_match_cosets = sum(F.bit_count() == 1 for F in faces) == len(V) == len(cosets)

    cover_masks = {1 << index[pts[i]] | 1 << index[pts[j]] for i in K for j, _t in T.up[i]}
    edges_ok = all(F in cover_masks for F in faces if F.bit_count() == 2)

    # a point's dimension is 0, any other face F's one more than the largest
    # F & G over the facets G through its first point, F's facets among them
    through = {1 << k: [G for G in facets if G >> k & 1] for k in range(len(V))}
    dims = {}
    for F in sorted(faces, key=int.bit_count):
        dims[F] = max((dims.get(F & G, -1) for G in through[F & -F]), default=-1) + 1

    return {
        "u": u, "v": v, "J": J,
        "n_points": len(V),
        "n_cosets": len(cosets),
        "faces_found": len(faces),
        "faces_by_dim": dict(sorted(Counter(dims.values()).items())),
        "all_faces_are_interval_sets": not violations,
        "violations": violations,
        "zero_cells_match_cosets": zero_cells_match_cosets,
        "edges_are_cover_pairs": edges_ok,
    }
