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

from . import exactlp
from .errors import DomainError
from .intervals import _bits, between, comparabilities, interval, require_leq
from .perms import Perm, format_perm, identity


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
    return tuple(
        tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]) if a < b
    )


def min_coset_rep(z: Perm, J) -> Perm:
    """The shortest element of z W_J: sort values within each position block."""
    return tuple(a for b in position_blocks(len(z), J) for a in sorted(z[b[0] - 1 : b[-1]]))


def is_min_rep(z: Perm, J) -> bool:
    return z == min_coset_rep(z, J)


def weight_point(z: Perm, J) -> tuple:
    """p(z): 1 at each value of z(1..j), for each j in J."""
    return _weight_point(z, check_subset(len(z), J))


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
    return sorted({_weight_point(z, J) for z in interval(u, v).elements})


def coset_reps_in_interval(u: Perm, v: Perm, J):
    """Sorted minimal representatives of the cosets meeting [u, v]."""
    return sorted({min_coset_rep(z, J) for z in interval(u, v).elements})


def _is_interval_set(F, above, pts) -> bool:
    """Is F the point set {p(z) : x <= z <= y} of some [x, y] inside an
    interval T with y minimal in its coset, where pts[k] = p(T.order[k])
    and above = comparabilities(T)?  T.order is lexicographic, which
    extends Bruhat order, so a point's first index is its coset's minimal
    representative.  If F = p([x, y]), every minimal representative in F's
    preimage lies below y, so y can only be the last of them."""
    pre = [k for k, p in enumerate(pts) if p in F]
    y = max({pts[k]: k for k in reversed(pre)}.values())
    return any(
        {pts[k] for k in _bits(between(above, x, y))} == F for x in pre if above[x] >> y & 1
    )


def parabolic_faces_check(u: Perm, v: Perm, J) -> dict:
    """Executable check of the faces theorem for the parabolic polytope.

    The faces are the whole face lattice of the weight points, computed by
    exactlp from the points alone.  Each face must be a point set
    {p(z) : x <= z <= y} for some x <= y with y minimal in its coset;
    0-faces must biject with the cosets meeting [u, v]; 1-faces must join
    cover-related cosets.
    """
    n = len(u)
    if n > 5:
        raise DomainError("parabolic_faces_check is guarded to n <= 5")
    J = _check_instance(u, v, J)
    # the face's defining interval need not sit inside [u, v], but it sits
    # in [e, v]: each point of F is p of some z <= v, so its minimal
    # representative is below v, y among them, and x <= y; K indexes [u, v]
    T = interval(identity(n), v)
    above = comparabilities(T)
    pts = [_weight_point(z, J) for z in T.order]
    K = list(_bits(above[T.order.index(u)]))
    V, faces = exactlp.face_lattice(list({pts[k] for k in K}))
    point_sets = [[V[k] for k in _bits(F)] for F in faces]  # each sorted, as V is
    violations = sorted(P for P in point_sets if not _is_interval_set(set(P), above, pts))

    cosets = {min_coset_rep(T.order[k], J) for k in K}
    zero_cells_match_cosets = sum(F.bit_count() == 1 for F in faces) == len(V) == len(cosets)

    index = {p: k for k, p in enumerate(V)}
    cover_masks = {1 << index[pts[i]] | 1 << index[pts[j]] for i in K for j, _t in T.up[i]}
    edges_ok = all(F in cover_masks for F in faces if F.bit_count() == 2)

    # the lattice is graded by dimension: a point has dimension 0, and any
    # other face one more than the largest face strictly inside it
    dims = {}
    for F in sorted(faces, key=int.bit_count):
        dims[F] = max((d + 1 for G, d in dims.items() if G | F == F), default=0)

    return {
        "u": u,
        "v": v,
        "J": J,
        "n_points": len(V),
        "n_cosets": len(cosets),
        "faces_found": len(faces),
        "faces_by_dim": dict(sorted(Counter(dims.values()).items())),
        "all_faces_are_interval_sets": not violations,
        "violations": violations,
        "zero_cells_match_cosets": zero_cells_match_cosets,
        "edges_are_cover_pairs": edges_ok,
    }
