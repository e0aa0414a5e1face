"""Exact rational linear algebra and LP, used as ground truth in tests.

The LP takes int or Fraction data and scales every row to integers once;
the simplex then pivots on integers only, and Fractions appear only in
the returned optimum.  The rank computation is fraction-free over the
integers.  No floating point appears in any decision path.  The simplex
uses Bland's rule, which guarantees termination.  The face test is the
dual criterion "conv(V \\ S) misses aff(S)", one feasibility LP with
dim + 1 rows.

Scale guards: the LP routines are meant for desk-scale instances (point
sets from S_n with n <= 5); they are not a general-purpose LP library.  The
integer rank computation has no such guard.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

MAX_POINTS = 200
MAX_DIM = 12


def _check_points(points):
    if not points:
        raise DomainError("empty point set")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DomainError("points of mixed dimension")
    return dim


def _check_lp_points(points):
    """_check_points plus the scale guard of the LP entry points."""
    dim = _check_points(points)
    if len(points) > MAX_POINTS or dim > MAX_DIM:
        raise DomainError(
            f"scale guard exceeded: {len(points)} points in dimension {dim}"
        )
    return dim


def affine_rank(points) -> int:
    """Rank of the difference set {p - p0} by fraction-free (Bareiss)
    elimination over the integers."""
    _check_points(points)
    p0 = points[0]
    mat = [[int(a - b) for a, b in zip(p, p0)] for p in points[1:]]
    if not mat:
        return 0
    rows, cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = next(
            (r for r in range(rank, rows) if mat[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        for r in range(rows):
            if r == rank:
                continue
            for c in range(cols):
                if c == col:
                    continue
                mat[r][c] = (mat[rank][col] * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = mat[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Two-phase primal simplex on the standard equality form
#     max c.x   s.t.  A x = b,  x >= 0
# over exact rationals, using integer pivoting: the tableau is kept as
# det * (rational tableau) with integer entries and det equal to the last
# pivot element, so every update
#     T'[i][j] = (T[i][j]*T[r][c] - T[i][c]*T[r][j]) // det
# is an exact integer division (same identity as fraction-free Gaussian
# elimination).  This avoids Fraction arithmetic in the hot loop entirely.
# ---------------------------------------------------------------------------


def _pivot(tableau, basis, zrow, det, row, col):
    """Integer pivot on (row, col); tableau[row][col] must be positive.
    Returns the new det (= the pivot element)."""
    pivot_row = tableau[row]
    piv = pivot_row[col]
    for r, line in enumerate(tableau):
        if r != row:
            f = line[col]
            if f:
                tableau[r] = [
                    (a * piv - f * p) // det for a, p in zip(line, pivot_row)
                ]
            elif det != piv:
                tableau[r] = [a * piv // det for a in line]
    if zrow is not None:
        f = zrow[col]
        if f:
            zrow[:] = [(a * piv - f * p) // det for a, p in zip(zrow, pivot_row)]
        elif det != piv:
            zrow[:] = [a * piv // det for a in zrow]
    basis[row] = col
    return piv


def _objective_row(tableau, basis, det, cost):
    """The reduced-cost row det*(z - c); negative entries improve a
    maximization."""
    zrow = [-cj * det for cj in cost] + [0]
    for r, j in enumerate(basis):
        if cost[j] != 0:
            f = cost[j]
            zrow = [a + f * p for a, p in zip(zrow, tableau[r])]
    return zrow


def _optimize(tableau, basis, det, cost):
    """Bland-rule simplex for max cost.x; tableau rows are det*[A | b] with
    the basic columns forming det*identity.  Returns (det, bounded)."""
    ncols = len(tableau[0]) - 1
    zrow = _objective_row(tableau, basis, det, cost)
    while True:
        # Bland: smallest improving index enters
        entering = next((j for j in range(ncols) if zrow[j] < 0), None)
        if entering is None:
            return det, True
        leaving = None
        num = den = None
        for r in range(len(basis)):
            coef = tableau[r][entering]
            if coef > 0:
                rhs = tableau[r][-1]
                if (
                    leaving is None
                    or rhs * den < num * coef
                    or (rhs * den == num * coef and basis[r] < basis[leaving])
                ):
                    num, den = rhs, coef
                    leaving = r
        if leaving is None:
            return det, False
        det = _pivot(tableau, basis, zrow, det, leaving, entering)


def _integer_row(line):
    """The rational entries of line scaled by the lcm of their denominators;
    int and Fraction entries both carry numerator and denominator."""
    try:
        den = 1
        for x in line:
            den = den * x.denominator // math.gcd(den, x.denominator)
        return [x.numerator * (den // x.denominator) for x in line]
    except AttributeError:
        bad = next(x for x in line if not hasattr(x, "denominator"))
        raise DomainError(
            f"LP entries must be int or Fraction, got {bad!r}"
        ) from None


def solve_eq_lp(A, b, c):
    """max c.x subject to A x = b, x >= 0, all entries rational (int or
    Fraction).

    Returns (status, x, objective) with status one of "optimal",
    "infeasible", "unbounded"; x is a list of Fractions when optimal.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    if len(b) != m or len(c) != n or any(len(ar) != n for ar in A):
        raise DomainError(
            f"LP shape mismatch: A has rows of lengths {[len(ar) for ar in A]}, "
            f"b has {len(b)} entries, c has {len(c)}"
        )
    rows = [_integer_row([*ar, br]) for ar, br in zip(A, b)]
    cint = _integer_row(c)

    # phase 1: artificial variables, minimize their sum
    tableau = []
    for r, row in enumerate(rows):
        if row[-1] < 0:
            row = [-x for x in row]
        tableau.append(row[:n] + [int(i == r) for i in range(m)] + [row[-1]])
    basis = [n + r for r in range(m)]
    det = 1
    cost1 = [0] * n + [-1] * m
    det, bounded = _optimize(tableau, basis, det, cost1)
    assert bounded, "phase-1 objective is bounded by construction"
    if any(tableau[r][-1] for r in range(m) if basis[r] >= n):
        return "infeasible", None, None

    # drive any residual artificial variables out of the basis
    r = 0
    while r < len(basis):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                del tableau[r], basis[r]  # redundant row
                continue
            if tableau[r][col] < 0:
                tableau[r] = [-x for x in tableau[r]]
            det = _pivot(tableau, basis, None, det, r, col)
        r += 1
    tableau = [row[:n] + [row[-1]] for row in tableau]

    # phase 2
    det, bounded = _optimize(tableau, basis, det, cint)
    if not bounded:
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = Fraction(tableau[r][-1], det)
    obj = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, obj


def _hull_meets_affine(points, S) -> bool:
    """True iff conv(points) meets the affine hull of S: feasibility of
        sum_p l_p p - sum_s m_s (s - s0) = s0,  sum_p l_p = 1,  l >= 0,
    with each free m_s split as m_s+ - m_s-."""
    s0 = S[0]
    dirs = [[a - b for a, b in zip(s, s0)] for s in S[1:]]
    A = [[1] * len(points) + [0] * (2 * len(dirs))]
    for i in range(len(s0)):
        A.append(
            [p[i] for p in points]
            + [x for d in dirs for x in (-d[i], d[i])]
        )
    status, _, _ = solve_eq_lp(A, [1, *s0], [0] * len(A[0]))
    return status == "optimal"


def hull_membership(q, points) -> bool:
    """True iff q lies in the convex hull of points (exact feasibility LP
    on the barycentric weights)."""
    dim = _check_lp_points(points)
    if len(q) != dim:
        raise DomainError(f"dimension mismatch: {len(q)} vs {dim}")
    return _hull_meets_affine(points, [q])


def is_face(S, V) -> bool:
    """Is S the set of points of V on some face of conv(V)?

    By the transposition theorem (Schrijver, Theory of Linear and Integer
    Programming, sec. 7.8), a functional constant on S and strictly larger
    there than on V \\ S exists iff conv(V \\ S) misses aff(S); that is one
    feasibility LP with dim + 1 rows.
    """
    _check_lp_points(V)
    sset = {tuple(s) for s in S}
    if not sset:
        raise DomainError("empty face candidate")
    vset = {tuple(p) for p in V}
    if not sset <= vset:
        raise DomainError("face candidate is not a subset of the point set")
    others = sorted(vset - sset)
    if not others:
        return True
    # an outside point affinely dependent on S already meets aff(S); this
    # cheap integer-rank filter keeps the LP off the bulk of the non-faces.
    # It cannot fire on one point, since two distinct points have rank 1.
    base = sorted(sset)
    if len(base) > 1:
        r = affine_rank(base)
        if any(affine_rank(base + [t]) == r for t in others):
            return False
    return not _hull_meets_affine(others, base)


def face_vertices(w, V):
    """The argmax subset of V under the functional w (the face it exposes)."""
    best = max(sum(wi * pi for wi, pi in zip(w, p)) for p in V)
    return [p for p in V if sum(wi * pi for wi, pi in zip(w, p)) == best]


def extreme_points(points):
    """The extreme points: p is kept iff it is not in the hull of the rest."""
    _check_lp_points(points)
    uniq = sorted({tuple(p) for p in points})
    out = []
    for i, p in enumerate(uniq):
        rest = uniq[:i] + uniq[i + 1 :]
        if not rest or not hull_membership(p, rest):
            out.append(p)
    return out
