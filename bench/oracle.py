"""Reference mathematics for the benchmark's inputs and output checks.

This module never imports bruhatpoly: every check here is computed by code
that shares nothing with the package under test.

- Bruhat order by the rank-matrix criterion: u <= v iff
  #{a <= i : u(a) >= k} <= #{a <= i : v(a) >= k} for all i, k
  (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5).
- Intervals by breadth-first search over covers.
- Affine rank by exact elimination over Fractions.
- f-vector, R-polynomial and suite-count invariants.

Permutations are tuples in one-line notation, values 1..n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

_RANK: dict = {}


def perms(n):
    """S_n in lexicographic order."""
    return [tuple(p) for p in permutations(range(1, n + 1))]


def length(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def _rank_matrix(w):
    r = _RANK.get(w)
    if r is None:
        n = len(w)
        rows = []
        for i in range(1, n + 1):
            prefix = w[:i]
            rows.extend(sum(1 for a in prefix if a >= k) for k in range(2, n + 1))
        r = _RANK[w] = tuple(rows)
    return r


def leq(u, v):
    """Bruhat order by the rank-matrix criterion."""
    return all(a <= b for a, b in zip(_rank_matrix(u), _rank_matrix(v)))


def swap(w, i, k):
    """w * (i k): swap positions i < k (1-based)."""
    lst = list(w)
    lst[i - 1], lst[k - 1] = lst[k - 1], lst[i - 1]
    return tuple(lst)


def up_covers(w):
    """(w * (i k), (i, k)) for every cover of w."""
    n = len(w)
    out = []
    for i in range(1, n):
        for k in range(i + 1, n + 1):
            a, b = w[i - 1], w[k - 1]
            if a < b and not any(a < w[j - 1] < b for j in range(i + 1, k)):
                out.append((swap(w, i, k), (i, k)))
    return out


def interval(u, v):
    """[u, v] as a set, by BFS upward from u through covers that stay <= v."""
    if not leq(u, v):
        raise ValueError(f"{u} is not <= {v}")
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _t in up_covers(x):
                if y not in seen and leq(y, v):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def covers_in(I):
    """Cover pairs (x, y, (i, k)) with both ends in the element set I."""
    return [(x, y, t) for x in I for y, t in up_covers(x) if y in I]


def fmt(w):
    return "".join(str(a) for a in w)


# --- relabelings -----------------------------------------------------------
# The four symmetries of Bruhat order generated by w0.  Each acts on the
# permutation vectors by an affine map of R^n, so intervals, polytopes,
# faces and R-polynomials correspond one to one.  The anti-automorphisms
# reverse the order and swap the ends of every interval.

RELABELINGS = ("identity", "conjugate", "left", "right")


def relabel(name, w):
    n = len(w)
    if name == "identity":
        return tuple(w)
    if name == "conjugate":  # w0 w w0
        return tuple(n + 1 - w[n - i] for i in range(1, n + 1))
    if name == "left":  # w0 w
        return tuple(n + 1 - a for a in w)
    if name == "right":  # w w0
        return tuple(reversed(w))
    raise ValueError(name)


def reverses_order(name):
    return name in ("left", "right")


def relabel_pair(name, u, v):
    a, b = relabel(name, u), relabel(name, v)
    return (b, a) if reverses_order(name) else (a, b)


def relabel_positions(name, n, t):
    """Image of a position pair (i, k) under the relabeling."""
    i, k = t
    if name in ("conjugate", "right"):
        return (n + 1 - k, n + 1 - i)
    return (i, k)


def relabel_weight_indices(name, n, J):
    """Image of the parabolic cut set J; positions reverse under conjugation."""
    if name in ("conjugate", "right"):
        return tuple(sorted(n - j for j in J))
    return tuple(J)


# --- linear algebra --------------------------------------------------------


def affine_rank(points):
    """Rank of {p - p0} by Gauss-Jordan elimination over Fractions."""
    points = list(points)
    p0 = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, p0)] for p in points[1:]]
    rank = 0
    ncols = len(p0)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


def position_blocks(n, I):
    """Finest partition of positions on whose blocks the coordinate sums are
    constant over I: union of the positions swapped by every cover in I."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for _x, _y, (i, k) in covers_in(I):
        ri, rk = find(i), find(k)
        if ri != rk:
            parent[max(ri, rk)] = min(ri, rk)
    blocks = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return sorted(blocks.values())


def bar_notation(blocks):
    return "|" + "|".join("".join(str(i) for i in b) for b in blocks) + "|"


def argmax(w, points):
    vals = [sum(a * b for a, b in zip(w, p)) for p in points]
    best = max(vals)
    return frozenset(p for p, x in zip(points, vals) if x == best)


def bruhat_min_max(F):
    lo = [x for x in F if all(leq(x, z) for z in F)]
    hi = [y for y in F if all(leq(z, y) for z in F)]
    return lo[0], hi[0]


# --- counts the property suites report --------------------------------------


def inversion_minimal(u, v):
    """Position pairs (i, k), inclusion-minimal with v_i > v_k, u_i < u_k."""
    n = len(u)
    cand = [
        (i, k)
        for i in range(1, n)
        for k in range(i + 1, n + 1)
        if v[i - 1] > v[k - 1] and u[i - 1] < u[k - 1]
    ]
    return [
        (i, k)
        for i, k in cand
        if not any(i <= p and q <= k and (p, q) != (i, k) for p, q in cand)
    ]


def maximal_chains(u, v, I):
    up = {}
    for x, y, _t in covers_in(I):
        up.setdefault(x, []).append(y)
    count = {v: 1}
    for z in sorted(I, key=length, reverse=True):
        if z != v:
            count[z] = sum(count[y] for y in up.get(z, ()))
    return count[u]


def comparable_pairs_within(I):
    els = list(I)
    return sum(1 for x in els for y in els if leq(x, y))


def weight_point(z, J):
    n = len(z)
    pos = [0] * (n + 1)
    for i, a in enumerate(z, start=1):
        pos[a] = i
    return tuple(sum(1 for j in J if pos[i] <= j) for i in range(1, n + 1))


def is_min_coset_rep(z, J):
    cuts = set(J)
    return all(z[i - 1] < z[i] for i in range(1, len(z)) if i not in cuts)


def parabolic_points(u, v, J):
    return sorted({weight_point(z, J) for z in interval(u, v)})


def parabolic_face_count(u, v, J):
    """Faces of the parabolic polytope, the whole polytope included.  Its
    edges are parallel to roots e_i - e_j, so every face is exposed by a
    weakly ordered functional, and functionals with entries in 0..n-1
    realise every weak order."""
    n = len(u)
    V = parabolic_points(u, v, J)
    return len({argmax(w, V) for w in product(range(n), repeat=n)})


def minkowski_equal(u, v, I, convention):
    """Does the Minkowski sum of the n-1 interval matroid polytopes equal
    the interval polytope up to translation?  Matroid polytopes are
    generalized permutohedra, so the vertices of the sum are the sums of
    the maximum-weight bases for the n! strict orderings of the ground set."""
    n = len(u)
    families = []
    for k in range(1, n):
        if convention == "first-values":
            bases = {frozenset(z[:k]) for z in I}
        else:
            bases = {frozenset(z.index(n - a) + 1 for a in range(k)) for z in I}
        families.append(sorted(bases, key=sorted))
    sums = set()
    for w in permutations(range(1, n + 1)):
        vec = [0] * n
        for bases in families:
            best = max(bases, key=lambda B: sum(w[i - 1] for i in B))
            for i in best:
                vec[i - 1] += 1
        sums.add(tuple(vec))
    return _translated(sums) == _translated(I)


def _translated(points):
    points = list(points)
    mins = [min(p[i] for p in points) for i in range(len(points[0]))]
    return sorted(tuple(a - m for a, m in zip(p, mins)) for p in points)


# --- R-polynomials ---------------------------------------------------------


def r_polynomial_ok(coeffs, d):
    """Degree d, leading coefficient 1, constant term (-1)^d, palindromy
    q^d R(1/q) = (-1)^d R(q)."""
    sign = -1 if d % 2 else 1
    return (
        len(coeffs) == d + 1
        and coeffs[d] == 1
        and coeffs[0] == sign
        and all(coeffs[j] == sign * coeffs[d - j] for j in range(d + 1))
    )


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def r_from_tilde(tilde, d):
    """R(q) = q^(d/2) Rt(q^(1/2) - q^(-1/2)) = sum_j c_j q^((d-j)/2) (q-1)^j."""
    out = [0] * (d + 1)
    for j, c in enumerate(tilde):
        if c == 0:
            continue
        if (d - j) % 2:
            return None
        term = [1]
        for _ in range(j):
            term = _poly_mul(term, [-1, 1])
        shift = (d - j) // 2
        for e, x in enumerate(term):
            out[e + shift] += c * x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# --- f-vectors -------------------------------------------------------------


def f_vector_ok(fv, size, dim):
    """f_0 = |[u,v]|, top entry 1 at index dim, Euler's relation."""
    return (
        len(fv) == dim + 1
        and fv[0] == size
        and fv[-1] == 1
        and sum((-1) ** i * f for i, f in enumerate(fv)) == 1
    )


def pairs_sample(n, sample, seed):
    """The seeded rejection sample of comparable pairs that
    `check ... --n n --sample sample --seed seed` draws."""
    import random

    rng = random.Random(seed)
    P = perms(n)
    out, seen = [], set()
    while len(out) < sample:
        u = rng.choice(P)
        v = rng.choice(P)
        if u != v and (u, v) not in seen and leq(u, v):
            seen.add((u, v))
            out.append((u, v))
    return out


def subsets_1_to(n):
    """Nonempty subsets of {1..n-1}, by size then lexicographically."""
    idx = range(1, n)
    return [J for size in range(1, n) for J in combinations(idx, size)]
