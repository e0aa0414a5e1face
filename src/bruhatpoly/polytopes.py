"""The polytope of an interval [u, v]: convex hull of the permutation
vectors of its elements.

Combinatorial structure is read off the interval itself: the partition of
{1..n} induced by chain labels gives dimension, affine span and toricness;
matroids of first values give an inequality description; a small digraph
criterion, on face graphs held as bitset tuples (rep, nodes, pred), decides
which subintervals give faces.  Edges are covers, parallel to roots
e_a - e_b, so each facet maximizes a 0/1 direction, and the faces are the
facets closed under intersection.  The exact polytope oracle (exactlp
module), which computes faces from the points alone, is the geometric
ground truth for all of this in the tests and suites.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, namedtuple
from itertools import combinations
from operator import and_

from . import exactlp
from .errors import DomainError
from .intervals import (
    BruhatInterval,
    _bits,
    atom_transpositions,
    coatom_transpositions,
    hasse,
    interval,
    require_leq,
)
from .perms import Perm, bruhat_leq, check_perm, format_perm, length


# ---------------------------------------------------------------------------
# label partitions
# ---------------------------------------------------------------------------


def _block_reps(n, edges):
    """The components of the graph on {1..n} with one edge per pair (a, b),
    as the tuple rep with rep[i-1] the smallest element of i's block.  Each
    block is kept as a bitset shared by its members."""
    block = [1 << i for i in range(n + 1)]
    for a, b in edges:
        if not block[a] >> b & 1:
            merged = block[a] | block[b]
            for i in _bits(merged):
                block[i] = merged
    return tuple((m & -m).bit_length() - 1 for m in block[1:])


def label_partition(n, labels):
    """The partition of {1..n} joined by the transposition labels (a, b):
    its blocks, each sorted, ordered by their smallest element."""
    rep = _block_reps(n, labels)
    return tuple(tuple(i + 1 for i, s in enumerate(rep) if s == r) for r in sorted(set(rep)))


def format_partition(blocks) -> str:
    """Render a partition in bar notation, e.g. |1|234|."""
    return "|" + "|".join("".join(str(i) for i in b) for b in blocks) + "|"


def block_partition(u: Perm, v: Perm):
    """The label partition of the atoms of [u, v]; chain-independence makes
    this equal to the label partition of any maximal chain, and of the
    coatoms."""
    require_leq(u, v)
    return label_partition(len(u), atom_transpositions(u, v))


# ---------------------------------------------------------------------------
# vertices and dimension
# ---------------------------------------------------------------------------


def vertices(u: Perm, v: Perm):
    """Permutation vectors of the interval elements, sorted; each is a
    vertex of the hull since permutation vectors are extreme in the
    permutohedron."""
    return list(interval(u, v).order)


def dimension(u: Perm, v: Perm) -> int:
    return len(u) - len(block_partition(u, v))


# ---------------------------------------------------------------------------
# matroids and the inequality description
# ---------------------------------------------------------------------------


def interval_matroids(I: BruhatInterval, convention: str) -> list:
    """[M_1, ..., M_{n-1}], the matroids the interval sweeps out, each a
    frozenset of base bitmasks, bit a for element a, from one pass over
    its elements: each z gives a sequence, and the bases of M_k are its
    first k entries.  Two conventions appear side by side deliberately
    (see minkowski_check):
      first-values:  z(1), z(2), ...,
      top-positions: z^{-1}(n), z^{-1}(n-1), ...
    """
    if convention not in ("first-values", "top-positions"):
        raise DomainError(f"unknown matroid convention: {convention!r}")
    n = len(I.u)
    bases = [set() for _ in range(1, n)]
    for z in I.order:
        seq = z if convention == "first-values" else [z.index(a) + 1 for a in range(n, 1, -1)]
        m = 0
        for a, B in zip(seq, bases):
            m |= 1 << a
            B.add(m)
    return [frozenset(B) for B in bases]


def rank_sum(matroids, A) -> int:
    """sum_k r_{M_k}(A) over matroids given as base bitmasks: the rank of
    A is the most of A that one basis holds."""
    a = sum(1 << i for i in A)
    return sum(max((a & b).bit_count() for b in M) for M in matroids)


class PolytopeDescription(namedtuple("PolytopeDescription", "vertices equalities inequalities")):
    # vertices: integer vectors; equalities: (coeff vector, rhs); inequalities:
    # (subset A as tuple, rhs) meaning sum_{i in A} x_i <= rhs

    def to_json_dict(self):
        return {
            "vertices": [list(p) for p in self.vertices],
            "equalities": [
                {"coeffs": list(coeffs), "rhs": rhs} for coeffs, rhs in self.equalities
            ],
            "inequalities": [
                {"subset": list(subset), "rhs": rhs} for subset, rhs in self.inequalities
            ],
        }


def bip_inequalities(u: Perm, v: Perm) -> PolytopeDescription:
    """Inequality description: sum x_i = n(n+1)/2 together with, for every
    proper nonempty subset A, sum_{i in A} x_i <= sum_k r_{M_k}(A), where
    M_k is the first-values matroid.  Redundant inequalities are retained.
    Every bound is tight on conv{y(z) : z in [u, v]}, y(z)_a = n - z^{-1}(a),
    as checks.dimension_pair certifies; that hull is affinely the polytope
    of [u^{-1}, v^{-1}], not that of [u, v].
    """
    n = len(u)
    I = interval(u, v)
    matroids = interval_matroids(I, "first-values")
    return PolytopeDescription(
        vertices=I.order,
        equalities=(((1,) * n, n * (n + 1) // 2),),
        inequalities=tuple(
            (A, rank_sum(matroids, A))
            for size in range(1, n) for A in combinations(range(1, n + 1), size)
        ),
    )


# ---------------------------------------------------------------------------
# the face criterion
# ---------------------------------------------------------------------------


def _kahn_order(G):
    """The Kahn order of the face graph G = (rep, nodes, pred) that always
    takes the lowest ready node, or None on a directed cycle; a self-loop
    keeps its node from ever being ready."""
    _rep, nodes, pred = G
    order, placed = [], 0
    while nodes:
        ready = nodes
        while ready:
            low = ready & -ready
            if not pred[low.bit_length() - 1] & ~placed:
                break
            ready ^= low
        else:
            return None
        order.append(low.bit_length() - 1)
        placed |= low
        nodes ^= low
    return order


def is_acyclic(G) -> bool:
    return _kahn_order(G) is not None


def witness(G):
    """An integer functional maximized over [u, v] exactly on the face of
    an acyclic face graph G: each coordinate is the place of its block in
    the Kahn order."""
    level = {r: k for k, r in enumerate(_kahn_order(G))}
    return tuple(level[r] for r in G[0])


def _face_pred(n, rep, up_y, down_x):
    """The pred bitsets of [x, y] inside [u, v] for the partition rep of
    B_{x,y}: a cover y < yt with t = (a, b) in [u, v] is an edge
    rep(a) -> rep(b), a cocover xt < x one rep(b) -> rep(a)."""
    pred = [0] * (n + 1)
    for a, b in up_y:
        pred[rep[b - 1]] |= 1 << rep[a - 1]
    for a, b in down_x:
        pred[rep[a - 1]] |= 1 << rep[b - 1]
    return tuple(pred)


def face_graph(x: Perm, y: Perm, u: Perm, v: Perm):
    """The face graph (rep, nodes, pred) of [x, y] inside [u, v]: a digraph
    on the blocks of the inner partition B_{x,y}, in bitsets.  rep[i-1] is
    the smallest element of i's block; these representatives are the
    nodes, bit r of nodes for representative r.  pred[r] has bit s for each
    edge s -> r, repeats collapsed.  An edge whose endpoints merged into one
    block is the self-loop bit r of pred[r], which counts as a cycle: it
    cannot be consistently ordered."""
    chain = list(map(check_perm, (u, x, y, v)))
    if not all(map(bruhat_leq, chain, chain[1:])):
        raise DomainError(
            f"need {format_perm(u)} <= {format_perm(x)} <= {format_perm(y)} <= {format_perm(v)}"
        )
    n = len(u)
    rep = _block_reps(n, atom_transpositions(x, y))
    # the covers of y and the cocovers of x inside [u, v]
    pred = _face_pred(n, rep, atom_transpositions(y, v), coatom_transpositions(u, x))
    return rep, sum(1 << r for r in set(rep)), pred


def is_face(x: Perm, y: Perm, u: Perm, v: Perm) -> bool:
    """Combinatorial criterion: [x,y] spans a face of the polytope of
    [u,v] iff the face graph is acyclic."""
    return is_acyclic(face_graph(x, y, u, v))


def face_graphs(I: BruhatInterval, above):
    """(i, j, G) for each pair order[i] <= order[j], by i and then j, G the
    face graph of [order[i], order[j]] as face_graph gives it, read from
    the interval's cover table.  The inner labels t with x < xt <= y fix
    the partition B_{x,y}: above[k] has bit j iff order[k] <= order[j],
    for the upper covers k of each order[i] (intervals.comparabilities).
    Few label sets occur, so the partitions are memoised."""
    n = len(I.u)
    up, down = I.up, I.down
    up_labels = [[t for _k, t in row] for row in up]
    blocks = {}
    for i, row in enumerate(above):
        for j in _bits(row):
            inner = tuple(t for k, t in up[i] if above[k] >> j & 1)
            part = blocks.get(inner)
            if part is None:
                rep = _block_reps(n, inner)
                part = blocks[inner] = rep, sum(1 << r for r in set(rep))
            rep, nodes = part
            yield i, j, (rep, nodes, _face_pred(n, rep, up_labels[j], down[i]))


MAX_FACE_ELEMENTS = 5040  # S_7 [e, w0]; the 545,835 face masks of S_8 would take 2.7 GB


def support(points, blocks):
    """(A, h, F) for every nonempty subset A, a sorted tuple, of each block
    of positions: h = max over the nonnegative integer points p of the sum
    of p[i-1] over i in A, F the bitmask of the points attaining it.  Lane
    k of column i holds p[i-1] for p = points[k]; no sum s reaches a lane's
    top bit, so m - 1 + top - s sets it where s is below its maximum m."""
    N, columns = len(points), list(zip(*points))
    bound = sum(map(max, columns))  # at least every subset sum
    w, code = next(c for c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if 2 * bound < 256 ** c[0])
    cols = [int.from_bytes(array(code, c).tobytes(), sys.byteorder) for c in columns]
    ones = int.from_bytes(array(code, [1] * N).tobytes(), sys.byteorder)
    top = ones << 8 * w - 1
    for B in blocks:
        subsets, sums = [()], [0]
        for i in B:
            subsets += [A + (i,) for A in subsets]
            sums += [s + cols[i - 1] for s in sums]
        for A, s in zip(subsets[1:], sums[1:]):
            m = max(memoryview(s.to_bytes(N * w, sys.byteorder)).cast(code))
            below = (((m - 1) * ones + top - s) & top).to_bytes(N * w, "big")[::w]  # lane N-1 first
            yield A, m, int(below.translate(b"1" * 128 + b"0" * 128), 2)  # top bit clear: 1


def _facets(points, blocks):
    """The facets of the hull of points as bitmasks over points: the maximal
    proper tight sets of support on the subsets of blocks.  The hull is a
    generalized permutohedron, its edges parallel to roots e_a - e_b, so
    each facet maximizes a 0/1 direction (Postnikov 2009)."""
    tight = {F for _A, _h, F in support(points, blocks)} - {(1 << len(points)) - 1}
    facets = []
    for F in sorted(tight, key=int.bit_count, reverse=True):
        if all(F & G != F for G in facets):
            facets.append(F)
    return facets


def require_face_bound(what, N):
    """Refuse, naming what, an interval of N > MAX_FACE_ELEMENTS elements."""
    if N > MAX_FACE_ELEMENTS:
        raise DomainError(f"{what} is bounded to {MAX_FACE_ELEMENTS} elements; the interval has {N}")


def _faces(I: BruhatInterval):
    """(mask, dim) for every face of the polytope of I, the facets closed
    under intersection; it is the product of its projections to the label
    blocks (separators, Fujishige), so each facet's direction is in one.
    A face is the subinterval [x, y] of its vertices; one of 1, 2 or 4
    elements has rank and dim 0, 1 or 2 (a label joins at most two blocks;
    four vertices span a plane).  Any other face has dim n minus the blocks
    of the labels of the covers at x in it, memoised."""
    require_face_bound("face enumeration", len(I))
    n, up, dims = len(I.u), I.up, {}
    blocks = [B for B in label_partition(n, [t for _j, t in up[0]]) if len(B) > 1]
    for F in exactlp.intersections(_facets(I.order, blocks), (1 << len(I)) - 1):
        c = F.bit_count()
        if c > 4:
            inner = tuple(t for k, t in up[(F & -F).bit_length() - 1] if F >> k & 1)
            if inner not in dims:
                dims[inner] = n - len(set(_block_reps(n, inner)))
        yield F, c // 2 if c <= 4 else dims[inner]


def enumerate_faces(u: Perm, v: Perm):
    """All faces as triples (x, y, dim), sorted by (x, y): the face is the
    interval [x, y] of its vertices.  f_vector counts the dims unsorted."""
    I = interval(u, v)
    faces = sorted(((F & -F).bit_length() - 1, F.bit_length() - 1, d) for F, d in _faces(I))
    return [(I.order[i], I.order[j], d) for i, j, d in faces]


def f_vector_of(faces):
    """Face counts by dimension, 0 up to the top face's, of faces given as
    tuples ending in their dim: (x, y, dim) triples or (mask, dim) pairs."""
    counts = Counter(face[-1] for face in faces)
    return tuple(counts[d] for d in range(max(counts) + 1))


def f_vector(u: Perm, v: Perm):
    """The f-vector of enumerate_faces, counted from the dims alone."""
    return f_vector_of(_faces(interval(u, v)))


def normal_cone(x: Perm, y: Perm, u: Perm, v: Perm):
    """Constraint description of the normal cone of the face [x,y], plus a
    witness functional built from integer topological levels.

    Returns (equalities, strict_edges, witness) where equalities are the
    blocks of B_{x,y}, strict_edges are (i, j) meaning w_i < w_j, and
    witness is an integer vector maximized over [u,v] exactly on [x,y].
    """
    G = face_graph(x, y, u, v)
    if not is_acyclic(G):
        raise DomainError(
            f"[{format_perm(x)},{format_perm(y)}] is not a face of"
            f" [{format_perm(u)},{format_perm(v)}]"
        )
    edges = sorted((a, b) for b, bits in enumerate(G[2]) for a in _bits(bits))
    return block_partition(x, y), edges, witness(G)


# ---------------------------------------------------------------------------
# 1-skeleton, diameter, toric criterion, crowns
# ---------------------------------------------------------------------------


def skeleton_diameter(adj):
    """Diameter of the graph with bitset rows adj (bit j of adj[i] for an
    edge i - j); None if the graph is disconnected.  Every ball grows at
    once: after r rounds ball[i] holds the vertices within distance r of
    i, and a round joins i's ball to its neighbours' balls of the round
    before.  The diameter is the number of rounds until every ball is the
    whole vertex set; a round that grows no ball before then means the
    graph is disconnected.  That is diameter * 2E big-int ORs, and two
    generations of rows, N^2/4 bytes for N vertices."""
    full = (1 << len(adj)) - 1
    nbrs = [list(_bits(row)) for row in adj]
    ball = [1 << i for i in range(len(adj))]
    steps = 0
    while ball and min(ball) != full:
        grown = []
        for b, ks in zip(ball, nbrs):
            for k in ks:
                b |= ball[k]
            grown.append(b)
        if grown == ball:
            return None
        ball = grown
        steps += 1
    return steps


def _deep_reach(n, arcs):
    """deep[s], the values that paths of two or more arcs reach from s, for
    arcs s -> t, s < t, on 1..n held as bitsets arcs[s] of the t; an arc
    s -> t is in the transitive reduction iff t is not in deep[s]."""
    reach, deep = [0] * (n + 1), [0] * (n + 1)
    for s in range(n, 0, -1):
        m = arcs[s]
        while m:
            low = m & -m
            deep[s] |= reach[low.bit_length() - 1]
            m ^= low
        reach[s] = deep[s] | arcs[s]
    return deep


def skeleton(I: BruhatInterval):
    """The 1-skeleton of the polytope of I as bitset rows, bit j of row i
    for an edge order[i] - order[j].  Edges are covers, parallel to roots,
    so those at x are the extreme rays of its tangent cone: the arcs, all
    raising the value, x(a) -> x(b) for a cover x(a, b) and x(d) -> x(c)
    for a cocover x(c, d), c < d, that no longer path joins."""
    n, adj = len(I.u), [0] * len(I)
    for i, (x, row, down) in enumerate(zip(I.order, I.up, I.down)):
        arcs = [0] * (n + 1)
        for _j, (a, b) in row:
            arcs[x[a - 1]] |= 1 << x[b - 1]
        for c, d in down:
            arcs[x[d - 1]] |= 1 << x[c - 1]
        deep = _deep_reach(n, arcs)
        for j, (a, b) in row:
            if not deep[x[a - 1]] >> x[b - 1] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def diameter(u: Perm, v: Perm):
    """Diameter of the 1-skeleton; None if it is disconnected.  Refused past
    MAX_FACE_ELEMENTS: the rounds hold two generations of N^2/8 bytes."""
    I = interval(u, v)
    require_face_bound("the diameter", len(I))
    return skeleton_diameter(skeleton(I))


def is_toric(u: Perm, v: Perm) -> bool:
    """Combinatorial stand-in for toricness of the associated variety: the
    polytope has dimension equal to the interval rank.  A maximal chain has
    rank labels whose label partition is the blocks (checks.dimension_pair
    verifies this on every chain), so this is the chain's labels forming a
    forest with no repeated edge, as tests/test_polytopes.py checks."""
    return len(block_partition(u, v)) == len(u) - (length(v) - length(u))


def increasing_cycle_free(n, labels) -> bool:
    """No cycle (v0, v1, ..., v_{k-1}, v0) with v0 < v1 < ... < v_{k-1} in
    the graph on {1..n} with one edge per label (a, b); a repeated label
    counts as an increasing 2-cycle.  With every edge an arc up, such a
    cycle is an arc v0 -> v_{k-1} that a path of k - 1 >= 2 arcs also joins."""
    if len(labels) != len(set(labels)):
        return False
    arcs = [0] * (n + 1)
    for a, b in map(sorted, labels):
        arcs[a] |= 1 << b
    return not any(map(and_, arcs, _deep_reach(n, arcs)))


def crown_type(u: Perm, v: Perm) -> int:
    """For a rank-3 interval, the k for which the interval is the face
    poset of a k-gon; k is always 2, 3, or 4 in S_n."""
    I = interval(u, v)
    if I.rank != 3:
        raise DomainError(f"crown type needs rank 3, got rank {I.rank}")
    lower, upper = hasse(I)
    k = len(upper[u])
    assert len(lower[v]) == k and len(I) == 2 * k + 2
    assert all(len(upper[a]) == 2 for a in upper[u])
    assert all(len(lower[b]) == 2 for b in lower[v])
    assert k in (2, 3, 4)
    return k


# ---------------------------------------------------------------------------
# Minkowski decomposition check (both matroid conventions)
# ---------------------------------------------------------------------------


def minkowski_check(u: Perm, v: Perm, convention: str) -> bool:
    """Is the polytope of [u, v] a translate of the Minkowski sum of its n-1
    interval matroid polytopes?  Both are generalized permutohedra (edges
    parallel to roots), each fixed by its support function on the 0/1
    directions of nonempty A in {1..n} (Postnikov 2009), the sum's being
    sum_k r_k(A).  So they are translates iff h(A) - sum_k r_k(A) is
    additive in A.

    The convention argument selects which matroid family is summed; running
    both sides of the first-values / top-positions discrepancy is the point
    of this check.
    """
    n = len(u)
    I = interval(u, v)
    matroids = interval_matroids(I, convention)
    d = {A: h - rank_sum(matroids, A) for A, h, _F in support(I.order, [range(1, n + 1)])}
    return all(d[A] == sum(d[(i,)] for i in A) for A in d)
