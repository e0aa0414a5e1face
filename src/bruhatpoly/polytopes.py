"""The polytope of an interval [u, v]: convex hull of the permutation
vectors of its elements.

Combinatorial structure is read off the interval itself: the partition of
{1..n} induced by chain labels gives dimension and affine span; matroids of
first values give an inequality description; a small digraph criterion
decides which subintervals give faces; the chain-label graph decides
toricness.  The exact polytope oracle (exactlp module), which computes
faces from the points alone, is the geometric ground truth for all of
this in the tests and suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import exactlp
from .errors import DomainError
from .intervals import (
    BruhatInterval,
    atom_transpositions,
    chain_transpositions,
    chain_via_coatoms,
    coatom_transpositions,
    interval,
    require_leq,
)
from .perms import Perm, bruhat_leq, format_perm, is_cover, length


# ---------------------------------------------------------------------------
# labeled graphs and set partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph on {1..n}; the edge multiset is retained so that
    forest tests can detect multiple edges."""

    n: int
    edges: tuple  # tuple of (a, b) pairs with a < b, repeats allowed

    @property
    def simple_edges(self) -> frozenset:
        return frozenset(self.edges)

    def components(self):
        return _components(self.n, self.edges)

    def is_forest(self) -> bool:
        """Forest with no multiple edges: every edge must join two
        previously distinct components."""
        return self.n - len(self.components()) == len(self.edges)


def _components(n, edges):
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(b)) for b in sorted(blocks.values()))


def format_partition(blocks) -> str:
    """Render a partition in bar notation, e.g. |1|234|."""
    return "|" + "|".join("".join(str(i) for i in b) for b in blocks) + "|"


def chain_graph(chain) -> LabeledGraph:
    """The labeled graph of a maximal chain: one edge per cover label."""
    for x, y in zip(chain, chain[1:]):
        if not is_cover(x, y):
            raise DomainError("chain is not maximal (non-cover step)")
    return LabeledGraph(len(chain[0]), tuple(chain_transpositions(chain)))


def atom_graph(u: Perm, v: Perm) -> LabeledGraph:
    return LabeledGraph(len(u), tuple(atom_transpositions(u, v)))


def coatom_graph(u: Perm, v: Perm) -> LabeledGraph:
    return LabeledGraph(len(u), tuple(coatom_transpositions(u, v)))


def block_partition(u: Perm, v: Perm):
    """The partition of {1..n} whose blocks are the components of the atom
    graph; chain-independence makes this equal to the components of any
    maximal chain's graph, and of the coatom graph."""
    require_leq(u, v)
    return atom_graph(u, v).components()


# ---------------------------------------------------------------------------
# vertices, dimension, affine span
# ---------------------------------------------------------------------------


def vertices(u: Perm, v: Perm):
    """Permutation vectors of the interval elements, sorted; each is a
    vertex of the hull since permutation vectors are extreme in the
    permutohedron."""
    return list(interval(u, v).order)


def dimension(u: Perm, v: Perm) -> int:
    return len(u) - len(block_partition(u, v))


def affine_span_equations(u: Perm, v: Perm):
    """One equation sum_{i in B} x_i = sum_{i in B} u_i per block B."""
    eqs = []
    for block in block_partition(u, v):
        coeffs = [1 if i in block else 0 for i in range(1, len(u) + 1)]
        rhs = sum(u[i - 1] for i in block)
        assert rhs == sum(v[i - 1] for i in block)
        eqs.append((tuple(coeffs), rhs))
    return eqs


# ---------------------------------------------------------------------------
# matroids and the inequality description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matroid:
    n: int
    k: int
    bases: frozenset  # frozensets of size k

    def rank(self, A) -> int:
        A = frozenset(A)
        return max(len(A & B) for B in self.bases)


def _check_exchange(bases):
    for I in bases:
        for J in bases:
            if I == J:
                continue
            for i in I - J:
                if not any((I - {i}) | {j} in bases for j in J - I):
                    return False
    return True


def interval_matroid(u: Perm, v: Perm, k: int, convention: str = "first-values") -> Matroid:
    """The rank-k matroid swept out by the interval.

    Two conventions appear side by side deliberately (see minkowski_check):
      first-values:  bases are the first k values {z(1), ..., z(k)},
      top-positions: bases are the positions of the top k values
                     {z^{-1}(n), ..., z^{-1}(n-k+1)}.
    """
    n = len(u)
    if not 1 <= k <= n - 1:
        raise DomainError(f"matroid index k={k} out of range for n={n}")
    bases = set()
    for z in interval(u, v).elements:
        if convention == "first-values":
            bases.add(frozenset(z[:k]))
        elif convention == "top-positions":
            bases.add(frozenset(z.index(n - a) + 1 for a in range(k)))
        else:
            raise DomainError(f"unknown matroid convention: {convention!r}")
    bases = frozenset(bases)
    if not _check_exchange(bases):
        raise AssertionError(
            f"basis exchange fails for [{format_perm(u)},{format_perm(v)}], k={k}, {convention}"
        )
    return Matroid(n, k, bases)


@dataclass(frozen=True)
class PolytopeDescription:
    vertices: tuple  # integer vectors
    equalities: tuple  # (coeff vector, rhs)
    inequalities: tuple  # (subset A as tuple, rhs) meaning sum_{i in A} x_i <= rhs

    def satisfied_by(self, w: Perm) -> bool:
        """Membership test for a permutation w.

        The equalities hold on the vector (w(1), ..., w(n)).  The
        inequality right-hand sides bound the first-values statistics of
        w: for each subset A,

            sum_{i in A} (n - w^{-1}(i))  =  sum_k |A ∩ {w(1), ..., w(k)}|,

        which is at most sum_k r_{M_k}(A) exactly when every initial value
        set of w is a basis of the corresponding interval matroid.  (Read
        directly on the vector w the displayed system would contradict its
        own equality line; this coordinatization is the one in which the
        description is exact.)
        """
        n = len(w)
        pos = [0] * (n + 1)
        for i, a in enumerate(w, start=1):
            pos[a] = i
        y = [n - pos[i] for i in range(1, n + 1)]
        return all(
            sum(c * x for c, x in zip(coeffs, w)) == rhs
            for coeffs, rhs in self.equalities
        ) and all(
            sum(y[i - 1] for i in subset) <= rhs
            for subset, rhs in self.inequalities
        )

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
    """
    n = len(u)
    matroids = [interval_matroid(u, v, k, "first-values") for k in range(1, n)]
    ineqs = []
    for size in range(1, n):
        for A in combinations(range(1, n + 1), size):
            rhs = sum(M.rank(A) for M in matroids)
            ineqs.append((A, rhs))
    desc = PolytopeDescription(
        vertices=tuple(vertices(u, v)),
        equalities=(((1,) * n, n * (n + 1) // 2),),
        inequalities=tuple(ineqs),
    )
    assert all(desc.satisfied_by(p) for p in desc.vertices)
    return desc


# ---------------------------------------------------------------------------
# the face criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceGraph:
    """Digraph on the blocks of the inner partition B_{x,y}.

    rep maps each i in {1..n} to the smallest element of its block; edges
    are directed pairs of representatives.  A directed edge whose endpoints
    merged into one node is recorded as a self-loop, which counts as a
    cycle (it cannot be consistently ordered).
    """

    n: int
    rep: tuple  # rep[i-1] = representative of i's block
    edges: frozenset  # directed pairs of representatives, repeats collapsed

    def nodes(self):
        return sorted(set(self.rep))

    def topological_levels(self):
        """Kahn order with smallest-representative tie-break: a dict
        node -> level usable as a normal-cone witness, or None when the
        graph has a directed cycle."""
        succ = {node: [] for node in self.nodes()}
        indeg = dict.fromkeys(succ, 0)
        for a, b in self.edges:
            succ[a].append(b)
            indeg[b] += 1
        levels = {}
        ready = sorted(node for node, d in indeg.items() if d == 0)
        while ready:
            node = ready.pop(0)
            levels[node] = len(levels)
            for b in succ[node]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
            ready.sort()
        return levels if len(levels) == len(succ) else None

    def is_acyclic(self) -> bool:
        return self.topological_levels() is not None

    def witness(self):
        """An integer functional maximized over [u, v] exactly on the face
        of an acyclic face graph: each coordinate is the topological level
        of its block."""
        levels = self.topological_levels()
        return tuple(levels[r] for r in self.rep)


def _require_nested(x, y, u, v):
    if not (bruhat_leq(u, x) and bruhat_leq(x, y) and bruhat_leq(y, v)):
        raise DomainError(
            f"need {format_perm(u)} <= {format_perm(x)} <= {format_perm(y)} <= {format_perm(v)}"
        )


def _face_graph(n, inner, up_y, down_x) -> FaceGraph:
    """The face graph of [x, y] inside [u, v] from cover labels.

    inner: the labels t with x < xt <= y; their graph's components are the
    blocks of B_{x,y}.  up_y: the labels of the covers of y inside [u, v].
    down_x: the labels of the cocovers of x inside [u, v].
    """
    rep = [0] * n
    for block in _components(n, inner):
        for i in block:
            rep[i - 1] = block[0]
    edges = {(rep[i - 1], rep[j - 1]) for i, j in up_y}
    edges.update((rep[j - 1], rep[i - 1]) for i, j in down_x)
    return FaceGraph(n, tuple(rep), frozenset(edges))


def face_graph(x: Perm, y: Perm, u: Perm, v: Perm) -> FaceGraph:
    _require_nested(x, y, u, v)
    return _face_graph(
        len(u),
        atom_transpositions(x, y),
        atom_transpositions(y, v),  # covers of y inside [u,v]
        coatom_transpositions(u, x),  # cocovers of x inside [u,v]
    )


def is_face(x: Perm, y: Perm, u: Perm, v: Perm) -> bool:
    """Combinatorial criterion: [x,y] spans a face of the polytope of
    [u,v] iff the face graph is acyclic."""
    return face_graph(x, y, u, v).is_acyclic()


def face_graphs(I: BruhatInterval):
    """(i, j, G) for every pair order[i] <= order[j] of the interval's cover
    table, in (i, j) order, with G the face graph of that subinterval."""
    n = len(I.u)
    above, up, down = I.above, I.up, I.down
    up_labels = [[t for _k, t in row] for row in up]
    for i, j in I.pairs():
        inner = [t for k, t in up[i] if above[k] >> j & 1]
        yield i, j, _face_graph(n, inner, up_labels[j], down[i])


def enumerate_faces(u: Perm, v: Perm):
    """All faces as triples (x, y, dim), one for each pair x <= y in [u, v]
    that passes the face criterion, sorted by (x, y, dim); every pair is
    read from the interval's cover table.  A face is fixed by its Bruhat
    minimum and maximum, so no two triples share a vertex set.  Counting by
    dim gives the f-vector."""
    I = interval(u, v)
    n = len(u)
    return [
        (I.order[i], I.order[j], n - len(G.nodes()))
        for i, j, G in face_graphs(I)
        if G.is_acyclic()
    ]


def f_vector_of(faces, top: int):
    """Face counts by dimension 0..top of a list of (x, y, dim) triples."""
    counts = [0] * (top + 1)
    for _x, _y, d in faces:
        counts[d] += 1
    return tuple(counts)


def f_vector(u: Perm, v: Perm):
    return f_vector_of(enumerate_faces(u, v), dimension(u, v))


def normal_cone(x: Perm, y: Perm, u: Perm, v: Perm):
    """Constraint description of the normal cone of the face [x,y], plus a
    witness functional built from integer topological levels.

    Returns (equalities, strict_edges, witness) where equalities are the
    blocks of B_{x,y}, strict_edges are (i, j) meaning w_i < w_j, and
    witness is an integer vector maximized over [u,v] exactly on [x,y].
    """
    G = face_graph(x, y, u, v)
    if not G.is_acyclic():
        raise DomainError(
            f"[{format_perm(x)},{format_perm(y)}] is not a face of"
            f" [{format_perm(u)},{format_perm(v)}]"
        )
    return block_partition(x, y), sorted(G.edges), G.witness()


# ---------------------------------------------------------------------------
# 1-skeleton, diameter, toric criterion, crowns
# ---------------------------------------------------------------------------


def _skeleton(u: Perm, v: Perm):
    """The sorted elements of [u, v] and the index pairs (i, j), sorted, of
    its covers that span polytope edges.  For a cover x < y the only label
    t with x < xt <= y is the cover's own."""
    I = interval(u, v)
    up, down = I.up, I.down
    edges = [
        (i, j)
        for i, row in enumerate(up)
        for j, t in row
        if _face_graph(len(u), [t], [s for _k, s in up[j]], down[i]).is_acyclic()
    ]
    return I.order, edges


def skeleton_edges(u: Perm, v: Perm):
    """Cover pairs of the interval that span polytope edges."""
    order, edges = _skeleton(u, v)
    return [(order[i], order[j]) for i, j in edges]


def diameter(u: Perm, v: Perm) -> int:
    """Graph diameter of the 1-skeleton (BFS from every vertex)."""
    order, edges = _skeleton(u, v)
    adj = [[] for _ in order]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    best = 0
    for start in range(len(order)):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if len(dist) != len(order):
            raise AssertionError("1-skeleton is disconnected")
        best = max(best, max(dist.values()))
    return best


def is_toric(u: Perm, v: Perm) -> bool:
    """Combinatorial stand-in for toricness of the associated variety:
    the polytope has dimension equal to the interval rank, equivalently the
    chain graph of any (hence every) maximal chain is a forest without
    multiple edges."""
    n = len(u)
    rank = length(v) - length(u)
    verdict = len(block_partition(u, v)) == n - rank
    if verdict != chain_graph(chain_via_coatoms(interval(u, v))).is_forest():
        raise AssertionError("block-count and chain-forest criteria disagree")
    return verdict


def increasing_cycle_free(G: LabeledGraph) -> bool:
    """No cycle (v0, v1, ..., v_{k-1}, v0) with v0 < v1 < ... < v_{k-1};
    a doubled edge counts as an increasing 2-cycle."""
    if len(G.edges) != len(G.simple_edges):
        return False
    adj = {i: set() for i in range(1, G.n + 1)}
    for a, b in G.simple_edges:
        adj[a].add(b)
        adj[b].add(a)

    def grows(path):
        last = path[-1]
        if len(path) >= 3 and path[0] in adj[last]:
            return True
        return any(grows(path + [b]) for b in adj[last] if b > last)

    return not any(grows([a]) for a in adj)


def crown_type(u: Perm, v: Perm) -> int:
    """For a rank-3 interval, the k for which the interval is the face
    poset of a k-gon; k is always 2, 3, or 4 in S_n."""
    I = interval(u, v)
    if I.rank != 3:
        raise DomainError(f"crown type needs rank 3, got rank {I.rank}")
    mids = sorted(I.elements - {u, v})
    lower = [z for z in mids if length(z) == length(u) + 1]
    upper = [z for z in mids if length(z) == length(u) + 2]
    k = len(lower)
    covers = I.covers
    assert len(upper) == k and len(I) == 2 * k + 2
    assert all(sum((a, b) in covers for b in upper) == 2 for a in lower)
    assert all(sum((a, b) in covers for a in lower) == 2 for b in upper)
    assert k in (2, 3, 4)
    return k


# ---------------------------------------------------------------------------
# Minkowski decomposition check (both matroid conventions)
# ---------------------------------------------------------------------------


def _indicator(subset, n):
    return tuple(1 if i in subset else 0 for i in range(1, n + 1))


def _translate_to_origin(points):
    mins = [min(p[i] for p in points) for i in range(len(points[0]))]
    return sorted(tuple(a - m for a, m in zip(p, mins)) for p in points)


def minkowski_check(u: Perm, v: Perm, convention: str = "top-positions") -> bool:
    """Does the Minkowski sum of the n-1 interval matroid polytopes equal
    the interval polytope?  Compared after translating both vertex sets so
    their coordinate-wise minima are zero, since the summands live on a
    different hyperplane.

    The convention argument selects which matroid family is summed; running
    both sides of the first-values / top-positions discrepancy is the point
    of this check.
    """
    n = len(u)
    if n > 4:
        raise DomainError("minkowski_check is guarded to n <= 4")
    matroids = [interval_matroid(u, v, k, convention) for k in range(1, n)]
    sums = {
        tuple(sum(col) for col in zip(*(_indicator(B, n) for B in choice)))
        for choice in product(*(sorted(M.bases, key=sorted) for M in matroids))
    }
    sum_vertices = exactlp.extreme_points(sorted(sums))
    return _translate_to_origin(sum_vertices) == _translate_to_origin(vertices(u, v))
