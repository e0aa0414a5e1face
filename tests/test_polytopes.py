import random
from collections import Counter, deque
from itertools import combinations, product
from math import comb, factorial

import pytest

from bruhatpoly import exactlp, polytopes
from bruhatpoly.checks import comparable_pairs, sampled_pairs
from bruhatpoly.errors import DomainError, NotComparableError
from bruhatpoly.intervals import (
    _bits,
    atom_transpositions,
    chain_via_coatoms,
    coatom_transpositions,
    comparabilities,
    interval,
)
from bruhatpoly.perms import (
    all_perms,
    bruhat_leq,
    covers_up,
    identity,
    length,
    longest_element,
    parse_perm,
)
from bruhatpoly.polytopes import (
    bip_inequalities,
    block_partition,
    crown_type,
    diameter,
    dimension,
    enumerate_faces,
    f_vector,
    face_graphs,
    format_partition,
    increasing_cycle_free,
    interval_matroids,
    is_acyclic,
    is_face,
    is_toric,
    label_partition,
    minkowski_check,
    normal_cone,
    rank_sum,
    skeleton,
    skeleton_diameter,
    vertices,
)

P = parse_perm


def test_dimension_examples():
    assert dimension(P("1234"), P("1432")) == 2
    assert format_partition(block_partition(P("1234"), P("1432"))) == "|1|234|"
    assert dimension(P("1234"), P("3412")) == 3
    assert format_partition(block_partition(P("1234"), P("3412"))) == "|1234|"


def test_dimension_matches_affine_rank():
    for u, v in [
        (P("1234"), P("4321")),
        (P("1324"), P("2431")),
        (P("2143"), P("3241")),
        (P("1234"), P("1234")),
    ]:
        assert dimension(u, v) == exactlp.affine_rank(vertices(u, v))


def test_partition_is_chain_independent(maximal_chains):
    u, v = P("1324"), P("4231")
    chains = maximal_chains(u, v)
    assert len(chains) > 2
    assert {label_partition(4, labels) for _chain, labels in chains} == {block_partition(u, v)}


def test_vertices_are_interval_permutations():
    u, v = P("1324"), P("2431")
    assert set(vertices(u, v)) == set(interval(u, v).order)


def test_bip_inequalities_golden_example():
    desc = bip_inequalities(P("1324"), P("2431"))
    assert desc.equalities == (((1, 1, 1, 1), 10),)
    assert dict(desc.inequalities) == {
        (1,): 3,
        (2,): 3,
        (3,): 2,
        (4,): 2,
        (1, 2): 4,
        (1, 3): 5,
        (1, 4): 5,
        (2, 3): 5,
        (2, 4): 5,
        (3, 4): 3,
        (1, 2, 3): 6,
        (1, 2, 4): 6,
        (1, 3, 4): 6,
        (2, 3, 4): 6,
    }


def test_bip_inequalities_exact_membership():
    u, v = P("1324"), P("2431")
    desc = bip_inequalities(u, v)
    for w in all_perms(4):
        inside = bruhat_leq(u, w) and bruhat_leq(w, v)
        assert _satisfied_by_prefixes(desc, w) == inside


def _satisfied_by_prefixes(desc, w):
    """Is w inside desc?  The equalities on w, and each bound on the flag
    coordinates y_a = n - w^{-1}(a), which satisfy
    sum_{a in A} y_a = sum_{k=1}^{n-1} |A ∩ {w(1), ..., w(k)}|."""
    prefixes = [set(w[:k]) for k in range(1, len(w))]
    return all(
        sum(c * x for c, x in zip(coeffs, w)) == rhs for coeffs, rhs in desc.equalities
    ) and all(
        sum(len(P.intersection(subset)) for P in prefixes) <= rhs
        for subset, rhs in desc.inequalities
    )


def _mask(B):
    return sum(1 << a for a in B)


def test_interval_matroid_ranks():
    M1, M2, _M3 = interval_matroids(interval(P("1324"), P("2431")), "first-values")
    assert M1 == {_mask({1}), _mask({2})}
    assert M2 == {_mask(B) for B in ({1, 3}, {1, 4}, {2, 3}, {2, 4})}
    assert rank_sum([M2], (1, 2)) == 1
    assert rank_sum([M2], (3, 4)) == 1
    assert rank_sum([M2], (1, 3)) == 2
    assert rank_sum([M1, M2], (1, 3)) == 3


def _sequence(z, convention):
    """z(1), z(2), ..., z(n), or z^{-1}(n), z^{-1}(n-1), ..., z^{-1}(2)."""
    n = len(z)
    return list(z) if convention == "first-values" else [z.index(n - a) + 1 for a in range(n - 1)]


def _interval_matroid(u, v, k, convention):
    """Reference: the bases of the rank-k matroid swept out by [u, v], as
    bitmasks, built for this k alone from the element set."""
    return frozenset(_mask(_sequence(z, convention)[:k]) for z in interval(u, v).order)


def test_interval_matroids_match_the_per_k_reference():
    """Every pair u <= v of S_4 and S_5, u = v included, 50 sampled pairs
    of S_6 and S_2's two intervals, both conventions."""
    pairs = [(z, z) for n in (2, 4, 5) for z in all_perms(n)]
    pairs += [*comparable_pairs(2), *comparable_pairs(4), *comparable_pairs(5)]
    pairs += sampled_pairs(6, 50, 7)
    assert len(pairs) == 2 + 1 + 24 + 189 + 120 + 3661 + 50
    for u, v in pairs:
        I = interval(u, v)
        for conv in ("first-values", "top-positions"):
            expected = [_interval_matroid(u, v, k, conv) for k in range(1, len(u))]
            assert interval_matroids(I, conv) == expected, (u, v, conv)


def test_rank_sum_matches_the_prefix_sets():
    """rank_sum against sum_k max_z |A ∩ {first k entries of z's
    sequence}| from plain sets: every pair of S_4 and 200 sampled pairs of
    S_5, both conventions, every nonempty A."""
    for u, v in (*comparable_pairs(4), *sampled_pairs(5, 200, 7)):
        n, I = len(u), interval(u, v)
        for conv in ("first-values", "top-positions"):
            seqs = [_sequence(z, conv) for z in I.order]
            matroids = interval_matroids(I, conv)
            for size in range(1, n + 1):
                for A in combinations(range(1, n + 1), size):
                    expected = sum(
                        max(len(set(A) & set(seq[:k])) for seq in seqs) for k in range(1, n)
                    )
                    assert rank_sum(matroids, A) == expected, (u, v, conv, A)


def test_interval_matroids_of_s2_is_one_matroid():
    I = interval((1, 2), (2, 1))
    assert interval_matroids(I, "first-values") == [frozenset({_mask({1}), _mask({2})})]
    assert interval_matroids(I, "top-positions") == interval_matroids(I, "first-values")
    assert interval_matroids(interval((2, 1), (2, 1)), "top-positions") == [
        frozenset({_mask({1})})
    ]


def test_interval_matroids_refuse_an_unknown_convention():
    with pytest.raises(DomainError, match="unknown matroid convention: 'bogus'"):
        interval_matroids(interval(P("1324"), P("2431")), "bogus")


def test_face_criterion_matches_lp_oracle():
    u, v = P("1243"), P("4132")
    V = vertices(u, v)
    elems = interval(u, v).order
    for x in elems:
        for y in elems:
            if not bruhat_leq(x, y):
                continue
            S = interval(x, y).order
            assert is_face(x, y, u, v) == exactlp.is_face(S, V)


def test_face_example_acyclic_graph():
    assert is_face(P("2143"), P("4132"), P("1243"), P("4132"))


def test_enumerate_faces_and_f_vector():
    u, v = P("1243"), P("4132")
    faces = enumerate_faces(u, v)
    assert (P("2143"), P("4132")) in {(x, y) for x, y, _ in faces}
    assert tuple(f_vector(u, v)) == (8, 12, 6, 1)
    for x, y, d in faces:
        assert d == dimension(x, y)


def test_enumerate_faces_matches_face_criterion():
    """On all of S_4 (u = v included) and seeded S_5 pairs: the faces are
    exactly the pairs x <= y passing is_face, in (x, y) order, with the
    dimension of [x, y], and the f-vector satisfies Euler's relation."""
    pairs = (
        [(z, z) for z in all_perms(4)]
        + list(comparable_pairs(4))
        + list(sampled_pairs(5, 200, seed=11))
    )
    for u, v in pairs:
        els = interval(u, v).order
        expected = [
            (x, y) for x in els for y in els
            if bruhat_leq(x, y) and is_face(x, y, u, v)
        ]
        faces = enumerate_faces(u, v)
        assert [(x, y) for x, y, _ in faces] == expected
        assert all(d == dimension(x, y) for x, y, d in faces)
        f = f_vector(u, v)
        assert len(f) == dimension(u, v) + 1
        assert sum((-1) ** i * c for i, c in enumerate(f)) == 1


@pytest.fixture(scope="module")
def lattices():
    """(u, v, V, lattice, up, down) on all pairs u <= v of S_4 and seeded
    S_5 pairs: the face lattice of V comes from exactlp, which shares no
    code with the face criterion, and up[x] & down[y] is the vertex set of
    [x, y] by bruhat_leq alone."""
    pairs = (
        [(z, z) for z in all_perms(4)]
        + list(comparable_pairs(4))
        + list(sampled_pairs(5, 200, seed=5))
    )
    out = []
    for u, v in pairs:
        V = [z for z in all_perms(len(u)) if bruhat_leq(u, z) and bruhat_leq(z, v)]
        up = {x: frozenset(z for z in V if bruhat_leq(x, z)) for x in V}
        down = {y: frozenset(z for z in V if bruhat_leq(z, y)) for y in V}
        uniq, masks = exactlp.face_lattice(V)
        lattice = {frozenset(z for k, z in enumerate(uniq) if F >> k & 1) for F in masks}
        out.append((u, v, V, lattice, up, down))
    return out


def test_enumerate_faces_is_the_exactlp_lattice(lattices):
    for u, v, _V, lattice, up, down in lattices:
        found = [up[x] & down[y] for x, y, _d in enumerate_faces(u, v)]
        assert len(found) == len(lattice)
        assert set(found) == lattice


def test_face_dims_are_exactlp_affine_ranks(lattices):
    for u, v, _V, _lattice, up, down in lattices:
        for x, y, d in enumerate_faces(u, v):
            assert d == exactlp.affine_rank(sorted(up[x] & down[y]))


def test_diameter_is_bfs_over_exactlp_edges(lattices):
    for u, v, V, lattice, _up, _down in lattices:
        adj = {z: [] for z in V}
        for F in lattice:
            if len(F) == 2:
                a, b = F
                adj[a].append(b)
                adj[b].append(a)
        eccentricities = []
        for start in V:
            dist = {start: 0}
            queue = [start]
            for a in queue:
                for b in adj[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        queue.append(b)
            assert len(dist) == len(V)
            eccentricities.append(max(dist.values()))
        assert diameter(u, v) == max(eccentricities)


def test_f_vector_s6_full_interval():
    assert f_vector(identity(6), longest_element(6)) == (720, 1800, 1560, 540, 62, 1)


def _criterion_faces(u, v):
    """The pairs x <= y of [u, v] whose face graph is acyclic, in (x, y)
    order, with the dimension of [x, y]."""
    I = interval(u, v)
    above, _below = comparabilities(I)
    return [
        (I.order[i], I.order[j], dimension(I.order[i], I.order[j]))
        for i, j, G in face_graphs(I, above) if is_acyclic(G)
    ]


def test_facet_closure_is_the_criterion_past_s5():
    """On seeded S_6 and S_7 pairs the facets closed under intersection
    give exactly the criterion's faces, and the f-vector satisfies Euler's
    relation."""
    for u, v in sampled_pairs(6, 40, seed=3) + sampled_pairs(7, 3, seed=3):
        faces = enumerate_faces(u, v)
        assert faces == _criterion_faces(u, v), (u, v)
        f = f_vector(u, v)
        assert len(f) == dimension(u, v) + 1
        assert sum((-1) ** i * c for i, c in enumerate(f)) == 1


def test_facet_closure_with_values_past_one_byte():
    """At n = 100 a sum of values can reach a byte's top bit, so the lanes
    take two bytes: the hexagon on positions 1-3 (values 1, 50, 100) times
    the segment on positions 4-5 (values 2, 99) is a hexagonal prism."""
    rest = tuple(a for a in range(1, 101) if a not in (1, 50, 100, 2, 99))
    u, v = (1, 50, 100, 2, 99, *rest), (100, 50, 1, 99, 2, *rest)
    assert enumerate_faces(u, v) == _criterion_faces(u, v)
    assert f_vector(u, v) == (12, 18, 8, 1)


def _stirling2(n, k):
    """Stirling numbers of the second kind, S(n, k), by the recurrence
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)]
    return row[k]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_f_vector_of_the_permutohedron(n):
    """Q_{e,w0} is the permutohedron, whose k-faces are the ordered set
    partitions of {1..n} into n - k blocks: f_k = (n-k)! S(n, n-k)."""
    expected = tuple(factorial(n - k) * _stirling2(n, n - k) for k in range(n))
    assert f_vector(identity(n), longest_element(n)) == expected


def test_f_vector_of_a_cube():
    """[e, s1 s3 ... s15] in S_16 is boolean of rank 8 with one block per
    transposition, so its polytope is the 8-cube: f_k = C(8, k) 2^(8-k)."""
    v = tuple(a - (-1) ** a for a in range(1, 17))
    assert f_vector(identity(16), v) == tuple(comb(8, k) * 2 ** (8 - k) for k in range(9))


def test_face_enumeration_is_bounded(monkeypatch):
    monkeypatch.setattr(polytopes, "MAX_FACE_ELEMENTS", 5)
    assert len(enumerate_faces(P("123"), P("231"))) == 9  # a square: 4 elements
    with pytest.raises(
        DomainError, match=r"^face enumeration is bounded to 5 elements; the interval has 6$"
    ):
        f_vector(identity(3), longest_element(3))


def test_face_enumeration_builds_only_its_own_interval():
    u, v = identity(5), longest_element(5)
    interval.cache_clear()
    assert dimension(u, v) == 4
    assert interval.cache_info().currsize == 0
    enumerate_faces(u, v)
    assert interval.cache_info().currsize <= 1


def test_block_partition_rejects_incomparable():
    with pytest.raises(NotComparableError, match=r"^2431 is not <= 1324 in Bruhat order$"):
        block_partition(P("2431"), P("1324"))


def test_normal_cone_witness_exposes_face():
    """On every face of every S_4 interval (u = v included), the witness
    functional's argmax over the vertices is exactly the face [x, y]; the
    argmax shares no code with the LP face oracle."""
    pairs = [(z, z) for z in all_perms(4)] + list(comparable_pairs(4))
    assert len(pairs) == 213
    checked = 0
    for u, v in pairs:
        V = vertices(u, v)
        for x, y, _d in enumerate_faces(u, v):
            _, _, witness = normal_cone(x, y, u, v)
            exposed = exactlp.face_vertices(witness, V)
            assert {z for k, z in enumerate(V) if exposed >> k & 1} == set(interval(x, y).order)
            checked += 1
    assert checked == 2969 + 24  # the pairs u < v, then one face per u = v


def test_diameter_equals_rank():
    for u, v in [
        (P("1234"), P("4321")),
        (P("1243"), P("4132")),
        (P("1324"), P("2431")),
    ]:
        assert diameter(u, v) == length(v) - length(u)
        # every polytope edge spans a cover
        assert all(len(interval(x, y)) == 2 for x, y, d in enumerate_faces(u, v) if d == 1)


def _rows(n, edges):
    """Bitset rows of the graph on range(n) with the given edges."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


@pytest.mark.parametrize(
    "adj, expected",
    [
        ([], 0),
        (_rows(1, []), 0),
        (_rows(2, []), None),
        (_rows(2, [(0, 1)]), 1),
        (_rows(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4),
        (_rows(9, [(3, 7), (7, 1), (1, 8), (8, 0), (0, 5), (5, 2), (2, 6), (6, 4)]), 8),
        (_rows(7, [(i, (i + 1) % 7) for i in range(7)]), 3),
        (_rows(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]), None),
        (_rows(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), 2),
    ],
)
def test_skeleton_diameter_on_hand_built_graphs(adj, expected):
    assert skeleton_diameter(adj) == expected


def _bfs_diameter(adj):
    """Diameter by a breadth-first search from every vertex over neighbour
    lists read bit by bit; None if some vertex is not reached."""
    n = len(adj)
    nbrs = [[j for j in range(n) if row >> j & 1] for row in adj]
    best = 0
    for start in range(n):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in nbrs[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def test_skeleton_diameter_matches_a_reference_bfs():
    pairs = (
        list(comparable_pairs(4))
        + list(comparable_pairs(5))[::25]
        + list(sampled_pairs(6, 20, 7))
    )
    assert len(pairs) == 189 + 147 + 20
    for u, v in pairs:
        adj = skeleton(interval(u, v))
        assert skeleton_diameter(adj) == _bfs_diameter(adj) == length(v) - length(u)


def test_skeleton_edges_are_the_two_vertex_faces():
    """The 1-skeleton against the double-description face lattice of
    exactlp, which never reads a cover label: on every comparable pair of
    S_4 and 30 seeded S_5 pairs its edges are the faces with two vertices."""
    pairs = comparable_pairs(4) + sampled_pairs(5, 30, 7)
    for u, v in pairs:
        I = interval(u, v)
        V, lattice = exactlp.face_lattice(I.order)
        assert V == list(I.order)
        edges = {1 << i | 1 << j for i, row in enumerate(skeleton(I)) for j in _bits(row)}
        assert edges == {F for F in lattice if F.bit_count() == 2}, (u, v)


def test_diameter_of_s6_is_its_rank():
    assert diameter(identity(6), longest_element(6)) == 15


def test_toric_and_crown():
    # rank-3 interval with a 3-crown face poset is toric
    u, v = P("1243"), P("4132")
    assert is_toric(u, v) == (crown_type(u, v) in (3, 4))
    assert increasing_cycle_free(4, atom_transpositions(u, v))
    assert increasing_cycle_free(4, coatom_transpositions(u, v))


def test_increasing_cycle_free_against_brute_force():
    # every simple graph on 3..5 vertices (8 + 64 + 1,024): an increasing
    # cycle is a vertex set, listed ascending, whose consecutive members and
    # last and first are adjacent
    graphs = 0
    for n in (3, 4, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            labels = [p for k, p in enumerate(pairs) if mask >> k & 1]
            edge = set(labels).__contains__
            cycle = any(
                all(edge(p) for p in zip(s, s[1:])) and edge((s[0], s[-1]))
                for size in range(3, n + 1) for s in combinations(range(1, n + 1), size)
            )
            assert increasing_cycle_free(n, labels) == (not cycle), (n, labels)
            graphs += 1
    assert graphs == 1096
    # a repeated label is an increasing 2-cycle
    assert increasing_cycle_free(3, [(1, 2), (2, 3)])
    assert not increasing_cycle_free(3, [(1, 2), (2, 3), (1, 2)])


def test_toric_forest_and_vertex_inequalities_on_sampled_pairs():
    # is_toric is the block count alone: it must agree with the labels of a
    # maximal chain forming a forest with no repeated edge; and every
    # vertex must satisfy the inequality description
    for n, sample in ((5, 300), (6, 100)):
        for u, v in sampled_pairs(n, sample, 7):
            chain = chain_via_coatoms(interval(u, v))
            labels = [dict(covers_up(x))[y] for x, y in zip(chain, chain[1:])]
            forest = len(set(labels)) == len(labels) == n - len(label_partition(n, labels))
            assert is_toric(u, v) == forest, (u, v)
            desc = bip_inequalities(u, v)
            assert all(_satisfied_by_prefixes(desc, w) for w in desc.vertices), (u, v)


def test_crown_type_requires_rank_three():
    with pytest.raises(DomainError):
        crown_type(P("1234"), P("3412"))  # rank 4


@pytest.mark.parametrize("most", [10, 300, 70000])
def test_support_is_the_max_and_argmax_of_each_subset_sum(most):
    # coordinates below most take one-, two- and four-byte lanes
    rng = random.Random(most)
    points = [tuple(rng.randrange(most) for _ in range(5)) for _ in range(40)]
    blocks = [(1, 3, 4), (2,), (5,)]
    expected = {}
    for B in blocks:
        for size in range(1, len(B) + 1):
            for A in combinations(B, size):
                sums = [sum(p[i - 1] for i in A) for p in points]
                h = max(sums)
                expected[A] = h, sum(1 << k for k, s in enumerate(sums) if s == h)
    got = {A: (h, F) for A, h, F in polytopes.support(points, blocks)}
    assert got == expected


def _minkowski_by_points(u, v, convention, extreme_points):
    """The Minkowski sum of the interval matroid polytopes from its points:
    every sum of one basis per matroid, then its extreme points, compared
    with the vertices of [u, v] after translating both to the origin;
    None when the distinct sums exceed the oracle's MAX_POINTS."""
    n = len(u)
    matroids = interval_matroids(interval(u, v), convention)
    sums = {
        tuple(sum(b >> i & 1 for b in choice) for i in range(1, n + 1))
        for choice in product(*matroids)
    }
    if len(sums) > exactlp.MAX_POINTS:
        return None

    def at_origin(points):
        mins = [min(p[i] for p in points) for i in range(n)]
        return sorted(tuple(a - m for a, m in zip(p, mins)) for p in points)

    return at_origin(extreme_points(sorted(sums))) == at_origin(vertices(u, v))


def test_minkowski_check_matches_the_sum_of_points(extreme_points):
    """The support-function judgment against the sum built from points, on
    every pair of S_4 and 60 sampled pairs of S_5, both conventions."""
    cases = [(pair, conv) for pair in (*comparable_pairs(4), *sampled_pairs(5, 60, 7))
             for conv in ("first-values", "top-positions")]
    compared = Counter()
    for (u, v), conv in cases:
        expected = _minkowski_by_points(u, v, conv, extreme_points)
        if expected is not None:
            assert minkowski_check(u, v, conv) == expected, (u, v, conv)
            compared[len(u), expected] += 1
    assert compared[4, True] + compared[4, False] == 2 * 189
    assert compared[5, True] and compared[5, False], compared


def test_minkowski_conventions():
    u, v = P("1234"), P("1342")
    assert minkowski_check(u, v, convention="top-positions")
    assert not minkowski_check(u, v, convention="first-values")
    with pytest.raises(DomainError):
        minkowski_check(u, v, convention="bogus")
