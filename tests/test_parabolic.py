import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from bruhatpoly import exactlp
from bruhatpoly.checks import comparable_pairs
from bruhatpoly.errors import DomainError
from bruhatpoly.intervals import comparabilities, interval
from bruhatpoly.parabolic import (
    _is_interval_set,
    check_subset,
    coset_reps_in_interval,
    is_min_rep,
    min_coset_rep,
    parabolic_bip_vertices,
    parabolic_faces_check,
    position_blocks,
    weight_point,
)
from bruhatpoly.cli import main
from bruhatpoly.perms import all_perms, identity, inverse, longest_element, parse_perm
from bruhatpoly.polytopes import f_vector, vertices

P = parse_perm


def test_check_subset_validates():
    assert check_subset(4, [3, 1]) == (1, 3)
    assert check_subset(4, []) == ()
    with pytest.raises(DomainError):
        check_subset(4, [4])
    with pytest.raises(DomainError):
        check_subset(4, [0])


def test_position_blocks():
    assert position_blocks(4, (1, 3)) == ((1,), (2, 3), (4,))
    assert position_blocks(4, (2,)) == ((1, 2), (3, 4))
    assert position_blocks(4, ()) == ((1, 2, 3, 4),)


def test_min_coset_rep_sorts_within_blocks():
    assert min_coset_rep(P("3142"), (2,)) == P("1324")
    assert min_coset_rep(P("4321"), (1, 3)) == P("4231")
    assert is_min_rep(P("1324"), (2,))
    assert not is_min_rep(P("3142"), (2,))


def test_weight_point_single_index_is_indicator():
    """For J = {k} the weight point is the 0/1 indicator of the first k
    values, so the hull is a hypersimplex slice."""
    J = (2,)
    for z in all_perms(4):
        p = weight_point(z, J)
        assert set(p) <= {0, 1}
        assert sum(p) == 2
        assert all(p[i - 1] == 1 for i in z[:2])


def test_weight_point_constant_on_cosets():
    J = (1, 3)
    for z in all_perms(4):
        assert weight_point(z, J) == weight_point(min_coset_rep(z, J), J)


def test_parabolic_vertices_requires_min_rep():
    with pytest.raises(DomainError) as exc:
        parabolic_bip_vertices(P("1234"), P("3142"), (2,))
    assert "1324" in str(exc.value)  # the suggested representative


def test_full_flag_reduces_to_affine_image():
    """With J = {1,...,n-1} the weight point of z is n*1 - z^{-1}, so the
    polytope is an affine image of the interval polytope of inverses."""
    u, v = P("1234"), P("2134")
    pts = parabolic_bip_vertices(u, v, (1, 2, 3))
    expected = sorted(
        tuple(4 - x for x in inverse(z)) for z in vertices(u, v)
    )
    assert pts == expected


def test_full_flag_faces_are_those_of_the_inverse_interval():
    """With J = {1,...,n-1} the weight points describe Q_{u^{-1},v^{-1}} up
    to an affine map, so the faces by dimension are the f-vector of the
    inverse interval: on all 213 pairs u <= v of S_4, and on S_5 pairs
    whose two intervals have different f-vectors."""
    pairs = [(z, z) for z in all_perms(4)] + list(comparable_pairs(4))
    assert len(pairs) == 213
    for u, v in pairs:
        faces_by_dim = parabolic_faces_check(u, v, (1, 2, 3))["faces_by_dim"]
        assert faces_by_dim == dict(enumerate(f_vector(inverse(u), inverse(v)))), (u, v)
    for u, v in [("12345", "35412"), ("12354", "45231"), ("32154", "54231")]:
        u, v = P(u), P(v)
        faces_by_dim = parabolic_faces_check(u, v, (1, 2, 3, 4))["faces_by_dim"]
        assert faces_by_dim == dict(enumerate(f_vector(inverse(u), inverse(v)))), (u, v)
        assert f_vector(u, v) != f_vector(inverse(u), inverse(v))
    assert f_vector(P("12345"), P("35412")) == (60, 123, 82, 19, 1)
    assert f_vector(inverse(P("12345")), inverse(P("35412"))) == (60, 122, 81, 19, 1)


def test_coincident_pair_from_different_intervals():
    """Two distinct intervals can give the same parabolic point set."""
    J = (1, 3)
    a = parabolic_bip_vertices(P("1234"), P("4231"), J)
    b = parabolic_bip_vertices(P("1324"), P("4231"), J)
    assert a == b


def test_zero_cells_are_cosets(extreme_points):
    u, v, J = P("1234"), P("2413"), (2,)
    pts = parabolic_bip_vertices(u, v, J)
    cosets = coset_reps_in_interval(u, v, J)
    assert extreme_points(pts) == pts
    assert len(pts) == len(cosets)


def test_faces_check_report():
    report = parabolic_faces_check(P("1243"), P("4123"), (1,))
    assert report["all_faces_are_interval_sets"]
    assert report["violations"] == []
    assert report["zero_cells_match_cosets"]
    assert report["edges_are_cover_pairs"]
    assert report["faces_by_dim"][0] == report["n_cosets"]


def test_faces_check_guards_scale(capsys):
    """Past n = 5 the check answers while [e, v] has at most
    MAX_FACE_ELEMENTS elements: with the full flag at n = 6 its faces are
    those of the S_6 permutohedron.  The CLI refuses [e, 56781234], 6,902
    elements, with a one-line reason."""
    e, w0 = identity(6), longest_element(6)
    report = parabolic_faces_check(e, w0, (1, 2, 3, 4, 5))
    assert report["faces_by_dim"] == dict(enumerate(f_vector(e, w0)))
    assert f_vector(e, w0) == (720, 1800, 1560, 540, 62, 1)
    assert main(["parabolic", "12345678", "56781234", "--J", "4", "--faces-check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "domain error: the faces check is bounded to 5040 elements; the interval has 6902\n"
    )


def _instances(n):
    """The instances (u, v, J) of the exhaustive parabolic suite at n."""
    pairs = [*comparable_pairs(n), *((z, z) for z in all_perms(n))]
    return [
        (u, v, J)
        for size in range(1, n) for J in combinations(range(1, n), size)
        for u, v in pairs if is_min_rep(v, J)
    ]


def test_facet_closure_is_the_double_description_lattice(monkeypatch):
    """The lattice parabolic_faces_check reads, the 0/1-direction facets of
    polytopes._facets on the value blocks closed under intersection, equals
    the double-description lattice of exactlp on every parabolic instance
    of S_4 (526 distinct point sets) and on 400 seeded S_5 instances."""
    real, read, reference = exactlp.intersections, [], {}
    monkeypatch.setattr(exactlp, "intersections", lambda *a: read.append(real(*a)) or read[-1])
    for u, v, J in _instances(4) + random.Random(5).sample(_instances(5), 400):
        V = tuple(parabolic_bip_vertices(u, v, J))
        if V not in reference:
            reference[V] = exactlp.face_lattice(V)[1]
        read.clear()
        report = parabolic_faces_check(u, v, J)
        assert read == [reference[V]] and report["faces_found"] == len(reference[V]), (u, v, J)
    assert sum(len(V[0]) == 4 for V in reference) == 526


def test_faces_check_reads_value_blocks_at_large_n():
    """The facets are read block by block, so a tiny [e, v] answers at any
    n: here [e, s_1] of S_30, whose one block {1, 2} has 3 subsets where
    {1..30} would have 2^30."""
    e = identity(30)
    report = parabolic_faces_check(e, (2, 1, *e[2:]), (1,))
    assert report["faces_by_dim"] == {0: 2, 1: 1}
    assert report["all_faces_are_interval_sets"] and report["edges_are_cover_pairs"]


def _leq(x, y):
    """Bruhat order by the tableau criterion: the sorted initial segments
    of x are entrywise at most those of y."""
    return all(
        a <= b for k in range(1, len(x)) for a, b in zip(sorted(x[:k]), sorted(y[:k]))
    )


def _point(z, J):
    """The weight point: coordinate a counts the j in J with a among
    z(1..j)."""
    pos = {a: i + 1 for i, a in enumerate(z)}
    return tuple(sum(pos[a] <= j for j in J) for a in range(1, len(z) + 1))


def _sorted_in_blocks(y, J):
    cuts = [0, *J, len(y)]
    return all(list(y[a:b]) == sorted(y[a:b]) for a, b in zip(cuts, cuts[1:]))


def test_interval_set_witness_matches_brute_force_on_s4():
    """The per-face witness against the set of every p([x, y]) with
    x <= y in S_4 and y sorted within blocks, built here from the
    definitions.  Candidates: every face of every S_4 instance, seeded
    random subsets of its points and unions of two of its faces."""
    S4 = list(permutations(range(1, 5)))
    rng = random.Random(7)
    verdicts = Counter()
    for size in range(1, 4):
        for J in combinations(range(1, 4), size):
            tops = [y for y in S4 if _sorted_in_blocks(y, J)]
            sets = {
                frozenset(_point(z, J) for z in S4 if _leq(x, z) and _leq(z, y))
                for y in tops for x in S4 if _leq(x, y)
            }
            for v in tops:
                T = interval(identity(4), v)
                above, below = comparabilities(T)
                pts = [weight_point(z, J) for z in T.order]
                for u in S4:
                    if not _leq(u, v):
                        continue
                    V = parabolic_bip_vertices(u, v, J)
                    uniq, masks = exactlp.face_lattice(V)
                    faces = [
                        frozenset(p for k, p in enumerate(uniq) if F >> k & 1) for F in sorted(masks)
                    ]
                    candidates = faces + [
                        frozenset(rng.sample(V, rng.randint(1, len(V)))) for _ in range(2)
                    ] + [rng.choice(faces) | rng.choice(faces) for _ in range(2)]
                    for F in candidates:
                        pre = [sum(1 << k for k, p in enumerate(pts) if p == q) for q in F]
                        verdict = _is_interval_set(pre, above, below)
                        assert verdict == (F in sets), (u, v, J, sorted(F))
                        verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
