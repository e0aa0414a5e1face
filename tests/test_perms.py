import random

import pytest

from bruhatpoly.errors import DomainError
from bruhatpoly.perms import (
    all_perms,
    apply_transposition,
    bruhat_leq,
    compose,
    covers_down,
    covers_up,
    descents,
    format_perm,
    identity,
    inverse,
    is_cover,
    length,
    longest_element,
    parse_perm,
)
from bruhatpoly.perms import _rank_lanes, _steps


def test_parse_format_roundtrip():
    for text in ("1", "21", "2143", "53421"):
        assert format_perm(parse_perm(text)) == text


def test_parse_rejects_non_permutations():
    for text in ("1224", "134", "0123"):
        with pytest.raises(DomainError):
            parse_perm(text)


def test_length_counts_inversions():
    assert length((1, 2, 3, 4)) == 0
    assert length((4, 3, 2, 1)) == 6
    w = (3, 1, 4, 2)
    n = len(w)
    brute = sum(
        1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
    )
    assert length(w) == brute


def test_inverse_and_compose():
    w = (3, 1, 4, 2)
    assert compose(w, inverse(w)) == identity(4)
    assert compose(inverse(w), w) == identity(4)


def test_apply_transposition_swaps_positions():
    w = (3, 1, 4, 2)
    assert apply_transposition(w, (1, 3)) == (4, 1, 3, 2)
    assert apply_transposition(w, (2, 4)) == (3, 2, 4, 1)


def test_longest_element():
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(longest_element(5)) == 10


def test_descents():
    assert set(descents((1, 2, 3))) == set()
    assert set(descents((3, 1, 2))) == {1}
    assert set(descents((3, 2, 1))) == {1, 2}


def test_covers_raise_length_by_one():
    w = (2, 1, 4, 3)
    for z, t in covers_up(w):
        assert is_cover(w, z)
        assert length(z) == length(w) + 1
        assert [k + 1 for k in range(len(w)) if w[k] != z[k]] == list(t)
        assert apply_transposition(w, t) == z


def test_bruhat_leq_matches_hasse_reachability():
    """bruhat_leq agrees with the transitive closure of the cover relation
    on all of S_4."""
    elems = list(all_perms(4))
    up = {w: {z for z, _ in covers_up(w)} for w in elems}
    reach = {w: {w} for w in elems}
    for w in sorted(elems, key=length, reverse=True):
        for z in up[w]:
            reach[w] |= reach[z]
    for u in elems:
        for v in elems:
            assert bruhat_leq(u, v) == (v in reach[u])


def test_covers_match_betweenness_on_s6():
    """covers_up and covers_down list, in (i, k) order, exactly the swaps of
    positions i < k in the given direction with no value strictly between
    w_i and w_k at a position between them."""

    def by_betweenness(w, up):
        out = []
        for i in range(len(w)):
            for k in range(i + 1, len(w)):
                lo, hi = sorted((w[i], w[k]))
                if (w[i] < w[k]) == up and not any(
                    lo < w[j] < hi for j in range(i + 1, k)
                ):
                    z = list(w)
                    z[i], z[k] = z[k], z[i]
                    out.append((tuple(z), (i + 1, k + 1)))
        return out

    S6 = all_perms(6)
    assert len(S6) == 720
    for w in S6:
        assert covers_up(w) == by_betweenness(w, True)
        assert covers_down(w) == by_betweenness(w, False)


def _sorted_prefix_leq(u, v):
    """Reference: u <= v iff every prefix's sorted values compare entrywise."""
    return all(
        a <= b
        for i in range(1, len(u))
        for a, b in zip(sorted(u[:i]), sorted(v[:i]))
    )


def test_bruhat_leq_matches_sorted_prefix_criterion():
    """The counting criterion against the sorted-prefix one on seeded S_7
    and S_8 pairs: uniform ones (mostly incomparable) and ones drawn from
    an interval [u, v] reached by an upward walk of covers."""
    rng = random.Random(2014)
    pairs = []
    for n in (7, 8):
        for _ in range(300):
            pairs.append((tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))))
            u = v = tuple(rng.sample(range(1, n + 1), n))
            walk = [u]
            for _ in range(rng.randint(1, 8)):
                ups = covers_up(v)
                if not ups:
                    break
                v = rng.choice(ups)[0]
                walk.append(v)
            x, y = rng.choice(walk), rng.choice(walk)
            pairs += [(u, v), (v, u), (x, y), (y, x)]
    assert sum(_sorted_prefix_leq(x, y) for x, y in pairs) > len(pairs) // 3
    assert [bruhat_leq(x, y) for x, y in pairs] == [_sorted_prefix_leq(x, y) for x, y in pairs]


def _is_cover_by_length(u, v):
    """Reference: u and v differ by swapping two positions, and v has one
    more inversion."""
    diff = [i for i in range(len(u)) if u[i] != v[i]]
    return (
        len(diff) == 2
        and (u[diff[0]], u[diff[1]]) == (v[diff[1]], v[diff[0]])
        and length(v) == length(u) + 1
    )


def test_is_cover_matches_the_length_definition():
    """On every ordered pair of S_4 and seeded S_6 pairs, half of them
    a swap apart."""
    pairs = [(u, v) for u in all_perms(4) for v in all_perms(4)]
    rng = random.Random(28)
    for _ in range(300):
        u = tuple(rng.sample(range(1, 7), 6))
        i, k = sorted(rng.sample(range(6), 2))
        v = list(u)
        v[i], v[k] = v[k], v[i]
        pairs += [(u, tuple(v)), (tuple(v), u), (u, tuple(rng.sample(range(1, 7), 6)))]
    assert sum(_is_cover_by_length(u, v) for u, v in pairs) > 200
    for u, v in pairs:
        assert is_cover(u, v) == _is_cover_by_length(u, v), (u, v)
    assert not is_cover((1, 2), (2, 1, 3))


def _rank_code(w):
    """The rank matrix r_w(p, c) = #{j <= p : w(j) > c}, counted, with
    (p, c) in lane (p - 1) n + c of width (n+1).bit_length() + 1 bits."""
    n = len(w)
    W = (n + 1).bit_length() + 1
    return sum(
        sum(1 for j in range(p) if w[j] > c) << ((p - 1) * n + c) * W
        for p in range(1, n + 1)
        for c in range(n)
    )


def test_cover_steps_are_the_covers_with_their_rank_deltas():
    """Each step (y, t, delta) of w: y and t are the pairs of covers_up or
    covers_down, delta is R(y) - R(w) (or R(w) - R(y) going down) for the
    counted rank matrices, the covers fall lexicographically going up and
    rise going down, and one label tuple serves every w of one n.  On all
    of S_5 and on seeded S_7 permutations, which run uncached."""
    rng = random.Random(7)
    S7 = [tuple(rng.sample(range(1, 8), 7)) for _ in range(20)]
    for w in all_perms(5) + S7:
        RF, CB, _top, T = _rank_lanes(len(w))
        assert _rank_code(w) == sum(RF[p] & CB[a] for p, a in enumerate(w, 1))
        for up, covers, sign in ((True, covers_up, 1), (False, covers_down, -1)):
            steps = _steps(w, up)
            assert [(y, t) for y, t, _d in steps] == covers(w)
            for y, t, delta in steps:
                assert delta == sign * (_rank_code(y) - _rank_code(w)), (w, t)
                assert t is T[t[0]][t[1]]
            ys = [y for y, _t, _d in steps]
            assert ys == sorted(set(ys), reverse=up)


# every public function of the package that takes permutations, called with
# the pair (u, v) or with w, the one of them that is no permutation
NON_PERM_CALLS = {
    "interval": lambda B, u, v, w: B.interval(u, v),
    "generalized_lift": lambda B, u, v, w: B.generalized_lift(u, v),
    "inversion_minimal_transpositions": lambda B, u, v, w: B.inversion_minimal_transpositions(u, v),
    "min_coset_rep": lambda B, u, v, w: B.min_coset_rep(w, (1,)),
    "parabolic_bip_vertices": lambda B, u, v, w: B.parabolic_bip_vertices(u, v, (1,)),
    "parabolic_faces_check": lambda B, u, v, w: B.parabolic_faces_check(u, v, (1,)),
    "weight_point": lambda B, u, v, w: B.weight_point(w, (1,)),
    "compose": lambda B, u, v, w: B.compose(w, w),
    "descents": lambda B, u, v, w: B.descents(w),
    "inverse": lambda B, u, v, w: B.inverse(w),
    "is_cover": lambda B, u, v, w: B.is_cover(u, v),
    "bip_inequalities": lambda B, u, v, w: B.bip_inequalities(u, v),
    "block_partition": lambda B, u, v, w: B.block_partition(u, v),
    "crown_type": lambda B, u, v, w: B.crown_type(u, v),
    "diameter": lambda B, u, v, w: B.diameter(u, v),
    "dimension": lambda B, u, v, w: B.dimension(u, v),
    "enumerate_faces": lambda B, u, v, w: B.enumerate_faces(u, v),
    "f_vector": lambda B, u, v, w: B.f_vector(u, v),
    "is_face": lambda B, u, v, w: B.is_face(u, v, u, v),
    "is_toric": lambda B, u, v, w: B.is_toric(u, v),
    "minkowski_check": lambda B, u, v, w: B.minkowski_check(u, v, "top-positions"),
    "normal_cone": lambda B, u, v, w: B.normal_cone(u, v, u, v),
    "vertices": lambda B, u, v, w: B.vertices(u, v),
    "extend_to_special_matching": lambda B, u, v, w: B.extend_to_special_matching(u, v, (1, 2)),
    "generalized_r_identity": lambda B, u, v, w: B.generalized_r_identity(u, v, (1, 2)),
    "r_polynomial": lambda B, u, v, w: B.r_polynomial(u, v),
    "r_tilde": lambda B, u, v, w: B.r_tilde(u, v),
}
# bruhat_leq and length are kernel functions, unchecked; format_perm renders
# any tuple; the rest take an interval, a size, a text or nothing
UNCHECKED = {"bruhat_leq", "length", "format_perm"}
NO_PERMS = {
    "BruhatInterval", "DomainError", "IntPolynomial", "NotComparableError", "atoms",
    "chain_via_atoms", "chain_via_coatoms", "coatoms", "find_special_matchings", "identity",
    "interval_matroids", "is_special_matching", "longest_element", "multiplication_matching",
    "parse_perm", "recurrence_counterexample_check", "special_matching_r_identity",
}


def test_non_permutation_table_covers_the_public_names():
    import bruhatpoly

    assert NON_PERM_CALLS.keys() | UNCHECKED | NO_PERMS == set(bruhatpoly.__all__)
    assert not NON_PERM_CALLS.keys() & (UNCHECKED | NO_PERMS)


@pytest.mark.parametrize("u, v, w", [((1, 2), (3, 4), (3, 4)), ((1, 2, 2), (3, 1, 2), (1, 2, 2))])
@pytest.mark.parametrize("name", sorted(NON_PERM_CALLS))
def test_non_permutations_are_a_domain_error(name, u, v, w):
    import bruhatpoly

    with pytest.raises(DomainError):
        NON_PERM_CALLS[name](bruhatpoly, u, v, w)
