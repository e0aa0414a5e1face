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
