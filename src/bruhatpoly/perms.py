"""Permutations of {1..n} in one-line notation.

A permutation is a plain tuple ``w`` with ``w[i-1] = w(i)``; values and
positions are 1-based throughout.  All functions are pure, so permutations
can be shared freely across threads.

The text format is contiguous digits for n <= 9 ("2431") and
comma-separated values for n >= 10 ("10,2,3,...").
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import DomainError

Perm = tuple  # tuple[int, ...], one-line notation
Transposition = tuple  # (i, k) with 1 <= i < k <= n, acting on positions


def check_perm(w: Perm) -> Perm:
    """Validate that w is a bijection on {1..n}; return it unchanged."""
    n = len(w)
    if n == 0 or sorted(w) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {w!r}")
    return w


def parse_perm(text: str) -> Perm:
    text = text.strip()
    try:
        w = tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise DomainError(f"cannot parse permutation: {text!r}") from None
    return check_perm(w)


def format_perm(w: Perm) -> str:
    if len(w) <= 9:
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(check_perm(w))
    for i, a in enumerate(w):
        inv[a - 1] = i + 1
    return tuple(inv)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)).  Raises on size mismatch."""
    if len(check_perm(p)) != len(check_perm(q)):
        raise DomainError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[q[i] - 1] for i in range(len(p)))


def apply_transposition(w: Perm, t: Transposition) -> Perm:
    """Right-multiply w by the transposition t = (i, k): swap positions i, k."""
    i, k = t
    if not (1 <= i < k <= len(w)):
        raise DomainError(f"bad transposition {t!r} for n={len(w)}")
    lst = list(w)
    lst[i - 1], lst[k - 1] = lst[k - 1], lst[i - 1]
    return tuple(lst)


def length(w: Perm) -> int:
    """Number of inversions, pairs i < j with w(i) > w(j); kernel: w unchecked."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Strong Bruhat order by the rank-matrix criterion (Bjorner-Brenti,
    Thm 2.1.5): u <= v iff d[c] = #{j <= i : v(j) > c} - #{j <= i : u(j) > c}
    >= 0 for every prefix i < n and value c, counted as the prefix grows:
    position i raises d on [u(i), v(i)) or lowers it on [v(i), u(i)), and
    only a lowering can break it.  Kernel: u and v are not checked."""
    n = len(u)
    if n != len(v):
        raise DomainError(f"size mismatch: {len(u)} vs {len(v)}")
    d = [0] * (n + 1)
    for i in range(n - 1):
        a, b = u[i], v[i]
        if a < b:
            for c in range(a, b):
                d[c] += 1
        elif a > b:
            for c in range(b, a):
                if not d[c]:
                    return False
                d[c] -= 1
    return True


def is_cover(u: Perm, v: Perm) -> bool:
    """True iff v = u * t for a transposition t with length(v) = length(u) + 1."""
    return len(check_perm(u)) == len(check_perm(v)) and any(y == v for y, *_ in _steps(u, True))


def covers_up(w: Perm):
    """All (w*t, t) with length going up by exactly one, in (i, k) order."""
    return [(y, t) for y, t, _d in _steps(w, True)]


def covers_down(w: Perm):
    """All (w*t, t) with length going down by exactly one, in (i, k) order."""
    return [(y, t) for y, t, _d in _steps(w, False)]


@lru_cache(maxsize=8)
def _rank_lanes(n: int):
    """(RF, CB, TOP, T) for the rank matrix r_w(p, c) = #{j <= p : w(j) > c},
    1 <= p <= n and 0 <= c < n, packed into n^2 lanes of one int, each
    W = (n+1).bit_length() + 1 bits wide: RF[p] is 1 in every lane of rows
    >= p, CB[c] in every lane of thresholds < c, and TOP is every lane's
    top bit.  So w has the rank matrix R(w) = sum_p RF[p] & CB[w(p)], and
    u <= v iff every lane of (R(v) | TOP) - R(u) keeps its top bit."""
    W = (n + 1).bit_length() + 1
    ones = lambda m, width=W: ((1 << m * width) - 1) // ((1 << width) - 1)  # m lanes of 1
    RF = [ones(n * (n - p)) << p * n * W for p in (0, *range(n + 1))]  # RF[0] = RF[1]
    rows = ones(n, n * W)  # 1 in lane 0 of every row
    CB = [ones(c) * rows for c in range(n + 1)]
    T = [[(i, k) for k in range(n + 1)] for i in range(n + 1)]  # shared labels (i, k)
    return RF, CB, ones(n * n) << W - 1, T


@lru_cache(maxsize=1746)  # both directions of each of the 873 permutations of S_1..S_6
def _cached_steps(w: Perm, up: bool):
    """The covers w*t of w in one direction as steps (w*t, t, delta), delta =
    |R(w*t) - R(w)| (_rank_lanes), in (i, k) order: w*t falls (up) or rises
    (down) lexicographically.  (i, k) is a cover iff w_k lies between w_i and
    the cap, the value nearest w_i on that side among w_{i+1..k-1}."""
    n = len(w)
    RF, CB, _top, T = _rank_lanes(n)
    steps = []
    for i, a in enumerate(w[:-1], 1):
        cap = n + 1 if up else 0
        for k, b in enumerate(w[i:], i + 1):
            if (a < b < cap) if up else (cap < b < a):
                cap = b
                y = list(w)
                y[i - 1], y[k - 1] = b, a
                steps.append((tuple(y), T[i][k], (RF[i] ^ RF[k]) & (CB[a] ^ CB[b])))
    return tuple(steps)


def _steps(w: Perm, up: bool):
    """_cached_steps(w, up), cached for n <= 6 only: a BFS in S_7 reads each step once."""
    return (_cached_steps if len(w) <= 6 else _cached_steps.__wrapped__)(w, up)


def descents(w: Perm) -> frozenset:
    """The right descent set {i : w(i) > w(i+1)}, as indices of simple
    reflections."""
    return frozenset(i for i in range(1, len(check_perm(w))) if w[i - 1] > w[i])


def all_perms(n: int):
    """All of S_n in lexicographic order."""
    return [tuple(p) for p in permutations(range(1, n + 1))]

