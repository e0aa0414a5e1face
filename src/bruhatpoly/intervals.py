"""Bruhat intervals, atoms/coatoms, inversion-minimal transpositions, and
the generalized lifting property.

The central objects are the closed interval [u, v] = {z : u <= z <= v} and,
for u < v, the inversion-minimal transpositions (i k): those position
intervals [i, k] that are inclusion-minimal with v_i > v_k and u_i < u_k.
Generalized lifting says any such t satisfies u <= vt < v and u < ut <= v
(with covers at the short ends), and one always exists -- unlike the
classical lifting property, which needs a right descent of v that is not a
descent of u.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import DomainError, NotComparableError
from .perms import (
    Perm,
    Transposition,
    _rank_lanes,
    _steps,
    apply_transposition,
    bruhat_leq,
    check_perm,
    format_perm,
    length,
)


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class BruhatInterval:
    """The closed interval [u, v] as one cover table.

    order lists the elements sorted; that is a linear extension of Bruhat
    order, so order[0] = u and order[-1] = v.  up[i] holds (j, t) for each
    cover order[j] = order[i] * t, sorted by j; down[i] holds the labels t
    of the cocovers order[i] * t, sorted by those.  The comparabilities are
    not stored: comparabilities(I) builds them for the call that reads
    them.  The cache shares the table: read-only.
    """

    __slots__ = ("u", "v", "order", "up", "down")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"BruhatInterval is immutable: cannot set {name!r}")

    @property
    def rank(self) -> int:
        return length(self.v) - length(self.u)

    def __len__(self) -> int:
        return len(self.order)


def require_leq(u: Perm, v: Perm) -> None:
    """NotComparableError unless u <= v, and DomainError unless both are permutations."""
    if not bruhat_leq(check_perm(u), check_perm(v)):
        raise NotComparableError(f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order")


MAX_INTERVAL_ELEMENTS = 40320  # S_8 [e, w0]; S_9's table took 21 s and 1.5 GB under a 2 GB limit


def _slack(u: Perm, v: Perm):
    """(s, TOP): the slack code s = (R(v) | TOP) - R(u) of perms._rank_lanes.
    No lane borrows, as each top bit exceeds n, so a step (y, t, delta) of
    u up has y <= v, and one of v down has u <= y, iff s - delta keeps
    every top bit, whether or not u <= v."""
    if len(u) != len(v):
        raise DomainError(f"size mismatch: {len(u)} vs {len(v)}")
    RF, CB, top, _T = _rank_lanes(len(u))
    ru, rv = (sum(RF[p] & CB[a] for p, a in enumerate(w, 1)) for w in (u, v))
    return (rv | top) - ru, top


@lru_cache(maxsize=1024)
def interval(u: Perm, v: Perm) -> BruhatInterval:
    """The cover table of [u, v], from one BFS upward from u.  Each element x
    carries its slack code s (_slack(x, v)); its up steps (y, t, delta) of
    perms._steps fall lexicographically, and y <= v iff s - delta keeps
    every top bit, so x's row is the passing steps reversed.  Each element's
    steps are read once.  Raises DomainError as soon as the elements found
    number more than MAX_INTERVAL_ELEMENTS."""
    require_leq(u, v)
    s, top = _slack(u, v)
    ups, frontier = {}, {u: s}
    while frontier:
        found = {}  # the next layer, in the order the BFS finds it
        for x, s in frontier.items():
            row = []
            for y, t, delta in _steps(x, True):
                sy = s - delta
                if sy & top == top:
                    found[y] = sy
                    row.append((y, t))
            ups[x] = row[::-1]
            if len(ups) + len(found) > MAX_INTERVAL_ELEMENTS:
                raise DomainError(
                    f"[{format_perm(u)}, {format_perm(v)}] has more than "
                    f"{MAX_INTERVAL_ELEMENTS} elements: {len(ups) + len(found)} found"
                )
        frontier = found
    order = sorted(ups)
    index = {z: i for i, z in enumerate(order)}
    up = [tuple((index[y], t) for y, t in ups[z]) for z in order]
    down = [[] for _ in order]  # down[j] fills in the order of its cocovers' i
    for i, row in enumerate(up):
        for j, t in row:
            down[j].append(t)
    return BruhatInterval(u, v, tuple(order), tuple(up), tuple(map(tuple, down)))


def comparabilities(I: BruhatInterval):
    """(above, below): above[i] is the bitset of the j with order[i] <=
    order[j], below[j] that of the i, both closed along the covers, so
    [order[i], order[j]] is above[i] & below[j]; N^2/4 bytes for N elements."""
    above, below = [0] * len(I), [1 << j for j in range(len(I))]
    for i in range(len(I) - 1, -1, -1):
        bits = 1 << i
        for j, _t in I.up[i]:
            bits |= above[j]
        above[i] = bits
    for i, row in enumerate(I.up):
        for j, _t in row:
            below[j] |= below[i]
    return above, below


def hasse(I: BruhatInterval):
    """(lower, upper): for each element of the interval, the sorted lists of
    the elements it covers and of the elements that cover it.  A cover is a
    step up in the lexicographic order, so lower[x] + upper[x] is sorted."""
    order = I.order
    upper = {x: [order[j] for j, _t in row] for x, row in zip(order, I.up)}
    lower = {z: [apply_transposition(z, t) for t in ts] for z, ts in zip(order, I.down)}
    return lower, upper


def atoms(I: BruhatInterval):
    """The covers of u inside the interval, with their transpositions."""
    return [(I.order[j], t) for j, t in I.up[0]]


def coatoms(I: BruhatInterval):
    """The cocovers of v inside the interval, with their transpositions."""
    return sorted((apply_transposition(I.v, t), t) for t in I.down[-1])


def atom_transpositions(u: Perm, v: Perm):
    """T-bar(u), the sorted t with u < ut <= v: u's steps up within v."""
    s, top = _slack(u, v)
    return [t for _y, t, delta in _steps(u, True) if (s - delta) & top == top]


def coatom_transpositions(u: Perm, v: Perm):
    """T-underbar(v), the sorted t with u <= vt < v: v's steps down above u."""
    s, top = _slack(u, v)
    return [t for _y, t, delta in _steps(v, False) if (s - delta) & top == top]


def is_inversion_minimal(u: Perm, v: Perm, t: Transposition) -> bool:
    """True iff [i,k] is inclusion-minimal with v_i > v_k and u_i < u_k."""
    return minimality_violation(u, v, t) is None


def minimality_violation(u: Perm, v: Perm, t: Transposition):
    """Why t = (i, k) fails to be inversion-minimal on (u, v): either the
    endpoints do not satisfy v_i > v_k, u_i < u_k, or a proper subinterval
    (p, q) of positions does; None when t is inversion-minimal."""
    if len(u) != len(v):
        raise DomainError(f"size mismatch: {len(u)} vs {len(v)}")
    i, k = t
    if not (1 <= i < k <= len(u)):
        raise DomainError(f"bad transposition ({i},{k}) for n={len(u)}")
    if not (v[i - 1] > v[k - 1] and u[i - 1] < u[k - 1]):
        return {"reason": "endpoints", "positions": (i, k)}
    for p in range(i, k + 1):
        for q in range(p + 1, k + 1):
            if (p, q) != (i, k) and v[p - 1] > v[q - 1] and u[p - 1] < u[q - 1]:
                return {"reason": "proper subinterval", "positions": (p, q)}
    return None


def require_inversion_minimal(u: Perm, v: Perm, t: Transposition) -> None:
    """DomainError unless t is inversion-minimal on (u, v), naming the reason
    and the positions of minimality_violation."""
    if why := minimality_violation(u, v, t):
        (i, k), (p, q) = t, why["positions"]
        raise DomainError(
            f"({i},{k}) is not inversion-minimal on ({format_perm(u)}, {format_perm(v)}): "
            f"{why['reason']} at positions ({p},{q})"
        )


def inversion_minimal_transpositions(u: Perm, v: Perm):
    """All inversion-minimal transpositions on (u, v), in lexicographic order.

    Nonempty whenever u != v and length(v) >= length(u).
    """
    if check_perm(u) == check_perm(v):
        raise DomainError("inversion-minimal transpositions need u != v")
    return [t for t in combinations(range(1, len(u) + 1), 2) if is_inversion_minimal(u, v, t)]


def generalized_lift(u: Perm, v: Perm):
    """Generalized lifting: a transposition t inversion-minimal on (u, v)
    with u <= vt < v and u < ut <= v (covers at the short ends).

    Returns (t, ut, vt) for the lexicographically smallest such t.  The
    four relations are asserted; a failure would contradict the theorem.
    """
    require_leq(u, v)
    if u == v:
        raise NotComparableError(f"generalized lifting needs {format_perm(u)} < {format_perm(v)}")
    ts = inversion_minimal_transpositions(u, v)
    assert ts, "an inversion-minimal transposition always exists for u < v"
    t = ts[0]
    assert lifting_relations_hold(u, v, t)
    return t, apply_transposition(u, t), apply_transposition(v, t)


def lifting_relations_hold(u: Perm, v: Perm, t: Transposition) -> bool:
    """The four relations: vt < v and u < ut are covers, u <= vt, ut <= v;
    that is, t labels both a coatom and an atom of [u, v]."""
    return t in coatom_transpositions(u, v) and t in atom_transpositions(u, v)


def chain_via_coatoms(I: BruhatInterval):
    """A maximal chain from u to v all of whose labels lie in T-underbar(v):
    repeatedly lift (x, v) and step x -> xt."""
    chain = [I.u]
    x = I.u
    while x != I.v:
        # the lift's label t has v > vt >= x >= u, so it is a coatom label
        x = generalized_lift(x, I.v)[1]
        chain.append(x)
    return tuple(chain)


def chain_via_atoms(I: BruhatInterval):
    """A maximal chain from u to v all of whose labels lie in T-bar(u):
    repeatedly lift (u, y) and step y -> yt, collected from the top."""
    chain = [I.v]
    y = I.v
    while y != I.u:
        y = generalized_lift(I.u, y)[2]
        chain.append(y)
    return tuple(reversed(chain))

