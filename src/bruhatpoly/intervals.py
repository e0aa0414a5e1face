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

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotComparableError
from .perms import (
    Perm,
    Transposition,
    apply_transposition,
    bruhat_leq,
    covers_down,
    covers_up,
    descents,
    format_perm,
    length,
    simple_reflection,
)


@dataclass(frozen=True)
class BruhatInterval:
    """A closed Bruhat interval with its elements and cover relations.

    covers contains ordered pairs (x, y) with x covered by y, both inside
    the interval.
    """

    u: Perm
    v: Perm
    elements: frozenset
    covers: frozenset

    @property
    def rank(self) -> int:
        return length(self.v) - length(self.u)

    def __len__(self) -> int:
        return len(self.elements)


def require_leq(u: Perm, v: Perm) -> None:
    """Raise NotComparableError unless u <= v, the condition for [u, v]."""
    if not bruhat_leq(u, v):
        raise NotComparableError(f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order")


@lru_cache(maxsize=None)
def interval(u: Perm, v: Perm) -> BruhatInterval:
    """The interval [u, v]; BFS upward from u, pruned by comparison with v."""
    require_leq(u, v)
    elements = {u}
    frontier = [u]
    while frontier:
        new = []
        for x in frontier:
            for y, _t in covers_up(x):
                if y not in elements and bruhat_leq(y, v):
                    elements.add(y)
                    new.append(y)
        frontier = new
    covers = frozenset(
        (x, y) for x in elements for y, _t in covers_up(x) if y in elements
    )
    return BruhatInterval(u, v, frozenset(elements), covers)


def atoms(I: BruhatInterval):
    """The covers of u inside the interval, with their transpositions."""
    return sorted(
        (z, t) for z, t in covers_up(I.u) if bruhat_leq(z, I.v)
    )


def coatoms(I: BruhatInterval):
    """The cocovers of v inside the interval, with their transpositions."""
    return sorted(
        (z, t) for z, t in covers_down(I.v) if bruhat_leq(I.u, z)
    )


def atom_transpositions(u: Perm, v: Perm):
    """T-bar(u): transpositions t with u < ut <= v (a cover at u)."""
    return sorted(t for z, t in covers_up(u) if bruhat_leq(z, v))


def coatom_transpositions(u: Perm, v: Perm):
    """T-underbar(v): transpositions t with u <= vt < v (a cover at v)."""
    return sorted(t for z, t in covers_down(v) if bruhat_leq(u, z))


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
        raise DomainError(f"bad transposition {t!r} for n={len(u)}")
    if not (v[i - 1] > v[k - 1] and u[i - 1] < u[k - 1]):
        return {"reason": "endpoints", "positions": (i, k)}
    for p in range(i, k + 1):
        for q in range(p + 1, k + 1):
            if (p, q) != (i, k) and v[p - 1] > v[q - 1] and u[p - 1] < u[q - 1]:
                return {"reason": "proper subinterval", "positions": (p, q)}
    return None


def inversion_minimal_transpositions(u: Perm, v: Perm):
    """All inversion-minimal transpositions on (u, v), in lexicographic order.

    Nonempty whenever u != v and length(v) >= length(u).
    """
    if u == v:
        raise DomainError("inversion-minimal transpositions need u != v")
    n = len(u)
    out = []
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            if is_inversion_minimal(u, v, (i, k)):
                out.append((i, k))
    return out


def generalized_lift(u: Perm, v: Perm):
    """Generalized lifting: a transposition t inversion-minimal on (u, v)
    with u <= vt < v and u < ut <= v (covers at the short ends).

    Returns (t, ut, vt) for the lexicographically smallest such t.  The
    four relations are asserted; a failure would contradict the theorem.
    """
    if u == v or not bruhat_leq(u, v):
        raise NotComparableError(f"need {format_perm(u)} < {format_perm(v)}")
    ts = inversion_minimal_transpositions(u, v)
    assert ts, "an inversion-minimal transposition always exists for u < v"
    t = ts[0]
    ut = apply_transposition(u, t)
    vt = apply_transposition(v, t)
    assert length(vt) == length(v) - 1 and bruhat_leq(u, vt)
    assert length(ut) == length(u) + 1 and bruhat_leq(ut, v)
    return t, ut, vt


def classical_lift(u: Perm, v: Perm, i: int):
    """Classical lifting by the simple reflection s_i.

    Requires i to be a right descent of v but not of u; such an i need not
    exist, which is what motivates the generalized version.  Returns (vs, us).
    """
    if u == v or not bruhat_leq(u, v):
        raise NotComparableError(f"need {format_perm(u)} < {format_perm(v)}")
    if i not in descents(v) or i in descents(u):
        raise DomainError(f"s_{i} is not in D_R(v) \\ D_R(u)")
    s = simple_reflection(len(u), i)
    from .perms import compose

    vs = compose(v, s)
    us = compose(u, s)
    assert bruhat_leq(u, vs) and length(vs) == length(v) - 1
    assert bruhat_leq(us, v) and length(us) == length(u) + 1
    return vs, us


def canonical_pattern(seq):
    """Rank-sequence representative of a pattern: each entry replaced by
    #{j : seq[j] <= seq[i]}.  E.g. 523 -> 312."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise DomainError(f"pattern has repeated values: {seq!r}")
    return tuple(sum(1 for b in seq if b <= a) for a in seq)


def inversion_inversion_check(x, y) -> bool:
    """True iff every inversion of x is an inversion of y (patterns are
    canonicalized first; the condition does not depend on representatives)."""
    x = canonical_pattern(x)
    y = canonical_pattern(y)
    if len(x) != len(y):
        raise DomainError(f"pattern length mismatch: {len(x)} vs {len(y)}")
    m = len(x)
    return all(
        y[i] > y[j]
        for i in range(m)
        for j in range(i + 1, m)
        if x[i] > x[j]
    )


def minimality_patterns(u: Perm, v: Perm, t: Transposition):
    """The two patterns whose Inversion-Inversion relation characterizes
    inversion-minimality of t = (i,k): x = v_i..v_k and y = u with the
    endpoints swapped, i.e. u_k u_{i+1} ... u_{k-1} u_i."""
    i, k = t
    x = v[i - 1 : k]
    y = (u[k - 1],) + u[i : k - 1] + (u[i - 1],)
    return canonical_pattern(x), canonical_pattern(y)


def chain_via_coatoms(I: BruhatInterval):
    """A maximal chain from u to v all of whose labels lie in T-underbar(v):
    repeatedly lift (x, v) and step x -> xt."""
    chain = [I.u]
    x = I.u
    while x != I.v:
        t, xt, _vt = generalized_lift(x, I.v)
        # the label t satisfies v > vt >= x >= u, so it is a coatom label
        x = xt
        chain.append(x)
    return tuple(chain)


def chain_via_atoms(I: BruhatInterval):
    """A maximal chain from u to v all of whose labels lie in T-bar(u):
    repeatedly lift (u, y) and step y -> yt, collected from the top."""
    chain = [I.v]
    y = I.v
    while y != I.u:
        t, _ut, yt = generalized_lift(I.u, y)
        y = yt
        chain.append(y)
    return tuple(reversed(chain))


def chain_transpositions(chain):
    """The transposition labels along a maximal chain."""
    from .perms import cover_transposition

    return [cover_transposition(x, y) for x, y in zip(chain, chain[1:])]


def all_maximal_chains(I: BruhatInterval):
    """Every maximal chain of the interval (exponential; desk scale only)."""
    up = {}
    for x, y in I.covers:
        up.setdefault(x, []).append(y)
    chains = []

    def extend(partial):
        x = partial[-1]
        if x == I.v:
            chains.append(tuple(partial))
            return
        for y in sorted(up.get(x, ())):
            partial.append(y)
            extend(partial)
            partial.pop()

    extend([I.u])
    return chains
