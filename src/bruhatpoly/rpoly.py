"""R-polynomials and special matchings.

R is computed by the classical recurrence at the least right descent of v,
which on the mirror (w0 v, w0 u), of equal R, is the least ascent of u.  One
linear step, _step, drives it, the recurrence of R~, the generalized
recurrence at an inversion-minimal transposition t and the special-matching
identity; IntPolynomial is a record of coefficients with no arithmetic.
The generalized recurrence fails for an arbitrary t satisfying the four
lifting relations, and inversion-minimality does not guarantee that t
extends to a special matching of the interval.  Both counterexamples from
the literature are reproduced here as executable checks
(recurrence_counterexample_check, extend_to_special_matching).

Special matchings read the Hasse diagram of the interval from
intervals.hasse.  One backtracking search finds them, also for
extend_to_special_matching, whose forced diamond propagation only builds
the MatchingObstruction that explains why no matching has the seeds.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import DomainError
from .intervals import (
    BruhatInterval,
    hasse,
    interval,
    inversion_minimal_transpositions,
    is_inversion_minimal,
    lifting_relations_hold,
    require_inversion_minimal,
    require_leq,
)
from .perms import (
    Perm,
    Transposition,
    apply_transposition,
    bruhat_leq,
    check_perm,
    format_perm,
    identity,
    length,
)


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Dense integer polynomial in q as a record of its coefficients, index =
    degree, trailing zeros trimmed.  It carries no arithmetic: like any
    tuple, + concatenates; the recurrences combine polynomials with _step."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return super().__new__(cls, tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __str__(self):
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c:
                q = "" if d == 0 else "q" if d == 1 else f"q^{d}"
                body = q if abs(c) == 1 and q else f"{abs(c)}{q}"
                sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
                terms.append(sign + body)
        return " ".join(terms) or "0"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


def _step(f, g, tilde=False):
    """q f + (q - 1) g, or f + q g for R~: the step of every recurrence."""
    f, g = f.coeffs, g.coeffs
    out = [0] * (max(len(f), len(g)) + 1)
    for i, c in enumerate(f):
        out[i if tilde else i + 1] += c
    for i, c in enumerate(g):
        out[i + 1] += c
        if not tilde:
            out[i] -= c
    return IntPolynomial(out)


# Memo of every run of the recurrence, keyed by (tilde, u, v); cleared when a
# call ends with more than MEMO_LIMIT entries, never holding more between calls.
MEMO_LIMIT = 20_000
_MEMO: dict = {}


def r_polynomial(u: Perm, v: Perm) -> IntPolynomial:
    """R_{u,v}(q) by the descent recurrence."""
    return _recurrence(u, v, False)


def r_tilde(u: Perm, v: Perm) -> IntPolynomial:
    """The renormalized polynomial: same recurrence with the (q-1) branch
    replaced by R~_{us,vs} + q R~_{u,vs}."""
    return _recurrence(u, v, True)


def _recurrence(u, v, tilde):
    """F_{u,v} for F = R or R~ (tilde), with s = s_i, i the least right descent of v:

        F_{u,v} = F_{us,vs}                          if i is a descent of u,
        F_{u,v} = _step(F_{us,vs}, F_{u,vs}, tilde)  otherwise,

    that is q R_{us,vs} + (q - 1) R_{u,vs}, or R~_{us,vs} + q R~_{u,vs}.
    F is 0 off Bruhat order, so the Bruhat test only prunes.
    """
    check_perm(u), check_perm(v)  # bruhat_leq refuses a size mismatch

    def rec(u, v):
        if u == v:
            return ONE
        key = (tilde, u, v)
        if key not in _MEMO:
            _MEMO[key] = down(u, v) if bruhat_leq(u, v) else ZERO
        return _MEMO[key]

    def down(u, v):
        i = next(i for i in range(1, len(v)) if v[i - 1] > v[i])
        vs = apply_transposition(v, (i, i + 1))
        result = rec(apply_transposition(u, (i, i + 1)), vs)
        return _step(result, rec(u, vs), tilde) if u[i - 1] < u[i] else result

    try:
        return rec(u, v)
    finally:
        if len(_MEMO) > MEMO_LIMIT:
            _MEMO.clear()


def r_from_tilde(u: Perm, v: Perm) -> IntPolynomial:
    """Recover R from R~ by the substitution q^(d/2) R~(q^(1/2) - q^(-1/2)),
    i.e. sum_j c_j q^((d-j)/2) (q-1)^j with d the length difference."""
    d = length(v) - length(u)
    out = [0] * (d + 1)
    for j, c in enumerate(r_tilde(u, v).coeffs):
        if c:
            assert (d - j) % 2 == 0, "tilde coefficients live in one parity class"
            for i in range(j + 1):
                out[(d - j) // 2 + i] += c * comb(j, i) * (-1) ** (j - i)
    return IntPolynomial(out)


def recurrence_terms(u: Perm, v: Perm, t: Transposition):
    """(R_{ut,vt}, R_{u,vt}, q R_{ut,vt} + (q-1) R_{u,vt}): the terms of the
    generalized recurrence at any t, whose sum is R_{u,v} when t is
    inversion-minimal."""
    vt = apply_transposition(v, t)
    r_ut_vt = r_polynomial(apply_transposition(u, t), vt)
    r_u_vt = r_polynomial(u, vt)
    return r_ut_vt, r_u_vt, _step(r_ut_vt, r_u_vt)


def generalized_r_identity(u: Perm, v: Perm, t: Transposition) -> bool:
    """Check R_{u,v} = q R_{ut,vt} + (q-1) R_{u,vt} for an inversion-minimal
    t; the identity is a theorem, so False signals a bug."""
    require_leq(u, v)
    require_inversion_minimal(u, v, t)
    return r_polynomial(u, v) == recurrence_terms(u, v, t)[2]


def recurrence_counterexample_check() -> dict:
    """The two cautionary examples around the generalized recurrence.

    (1324, 4231, (2,4)): the four lifting relations hold, t is not
    inversion-minimal, and the recurrence genuinely fails.
    (1243, 4312, (2,4)): the relations hold but t is again not
    inversion-minimal (minimality is sufficient, not necessary, for the
    relations).  For contrast, every inversion-minimal t on (1324, 4231)
    satisfies the identity.
    """

    def case(u, v, t):
        return {
            "u": u, "v": v, "t": t,
            "lifting_relations_hold": lifting_relations_hold(u, v, t),
            "inversion_minimal": is_inversion_minimal(u, v, t),
        }

    u, v, t = (1, 3, 2, 4), (4, 2, 3, 1), (2, 4)
    counterexample = case(u, v, t)
    counterexample["identity_holds"] = r_polynomial(u, v) == recurrence_terms(u, v, t)[2]
    return {
        "counterexample": counterexample,
        "converse_failure": case((1, 2, 4, 3), (4, 3, 1, 2), (2, 4)),
        "inversion_minimal_identity_holds": all(
            generalized_r_identity(u, v, s) for s in inversion_minimal_transpositions(u, v)
        ),
    }


# ---------------------------------------------------------------------------
# special matchings
# ---------------------------------------------------------------------------


def _hasse_involution(M: dict, lower: dict, upper: dict) -> bool:
    """True iff every x of M, an element of the interval, goes to a Hasse
    neighbour z with M(z) = x; (lower, upper) is hasse(I)."""
    return all(M.get(z) == x and (z in lower[x] or z in upper[x]) for x, z in M.items())


def is_special_matching(I: BruhatInterval, M: dict) -> bool:
    """True iff M is a matching of the Hasse diagram such that every cover
    x < y satisfies M(x) = y or M(x) <= M(y)."""
    lower, upper = hasse(I)
    if M.keys() != lower.keys() or not _hasse_involution(M, lower, upper):
        raise DomainError("not a total Hasse-edge involution on the interval")
    return _violated_cover([(x, y) for x in I.order for y in upper[x]], M) is None


def multiplication_matching(I: BruhatInterval, t: Transposition):
    """The matching x -> x*t, if right multiplication by t is a matching of
    the Hasse diagram of the interval; None otherwise."""
    M = {x: apply_transposition(x, t) for x in I.order}
    return M if _hasse_involution(M, *hasse(I)) else None


def special_matching_r_identity(I: BruhatInterval, M: dict) -> bool:
    """For a special matching M of a lower interval [e, w], validated once:
    R_{u,w} = q^c R_{M(u),M(w)} + (q^c - 1) R_{u,M(w)} at every u <= w,
    c = 1 iff M(u) > u."""
    if I.u != identity(len(I.u)):
        raise DomainError("the matching identity is stated on lower intervals [e, w]")
    if not is_special_matching(I, M):
        raise DomainError("matching is not special")
    w, Mw = I.v, M[I.v]

    def rhs(u):
        r = r_polynomial(M[u], Mw)
        # M(u) covers u: a cover steps up lexicographically
        return _step(r, r_polynomial(u, Mw)) if M[u] > u else r

    return all(r_polynomial(u, w) == rhs(u) for u in I.order)


def _violated_cover(covers, M: dict):
    """The first cover x < y of covers, in the order given, with both ends
    assigned and neither M(x) = y nor M(x) <= M(y); None if none."""
    for x, y in covers:
        if x in M and y in M and M[x] != y and not bruhat_leq(M[x], M[y]):
            return x, y
    return None


def find_special_matchings(I: BruhatInterval):
    """All special matchings of the interval."""
    return list(_special_matchings(I, {}, *hasse(I)))


def _rank_order(I: BruhatInterval):
    return sorted(I.order, key=lambda z: (length(z), z))


def _special_matchings(I: BruhatInterval, seeds: dict, lower: dict, upper: dict):
    """Every special matching of the interval that extends the involution
    seeds, by backtracking over the elements in (length, word) order; each
    cover is checked once its last endpoint is matched.  Nothing when seeds,
    elements of the interval, are not a partial matching along Hasse edges
    or already violate a cover.  (lower, upper) is hasse(I)."""
    if not _hasse_involution(seeds, lower, upper):
        return
    order = _rank_order(I)
    M = dict(seeds)

    def consistent_around(x, z):
        covers = [(y, a) for a in (x, z) for y in lower[a]]
        covers += [(a, y) for a in (x, z) for y in upper[a]]
        return _violated_cover(covers, M) is None

    def search():
        x = next((z for z in order if z not in M), None)
        if x is None:
            yield dict(M)
            return
        for z in lower[x] + upper[x]:
            if z in M:
                continue
            M[x], M[z] = z, x
            if consistent_around(x, z):
                yield from search()
            del M[x], M[z]

    if all(consistent_around(x, M[x]) for x in seeds):
        yield from search()


class MatchingObstruction(namedtuple("MatchingObstruction", "steps conflict")):
    """Witness that no special matching with the requested seeds exists:
    steps, the (x, M(x)) in the order they were forced (seeds first), and
    conflict, {"kind": ..., plus the offending elements}, that they run into."""

    def __str__(self):
        chain = ", ".join(
            f"M({format_perm(x)})={format_perm(mx)}" for x, mx in self.steps
        )
        if self.conflict["kind"] == "cover-violation":
            x, y = self.conflict["cover"]
            return (
                f"forced {chain}; but cover {format_perm(x)} < {format_perm(y)} has "
                f"M({format_perm(y)})={format_perm(self.conflict['My'])} which is not >= "
                f"{format_perm(self.conflict['Mx'])}=M({format_perm(x)})"
            )
        return f"forced {chain}; then {self.conflict['kind']} at {self.conflict}"


def extend_to_special_matching(u: Perm, v: Perm, t: Transposition):
    """A special matching M of [u, v] with M(v) = vt and M(u) = ut, or a
    MatchingObstruction when there is none.

    The backtracking search of find_special_matchings decides, and its
    first matching is returned.  The obstruction explains a failure in the
    hand-derivation style: from the top seed, then the bottom one if both
    its ends are still free, unmatched elements are forced by completing
    rank-2 diamonds.  Its conflict is the first violated cover of the
    forced map (covers in order), else the bottom seed matched elsewhere,
    else the elements left unmatched.
    """
    require_inversion_minimal(u, v, t)
    I = interval(u, v)
    ut, vt = apply_transposition(u, t), apply_transposition(v, t)
    lower, upper = hasse(I)
    if (found := next(_special_matchings(I, {v: vt, vt: v, u: ut, ut: u}, lower, upper), None)):
        return found

    order = _rank_order(I)
    M: dict = {}
    steps = []

    def assign(x, z):
        M[x], M[z] = z, x
        steps.append((x, z) if z in lower[x] else (z, x))

    def rule_a_dfs(d):
        # d is matched downward; force unmatched cocovers x of d by the
        # unique unmatched common cocover of x and M(d), when it exists
        for x in lower[d]:
            cands = [z for z in lower[x] if z not in M and z in lower[M[d]]]
            if x not in M and len(cands) == 1:
                assign(x, cands[0])
                rule_a_dfs(x)

    def rule_b_once():
        # force an unmatched element y from below: if x < y with M(x) < x,
        # the diamond [M(x), y] has exactly one middle besides x
        for y in [z for z in order if z not in M]:
            for x in reversed(lower[y]):
                if M.get(x) not in lower[x]:
                    continue
                mids = [w for w in upper[M[x]] if w != x and y in upper[w]]
                if len(mids) == 1 and mids[0] not in M:
                    assign(y, mids[0])
                    return y
        return None

    def propagate_from(d):
        while d is not None:
            rule_a_dfs(d)
            d = rule_b_once()

    assign(v, vt)
    propagate_from(v)
    if not (u in M or ut in M):
        assign(u, ut)
        propagate_from(u)
    # a violated cover refutes every matching with the forced chain; a complete
    # forced map with none and M(u) = ut would be a matching the search found
    bad = _violated_cover([(x, y) for x in I.order for y in upper[x]], M)
    if bad is not None:
        x, y = bad
        conflict = {"kind": "cover-violation", "cover": (x, y), "Mx": M[x], "My": M[y]}
    elif M.get(u, ut) != ut:
        conflict = {"kind": "seed-conflict", "u": u, "ut": ut, "Mu": M[u]}
    else:
        conflict = {"kind": "incomplete", "unmatched": tuple(z for z in I.order if z not in M)}
    return MatchingObstruction(steps=tuple(steps), conflict=conflict)
