import pytest

from bruhatpoly import checks, rpoly
from bruhatpoly.errors import DomainError
from bruhatpoly.intervals import hasse, interval, inversion_minimal_transpositions
from bruhatpoly.perms import (
    all_perms,
    bruhat_leq,
    identity,
    length,
    parse_perm,
)
from bruhatpoly.rpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    MatchingObstruction,
    extend_to_special_matching,
    find_special_matchings,
    generalized_r_identity,
    is_special_matching,
    lifting_relations_hold,
    multiplication_matching,
    r_from_tilde,
    r_polynomial,
    r_tilde,
    recurrence_counterexample_check,
    special_matching_r_identity,
)

P = parse_perm


def test_polynomial_record():
    p = IntPolynomial((1, -2, 1, 0))
    assert p.coeffs == (1, -2, 1) and p.degree == 2
    assert str(p) == "q^2 - 2q + 1"
    assert str(IntPolynomial(())) == "0" and ZERO.degree == -1
    assert p == IntPolynomial([1, -2, 1]) and hash(p) == hash(IntPolynomial((1, -2, 1)))
    assert p != ONE and not hasattr(p, "__dict__")


def test_r_polynomial_base_cases():
    e = identity(4)
    assert r_polynomial(e, e) == ONE
    assert r_polynomial(e, P("2134")) == IntPolynomial((-1, 1))
    assert r_polynomial(P("2134"), e) == ZERO
    assert r_polynomial(P("2134"), P("1342")) == ZERO


def test_r_polynomial_golden_examples():
    assert str(r_polynomial(P("21345"), P("53421"))) == (
        "q^8 - 4q^7 + 7q^6 - 8q^5 + 8q^4 - 8q^3 + 7q^2 - 4q + 1"
    )
    assert str(r_polynomial(P("31245"), P("43521"))) == (
        "q^6 - 4q^5 + 7q^4 - 8q^3 + 7q^2 - 4q + 1"
    )
    assert str(r_polynomial(P("21345"), P("43521"))) == (
        "q^7 - 4q^6 + 7q^5 - 8q^4 + 8q^3 - 7q^2 + 4q - 1"
    )


def test_degree_and_term_invariants():
    for u in all_perms(4):
        for v in all_perms(4):
            if not bruhat_leq(u, v):
                continue
            r = r_polynomial(u, v)
            d = length(v) - length(u)
            assert r.degree == d
            assert r.coeffs[-1] == 1
            assert r.coeffs[0] == (-1) ** d


def _mirror(u, v):
    # (w0 v, w0 u), (w0 x)(i) = n + 1 - x(i): left multiplication by w0
    # reverses Bruhat order, and R_{u,v} = R_{w0 v, w0 u}
    return tuple(len(v) + 1 - a for a in v), tuple(len(u) + 1 - a for a in u)


def test_mirror_identity():
    # the mirrored pair's recursion steps at the ascents of u, a different
    # tree from the one at the descents of v; R~ is R renormalized, so it
    # is mirror-invariant too
    pairs = checks.comparable_pairs(4) + checks.sampled_pairs(6, 20, 7)
    assert len(pairs) == 189 + 20
    for u, v in pairs:
        assert r_polynomial(*_mirror(u, v)) == r_polynomial(u, v), (u, v)
        assert r_tilde(*_mirror(u, v)) == r_tilde(u, v), (u, v)
    # the self-mirrored pairs, u = w0 v, for which the memo answers the mirror
    assert sum(_mirror(u, v) == (u, v) for u, v in pairs[:189]) == 7


def test_r_tilde_substitution():
    for u, v in [(P("1234"), P("4231")), (P("1324"), P("4231"))]:
        assert r_tilde(u, v).coeffs[-1] == 1
        assert r_from_tilde(u, v) == r_polynomial(u, v)


def test_generalized_identity_on_minimal_transpositions():
    for u in all_perms(4):
        for v in all_perms(4):
            if u == v or not bruhat_leq(u, v):
                continue
            for t in inversion_minimal_transpositions(u, v):
                assert generalized_r_identity(u, v, t)


def test_generalized_identity_rejects_non_minimal():
    # extend_to_special_matching refuses such a t with the same reason
    for check in (generalized_r_identity, extend_to_special_matching):
        with pytest.raises(DomainError) as err:
            check(P("1324"), P("4231"), (2, 4))
        assert str(err.value) == (
            "(2,4) is not inversion-minimal on (1324, 4231): proper subinterval at positions (3,4)"
        )


def test_recurrence_counterexample_report():
    report = recurrence_counterexample_check()
    ce = report["counterexample"]
    assert ce["u"] == P("1324") and ce["v"] == P("4231") and ce["t"] == (2, 4)
    assert ce["lifting_relations_hold"]
    assert not ce["inversion_minimal"]
    assert not ce["identity_holds"]
    cf = report["converse_failure"]
    assert cf["u"] == P("1243") and cf["v"] == P("4312") and cf["t"] == (2, 4)
    assert cf["lifting_relations_hold"]
    assert not cf["inversion_minimal"]
    assert report["inversion_minimal_identity_holds"]


def test_lifting_relations_hold():
    assert lifting_relations_hold(P("1324"), P("4231"), (2, 4))
    # ut = 1234 < u, so the atom relation u < ut fails
    assert not lifting_relations_hold(P("2134"), P("4321"), (1, 2))


def test_multiplication_matching_is_special_on_lower_interval():
    I = interval(identity(4), P("4231"))
    M = multiplication_matching(I, (1, 2))
    assert M is not None
    assert is_special_matching(I, M)


def test_special_matching_r_identity_lower_interval():
    # every lower interval of S_4, so that both cases, M(u) > u and
    # M(u) < u, run under every special matching
    e = identity(4)
    moves = {True: 0, False: 0}
    for w in all_perms(4):
        if w == e:
            continue
        I = interval(e, w)
        for M in find_special_matchings(I):
            assert special_matching_r_identity(I, M), w
            for u in I.order:
                moves[length(M[u]) > length(u)] += 1
    assert moves[True] == moves[False] > 0


def test_special_matching_r_identity_on_every_lower_interval_of_s5():
    e = identity(5)
    count = 0
    for w in all_perms(5):
        if w != e:
            I = interval(e, w)
            for M in find_special_matchings(I):
                assert special_matching_r_identity(I, M), w
                count += 1
    assert count == 544


def test_special_matching_r_identity_checks_every_u(monkeypatch):
    # R_{u,w} off by one at a single u, every u in turn: the identity fails
    I = interval(identity(4), P("3412"))
    M = find_special_matchings(I)[0]
    for bad in I.order:
        def r(x, y, bad=bad):
            p = r_polynomial(x, y)
            return IntPolynomial((p.coeffs[0] + 1, *p.coeffs[1:])) if (x, y) == (bad, I.v) else p

        monkeypatch.setattr(rpoly, "r_polynomial", r)
        assert not special_matching_r_identity(I, M), bad


def test_special_matching_r_identity_reads_the_diagram_once(monkeypatch):
    I = interval(identity(4), P("4231"))
    M = multiplication_matching(I, (1, 2))
    calls = []
    monkeypatch.setattr(rpoly, "hasse", lambda J: calls.append(J) or hasse(J))
    assert special_matching_r_identity(I, M)
    assert calls == [I]


def test_special_matching_r_identity_refuses_bad_input():
    I = interval(identity(4), P("2341"))
    M = {}
    for a, b in [("1234", "1243"), ("1324", "1342"), ("2134", "2314"), ("2143", "2341")]:
        M[P(a)], M[P(b)] = P(b), P(a)
    with pytest.raises(DomainError, match="^matching is not special$"):
        special_matching_r_identity(I, M)
    J = interval(P("1243"), P("2341"))
    with pytest.raises(DomainError, match=r"^the matching identity is stated on lower intervals \[e, w\]$"):
        special_matching_r_identity(J, find_special_matchings(J)[0])


def test_multiplication_matching_off_the_hasse_diagram_is_none():
    # 1234 (1 3) = 3214 lies in [e, 4231] but does not cover 1234
    assert multiplication_matching(interval(identity(4), P("4231")), (1, 3)) is None


def test_matching_outside_the_interval_is_a_domain_error():
    # M(213) = 123 is a Hasse neighbour, but M(123) = 132 lies outside [123, 213]
    I = interval(P("123"), P("213"))
    with pytest.raises(DomainError):
        is_special_matching(I, {P("123"): P("132"), P("213"): P("123")})


def test_partial_or_non_involutive_map_is_a_domain_error():
    I = interval(P("1234"), P("3412"))
    M = dict(find_special_matchings(I)[0])
    del M[P("1234")]
    with pytest.raises(DomainError, match="^not a total Hasse-edge involution on the interval$"):
        is_special_matching(I, M)
    # every arrow is a cover of [123, 321], but 231 -> 321 -> 312
    steps = ["123", "132"], ["132", "123"], ["213", "231"], ["231", "321"], ["321", "312"], ["312", "213"]
    with pytest.raises(DomainError, match="^not a total Hasse-edge involution on the interval$"):
        is_special_matching(interval(P("123"), P("321")), {P(x): P(z) for x, z in steps})


def test_find_special_matchings_returns_involutions():
    I = interval(identity(4), P("3412"))
    matchings = find_special_matchings(I)
    assert matchings
    for M in matchings:
        assert is_special_matching(I, M)
        assert all(M[M[x]] == x for x in I.order)


def test_extend_to_special_matching_positive_golden():
    u, v = P("143265"), P("254163")
    M = extend_to_special_matching(u, v, (3, 6))
    assert isinstance(M, dict)
    assert is_special_matching(interval(u, v), M)
    forced = {
        (P("143265"), P("145263")),
        (P("153264"), P("154263")),
        (P("243165"), P("245163")),
        (P("253164"), P("254163")),
    }
    assert forced <= set(M.items())


def test_extend_to_special_matching_negative_golden():
    obs = extend_to_special_matching(P("1324"), P("4312"), (2, 4))
    assert isinstance(obs, MatchingObstruction)
    assert obs.conflict["kind"] == "cover-violation"
    assert obs.conflict["cover"] == (P("1324"), P("2314"))
    assert obs.conflict["Mx"] == P("1342")
    assert obs.conflict["My"] == P("2413")
    # the forced propagation chain recorded step by step
    forced = dict(obs.steps)
    assert forced[P("4312")] == P("4213")
    assert forced[P("1342")] == P("1324")
    assert "not >=" in str(obs)


def test_r_memo_is_bounded(monkeypatch):
    from bruhatpoly import rpoly

    monkeypatch.setattr(rpoly, "MEMO_LIMIT", 10)
    rpoly._MEMO.clear()
    sizes = []
    for v in sorted(all_perms(4)):
        r_polynomial(identity(4), v)
        r_tilde(identity(4), v)
        sizes.append(len(rpoly._MEMO))
    # a call that leaves more than MEMO_LIMIT entries leaves an empty memo;
    # one that leaves fewer keeps them for the next call
    assert max(sizes) <= 10
    assert any(a < b for a, b in zip(sizes, sizes[1:]))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
