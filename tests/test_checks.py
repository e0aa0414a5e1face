"""The suites' checks are live: a face lattice that disagrees with the
Bruhat side, matroid bases that break the exchange axiom, or a cover table
with a wrong label make them fail."""

from itertools import combinations, permutations

import pytest

from bruhatpoly import checks, exactlp, parabolic, polytopes, rpoly
from bruhatpoly.intervals import BruhatInterval, interval
from bruhatpoly.perms import all_perms, format_perm, identity, longest_element, parse_perm


def _lattice_with(monkeypatch, change):
    # change(masks, N) edits the face masks over the N sorted points
    real = exactlp.face_lattice

    def changed(V):
        uniq, masks = real(V)
        return uniq, change(masks, len(uniq))

    monkeypatch.setattr(exactlp, "face_lattice", changed)


def _closure_with(monkeypatch, change):
    # the same edit on the facet closure, the lattice parabolic_faces_check reads
    real = exactlp.intersections

    def changed(facets, full):
        return change(real(facets, full), full.bit_length())

    monkeypatch.setattr(exactlp, "intersections", changed)


def test_faces_pair_sees_a_face_that_is_no_interval(monkeypatch):
    # {e, w0} is the hexagon's long diagonal, no face and no interval
    _lattice_with(monkeypatch, lambda L, N: L | {1 | 1 << N - 1})
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert failures == ["[123,321]: 14 lattice faces, 13 criterion faces, 13 shared"]


def test_faces_pair_sees_a_missing_face(monkeypatch):
    _lattice_with(monkeypatch, lambda L, N: L - {1})
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert failures == ["[123,321]: 12 lattice faces, 13 criterion faces, 12 shared"]


def test_parabolic_check_sees_a_face_that_is_no_interval_set(monkeypatch):
    # J = (2,) gives the octahedron; its first and last points are opposite
    _closure_with(monkeypatch, lambda L, N: L | {1 | 1 << N - 1})
    report = parabolic.parabolic_faces_check(identity(4), parse_perm("3412"), (2,))
    assert not report["all_faces_are_interval_sets"]
    assert not report["edges_are_cover_pairs"]


def test_parabolic_check_sees_a_dropped_vertex(monkeypatch):
    _closure_with(monkeypatch, lambda L, N: L - {1})
    report = parabolic.parabolic_faces_check(identity(4), parse_perm("3412"), (2,))
    assert not report["zero_cells_match_cosets"]
    assert report["all_faces_are_interval_sets"]


def test_dimension_pair_sees_a_broken_basis_exchange(monkeypatch):
    # {12, 34} are the bases of no matroid: 12 - 1 + 3 and 12 - 1 + 4 are not bases
    real = polytopes.interval_matroids

    def broken(I, convention):
        matroids = real(I, convention)
        if convention == "top-positions":
            matroids[1] = frozenset({0b110, 0b11000})  # M_2, bases {1, 2} and {3, 4}
        return matroids

    monkeypatch.setattr(polytopes, "interval_matroids", broken)
    failures = checks.dimension_pair((identity(4), longest_element(4)))["failures"]
    assert failures == ["[1234,4321]: basis exchange fails for k=2, top-positions"]


def _bounds_moved(monkeypatch, step):
    # the first bound, x_1 <= 3 in flag coordinates, moved by step
    real = polytopes.bip_inequalities

    def moved(u, v):
        desc = real(u, v)
        (A, rhs), *rest = desc.inequalities
        return desc._replace(inequalities=((A, rhs + step), *rest))

    monkeypatch.setattr(polytopes, "bip_inequalities", moved)


def test_dimension_pair_sees_a_wrong_inequality(monkeypatch):
    # x_1 <= 2 cuts off the six points with w(1) = 1
    _bounds_moved(monkeypatch, -1)
    failures = checks.dimension_pair((identity(4), longest_element(4)))["failures"]
    assert failures == ["[1234,4321]: bound 2 on [1] is not h = 3"]


def test_dimension_pair_sees_a_bound_that_is_not_tight(monkeypatch):
    # x_1 <= 4 cuts off nothing of S_4, but no point of [e, w0] attains it
    _bounds_moved(monkeypatch, 1)
    failures = checks.dimension_pair((identity(4), longest_element(4)))["failures"]
    assert failures == ["[1234,4321]: bound 4 on [1] is not h = 3"]


def test_dimension_pair_sees_a_matroid_rank_off_by_one(monkeypatch):
    # the rank sum raised by one on every subset, the bases kept: every
    # bound goes up by one and the basis exchange still holds
    real = polytopes.rank_sum
    monkeypatch.setattr(polytopes, "rank_sum", lambda matroids, A: real(matroids, A) + 1)
    failures = checks.dimension_pair((identity(4), longest_element(4)))["failures"]
    assert len(failures) == 14
    assert failures[0] == "[1234,4321]: bound 4 on [1] is not h = 3"


def test_dimension_pair_sees_a_relabelled_cover(monkeypatch):
    # (1 2) on 1234 -> 2134 read as (2 3): that chain joins {2, 3, 4}, the other {1, 2}, {3, 4}
    u, v = parse_perm("1234"), parse_perm("2143")
    real = interval(u, v)
    j = real.order.index(parse_perm("2134"))
    fields = {name: getattr(real, name) for name in BruhatInterval.__slots__}
    fields["up"] = (tuple((k, (2, 3) if k == j else t) for k, t in real.up[0]), *real.up[1:])
    monkeypatch.setattr(checks, "interval", lambda u, v: BruhatInterval(*fields.values()))
    report = checks.dimension_pair((u, v))
    assert report == {"chains": 2, "failures": ["[1234,2143]: chain partition is chain-dependent"]}


@pytest.mark.parametrize("u, v, sigma", [("1234", "2143", "1324"), ("12345", "21543", "23451")])
def test_dimension_pair_sees_every_chain_reach_another_partition(
    monkeypatch, maximal_chains, u, v, sigma
):
    # every cover label (a, b) read as (sigma(a), sigma(b)): the chains still
    # agree with each other, on sigma of the atoms' partition, which differs
    u, v, sigma = parse_perm(u), parse_perm(v), parse_perm(sigma)
    real = interval(u, v)
    fields = {name: getattr(real, name) for name in BruhatInterval.__slots__}
    fields["up"] = tuple(
        tuple((k, tuple(sorted((sigma[a - 1], sigma[b - 1])))) for k, (a, b) in row)
        for row in real.up
    )
    monkeypatch.setattr(checks, "interval", lambda u, v: BruhatInterval(*fields.values()))
    report = checks.dimension_pair((u, v))
    name = f"[{format_perm(u)},{format_perm(v)}]"
    assert report["failures"] == [f"{name}: chain partition is chain-dependent"]
    assert report["chains"] == len(maximal_chains(u, v)) > 1


@pytest.mark.parametrize("n, step", [(4, 1), (5, 25)])
def test_dimension_pair_counts_every_maximal_chain(n, step, maximal_chains):
    """The pass over the cover table counts the chains found by walking
    every maximal chain, and passes where they share one label partition:
    all of S_4 and every 25th pair of S_5."""
    for pair in checks.comparable_pairs(n)[::step]:
        chains = maximal_chains(*pair)
        assert len({polytopes.label_partition(n, labels) for _c, labels in chains}) == 1
        assert checks.dimension_pair(pair) == {"chains": len(chains), "failures": []}, pair


def _without_edges_at_v(adj):
    top = len(adj) - 1
    return [row & ~(1 << top) for row in adj[:top]] + [0]


def test_faces_pair_sees_a_vertex_without_an_edge(monkeypatch):
    # the skeleton without the covers into v: the coatoms lose their only
    # edge up and v all its edges, so the skeleton falls apart
    real = polytopes.skeleton
    monkeypatch.setattr(polytopes, "skeleton", lambda I: _without_edges_at_v(real(I)))
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert "[123,321]: 1-skeleton is disconnected" in failures
    assert [f for f in failures if f.endswith("misses an edge")] == [
        f"[123,321]: vertex {z} misses an edge" for z in ("231", "312", "321")
    ]


def _without_edge_at_e(adj):
    # the hexagon [123, 321] without one edge at e is a path on 6 vertices
    adj = list(adj)
    k = (adj[0] & -adj[0]).bit_length() - 1
    adj[0] &= ~(1 << k)
    adj[k] &= ~1
    return adj


@pytest.mark.parametrize("cut, d", [(_without_edge_at_e, 5), (_without_edges_at_v, None)])
def test_diameter_pair_sees_a_skeleton_that_loses_edges(monkeypatch, cut, d):
    real = polytopes.skeleton
    monkeypatch.setattr(polytopes, "skeleton", lambda I: cut(real(I)))
    u, v = identity(3), longest_element(3)
    assert polytopes.diameter(u, v) == d
    assert checks.diameter_pair((u, v))["failures"] == ["[123,321]: diameter != rank"]


def test_faces_pair_sees_a_closure_that_drops_a_facet(monkeypatch):
    real = polytopes._facets
    monkeypatch.setattr(polytopes, "_facets", lambda points, blocks: real(points, blocks)[1:])
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert failures == ["[123,321]: facet closure differs from the criterion"]


def test_faces_pair_sees_a_diameter_below_the_rank(monkeypatch):
    real = polytopes.skeleton_diameter
    monkeypatch.setattr(polytopes, "skeleton_diameter", lambda adj: real(adj) - 1)
    failures = checks.faces_pair((identity(4), longest_element(4)))["failures"]
    assert failures == ["[1234,4321]: diameter != rank"]


# (1234, 2143) has the inversion-minimal (1,2) and (3,4), and its mirror
# (w0 v, w0 u) is (3412, 4321)
RPOLY_PAIR = (parse_perm("1234"), parse_perm("2143"))


def test_rpoly_pair_sees_a_wrong_recurrence_step(monkeypatch):
    real = rpoly.recurrence_terms

    def shifted(u, v, t):
        r_ut_vt, r_u_vt, rhs = real(u, v, t)
        return r_ut_vt, r_u_vt, rpoly.IntPolynomial((0, *rhs.coeffs))

    monkeypatch.setattr(rpoly, "recurrence_terms", shifted)
    report = checks.rpoly_pair(RPOLY_PAIR)
    assert report == {"transpositions": 2, "failures": ["[1234,2143]: generalized recurrence fails"]}


def test_rpoly_pair_sees_a_wrong_mirror(monkeypatch):
    real = rpoly.r_polynomial
    mirror = (parse_perm("3412"), parse_perm("4321"))
    monkeypatch.setattr(
        rpoly, "r_polynomial", lambda u, v: rpoly.ONE if (u, v) == mirror else real(u, v)
    )
    assert checks.rpoly_pair(RPOLY_PAIR)["failures"] == [
        "[1234,2143]: R differs on the mirror [3412,4321]"
    ]


def _negated(monkeypatch):
    # -R and -R~ everywhere keep every identity but the leading and constant terms
    real = rpoly._recurrence
    monkeypatch.setattr(
        rpoly, "_recurrence",
        lambda u, v, tilde: rpoly.IntPolynomial(-c for c in real(u, v, tilde).coeffs),
    )


def _degree_off_by_one(monkeypatch):
    real = checks.length
    monkeypatch.setattr(checks, "length", lambda w: real(w) + (w == RPOLY_PAIR[1]))


@pytest.mark.parametrize("change", [_negated, _degree_off_by_one])
def test_rpoly_pair_sees_a_wrong_degree_or_term(monkeypatch, change):
    change(monkeypatch)
    assert checks.rpoly_pair(RPOLY_PAIR)["failures"] == [
        "[1234,2143]: degree/leading/constant invariant fails"
    ]


def test_rpoly_pair_sees_a_wrong_tilde_substitution(monkeypatch):
    monkeypatch.setattr(rpoly, "r_from_tilde", lambda u, v: rpoly.ONE)
    assert checks.rpoly_pair(RPOLY_PAIR)["failures"] == [
        "[1234,2143]: tilde substitution mismatch"
    ]


def test_lifting_pair_sees_no_inversion_minimal_transposition(monkeypatch):
    monkeypatch.setattr(checks, "inversion_minimal_transpositions", lambda u, v: [])
    report = checks.lifting_pair(RPOLY_PAIR)
    assert report == {
        "transpositions": 0,
        "failures": ["[1234,2143]: no inversion-minimal transposition"],
    }


def test_lifting_pair_sees_a_failed_lift(monkeypatch):
    real = rpoly.lifting_relations_hold
    monkeypatch.setattr(
        rpoly, "lifting_relations_hold", lambda u, v, t: t != (3, 4) and real(u, v, t)
    )
    report = checks.lifting_pair(RPOLY_PAIR)
    assert report == {"transpositions": 2, "failures": ["[1234,2143]: lifting fails for [(3, 4)]"]}


def test_sampler_unranks_in_lexicographic_order():
    S5 = all_perms(5)
    assert [checks._lex_perm(k, 5) for k in range(len(S5))] == S5


def _parabolic_instances(n):
    """Every (u, v, J) of the parabolic suite, from the definitions alone: v
    increasing inside each position block of J, and u <= v by the tableau
    criterion (each sorted prefix of u entrywise below v's)."""
    S = list(permutations(range(1, n + 1)))

    def leq(u, v):
        return all(all(a <= b for a, b in zip(sorted(u[:k]), sorted(v[:k]))) for k in range(1, n))

    return {
        (u, v, J)
        for size in range(1, n)
        for J in combinations(range(1, n), size)
        for v in S
        if all(list(v[a:b]) == sorted(v[a:b]) for a, b in zip((0, *J), (*J, n)))
        for u in S
        if leq(u, v)
    }


def _suite_parabolic_instances(monkeypatch, n):
    """The arguments suite_parabolic(n) hands parabolic_instance, in order."""
    seen = []
    monkeypatch.setattr(
        checks, "parabolic_instance", lambda args: seen.append(args) or {"failures": []}
    )
    checks.suite_parabolic(n)
    return seen


@pytest.mark.parametrize("n", [3, 4])
def test_suite_parabolic_runs_every_instance_once(monkeypatch, n):
    seen = _suite_parabolic_instances(monkeypatch, n)
    assert len(seen) == len(set(seen))
    assert set(seen) == _parabolic_instances(n)


def test_suite_parabolic_runs_13175_instances_at_n5(monkeypatch):
    assert len(_suite_parabolic_instances(monkeypatch, 5)) == 13175
