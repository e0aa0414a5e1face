import signal

import pytest

from bruhatpoly import checks, intervals
from bruhatpoly.checks import comparable_pairs, sampled_pairs
from bruhatpoly.errors import DomainError, NotComparableError
from bruhatpoly.intervals import (
    atom_transpositions,
    atoms,
    chain_via_atoms,
    chain_via_coatoms,
    coatom_transpositions,
    coatoms,
    comparabilities,
    generalized_lift,
    hasse,
    interval,
    inversion_minimal_transpositions,
    is_inversion_minimal,
    lifting_relations_hold,
    minimality_violation,
    require_inversion_minimal,
)
from bruhatpoly.perms import (
    all_perms,
    apply_transposition,
    bruhat_leq,
    covers_up,
    identity,
    is_cover,
    length,
    longest_element,
)
from bruhatpoly.polytopes import (
    bip_inequalities,
    enumerate_faces,
    f_vector,
    f_vector_of,
    interval_matroids,
)
from bruhatpoly.rpoly import (
    MatchingObstruction,
    extend_to_special_matching,
    r_polynomial,
)


def test_interval_elements_are_exactly_the_sandwich():
    u, v = (1, 3, 2, 4), (2, 4, 3, 1)
    I = interval(u, v)
    expected = {
        z for z in all_perms(4) if bruhat_leq(u, z) and bruhat_leq(z, v)
    }
    assert set(I.order) == expected
    assert len(I) == 8
    assert I.rank == length(v) - length(u)


def test_interval_requires_comparable_endpoints():
    with pytest.raises(NotComparableError):
        interval((2, 4, 3, 1), (1, 3, 2, 4))


def test_atoms_and_coatoms_are_covers():
    u, v = (1, 2, 3, 4), (3, 4, 1, 2)
    for z, t in atoms(interval(u, v)):
        assert is_cover(u, z)
        assert apply_transposition(u, t) == z
    for z, t in coatoms(interval(u, v)):
        assert is_cover(z, v)
        assert apply_transposition(z, t) == v


def test_inversion_minimal_transpositions_exist_and_lift():
    """Every proper interval in S_4 admits an inversion-minimal
    transposition, and each one satisfies both lifting relations."""
    for u in all_perms(4):
        for v in all_perms(4):
            if u == v or not bruhat_leq(u, v):
                continue
            ts = inversion_minimal_transpositions(u, v)
            assert ts, (u, v)
            for t in ts:
                assert is_inversion_minimal(u, v, t)
                ut = apply_transposition(u, t)
                vt = apply_transposition(v, t)
                assert is_cover(vt, v) and bruhat_leq(u, vt)
                assert is_cover(u, ut) and bruhat_leq(ut, v)


def test_generalized_lift_witness():
    u, v = (2, 1, 4, 3), (3, 2, 4, 1)
    t, ut, vt = generalized_lift(u, v)
    assert t == (2, 4)
    assert ut == apply_transposition(u, t)
    assert vt == apply_transposition(v, t)
    assert is_cover(u, ut) and bruhat_leq(ut, v)
    assert is_cover(vt, v) and bruhat_leq(u, vt)


def test_minimality_violation_explains_failures():
    assert minimality_violation((1, 3, 2, 4), (4, 2, 3, 1), (2, 4)) is not None
    why = minimality_violation((1, 3, 2, 4), (4, 2, 3, 1), (2, 4))
    assert why["reason"] in ("endpoints", "proper subinterval")
    u, v = (2, 1, 4, 3), (3, 2, 4, 1)
    for t in inversion_minimal_transpositions(u, v):
        assert minimality_violation(u, v, t) is None


@pytest.mark.parametrize("t, message", [
    ((2, 4), "(2,4) is not inversion-minimal on (1324, 4231): proper subinterval at positions (3,4)"),
    ((2, 3), "(2,3) is not inversion-minimal on (1324, 4231): endpoints at positions (2,3)"),
    ((1, 5), "bad transposition (1,5) for n=4"),
])
def test_require_inversion_minimal_names_the_reason(t, message):
    with pytest.raises(DomainError) as err:
        require_inversion_minimal((1, 3, 2, 4), (4, 2, 3, 1), t)
    assert str(err.value) == message
    assert require_inversion_minimal((1, 3, 2, 4), (4, 2, 3, 1), (1, 2)) is None


@pytest.mark.parametrize("u, v, t", [
    ((1, 2, 3), (3, 2, 1), (0, 2)),
    ((1, 2, 3), (3, 2, 1), (2, 1)),
    ((1, 2, 3), (3, 2, 1), (1, 4)),
    ((1, 2, 3), (4, 3, 2, 1), (1, 2)),
])
def test_minimality_rejects_bad_input(u, v, t):
    for check in (minimality_violation, is_inversion_minimal):
        with pytest.raises(DomainError):
            check(u, v, t)


def test_chains_are_saturated(maximal_chains):
    """The lifted chains are maximal chains of [u, v], labelled by atoms
    and by coatoms as their docstrings state."""
    u, v = (1, 2, 3, 4), (3, 4, 1, 2)
    I = interval(u, v)
    labels = dict(maximal_chains(u, v))
    assert set(labels[chain_via_atoms(I)]) <= set(atom_transpositions(u, v))
    assert set(labels[chain_via_coatoms(I)]) <= set(coatom_transpositions(u, v))
    assert all(
        len(chain) == length(v) - length(u) + 1 and all(map(is_cover, chain, chain[1:]))
        for chain in labels
    )


def test_all_maximal_chains_count(maximal_chains):
    # rank-2 intervals in Bruhat order are diamonds: exactly two chains
    u, v = (1, 2, 3, 4), (1, 3, 4, 2)
    assert len(maximal_chains(u, v)) == 2
    assert checks.dimension_pair((u, v))["chains"] == 2


def test_table_above_bits_are_bruhat_order_on_s5():
    """The comparability bitsets of [e, w0] in S_5, above and below, equal
    bruhat_leq on all 14,400 ordered pairs, and above[i] & below[j] is the
    bitmask of the sandwich of the pair."""
    I = interval(identity(5), longest_element(5))
    order = I.order
    above, below = comparabilities(I)
    assert len(order) == 120 and list(order) == sorted(order)
    mismatches = [
        (x, y)
        for i, x in enumerate(order)
        for j, y in enumerate(order)
        if not bool(above[i] >> j & 1) == bool(below[j] >> i & 1) == bruhat_leq(x, y)
    ]
    assert mismatches == []
    x, y = order[3], order[100]
    assert bruhat_leq(x, y)
    S = above[3] & below[100]
    assert [z for k, z in enumerate(order) if S >> k & 1] == [
        z for z in order if bruhat_leq(x, z) and bruhat_leq(z, y)
    ]


def test_table_covers_are_the_cover_pairs_on_s4():
    """On every pair u <= v of S_4: the covers that hasse reads from the
    table are the pairs of [u, v] with y covering x, up carries their
    labels, and down holds the same labels at the upper element."""
    for u in all_perms(4):
        for v in all_perms(4):
            if not bruhat_leq(u, v):
                continue
            I = interval(u, v)
            assert (I.order[0], I.order[-1]) == (u, v)
            expected = frozenset(
                (x, y) for x in I.order for y in I.order if is_cover(x, y)
            )
            upper = hasse(I)[1]
            assert {(x, y) for x in I.order for y in upper[x]} == expected
            labelled = {
                (I.order[i], I.order[j], t)
                for i, row in enumerate(I.up)
                for j, t in row
            }
            # the label of a cover is the two positions where its ends differ
            assert labelled == {
                (x, y, tuple(k + 1 for k in range(4) if x[k] != y[k])) for x, y in expected
            }
            assert sorted((j, t) for j, row in enumerate(I.down) for t in row) == sorted(
                (j, t) for row in I.up for j, t in row
            )


def test_shared_results_refuse_assignment():
    """The interval cache hands one table to every caller, and the value
    objects built from an interval compare by value: none can be changed."""
    u, v = (1, 3, 2, 4), (4, 3, 1, 2)
    I = interval(u, v)
    obs = extend_to_special_matching(u, v, (2, 4))
    assert isinstance(obs, MatchingObstruction)
    assert all(type(M) is frozenset for M in interval_matroids(I, "first-values"))
    values = [bip_inequalities(u, v), obs, r_polynomial(u, v)]
    for obj, fields in [(I, I.__slots__), *((x, x._fields) for x in values)]:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
    assert len(I) == len(I.order) == 14
    assert interval(u, v) is I and I.v == v


def _reference_table(u, v):
    """(order, up, down, (above, below)) of [u, v] from covers_up and
    bruhat_leq alone: a BFS up from u through the covers that stay below v,
    and the comparabilities above[i] and below[j] from bruhat_leq on every
    pair."""
    ups, frontier = {}, [u]
    while frontier:
        for x in frontier:
            ups[x] = [(y, t) for y, t in covers_up(x) if bruhat_leq(y, v)]
        frontier = sorted({y for x in frontier for y, _t in ups[x]} - ups.keys())
    order = sorted(ups)
    index = {z: i for i, z in enumerate(order)}
    up = tuple(tuple(sorted((index[y], t) for y, t in ups[z])) for z in order)
    down = [[] for _ in order]
    for z in order:
        for y, t in ups[z]:
            down[index[y]].append(t)
    above = [sum(1 << j for j, y in enumerate(order) if bruhat_leq(x, y)) for x in order]
    below = [sum(1 << i for i, x in enumerate(order) if bruhat_leq(x, y)) for y in order]
    return tuple(order), up, tuple(map(tuple, down)), (above, below)


# [e, s1 s3 ... s15] in S_16, the 8-cube; and at n = 100 a hexagonal prism
# whose rank-matrix lanes take 8 bits
_CUBE = (tuple(range(1, 17)), tuple(a - (-1) ** a for a in range(1, 17)))
_REST = tuple(a for a in range(1, 101) if a not in (1, 50, 100, 2, 99))
_PRISM = ((1, 50, 100, 2, 99, *_REST), (100, 50, 1, 99, 2, *_REST))
_TABLE_PAIRS = [
    *((u, u) for u in all_perms(4)),
    *comparable_pairs(4),
    *sampled_pairs(5, 60, seed=11),
    *sampled_pairs(6, 12, seed=11),
    _CUBE,
    _PRISM,
]


def test_packed_bfs_is_the_reference_table():
    """On every pair u <= v of S_4, seeded S_5 and S_6 pairs, the 8-cube in
    S_16 and the n = 100 prism, the BFS on packed rank matrices builds the
    table of a BFS that compares every cover with v by bruhat_leq, and
    comparabilities the Bruhat order on it."""
    for u, v in _TABLE_PAIRS:
        I = interval(u, v)
        assert (I.order, I.up, I.down, comparabilities(I)) == _reference_table(u, v), (u, v)


def test_counted_f_vector_is_the_enumerated_one():
    for u, v in _TABLE_PAIRS:
        assert f_vector(u, v) == f_vector_of(enumerate_faces(u, v)), (u, v)


def _alarm(signum, frame):
    raise TimeoutError


@pytest.mark.parametrize("u, v", [
    # values 2..17: every y passes bruhat_leq(y, v), so an unchecked BFS walks S_16
    (tuple(range(1, 17)), tuple(a - (-1) ** a + 1 for a in range(1, 17))),
    ((1, 2, 3), (3, 3, 1)),
    ((0, 1, 2), (2, 1, 0)),
])
def test_interval_rejects_non_permutations(u, v):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        interval(u, v)
        outcome = "returned a table"
    except DomainError as exc:
        outcome = str(exc)
    except TimeoutError:
        outcome = "still running after a second"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome.startswith("not a permutation of 1.."), outcome


def test_interval_bound_counts_the_bfs_layers(monkeypatch):
    # S_4 [e, w0] has 24 elements; the cache is bypassed so the BFS runs
    build = interval.__wrapped__
    monkeypatch.setattr(intervals, "MAX_INTERVAL_ELEMENTS", 24)
    assert len(build(identity(4), longest_element(4))) == 24
    monkeypatch.setattr(intervals, "MAX_INTERVAL_ELEMENTS", 23)
    # its layers hold 1, 3, 5, 6, 5, 3 and 1 elements: the last takes the count past 23
    with pytest.raises(DomainError, match=r"^\[1234, 4321\] has more than 23 elements: 24 found$"):
        build(identity(4), longest_element(4))
    # the count is checked after each element's covers: the second element
    # of the layer of 5 takes it to 11, where the whole layer would give 15
    monkeypatch.setattr(intervals, "MAX_INTERVAL_ELEMENTS", 10)
    with pytest.raises(DomainError, match=r"^\[1234, 4321\] has more than 10 elements: 11 found$"):
        build(identity(4), longest_element(4))


def _labels_by_definition(u, v, up):
    """T-bar(u) (up) or T-underbar(v) (down), from the definition: every
    transposition t, kept when ut covers u with ut <= v, or when vt is
    covered by v with u <= vt."""
    n = len(u)
    out = []
    for t in ((i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)):
        w = u if up else v
        z = apply_transposition(w, t)
        if length(z) == length(w) + (1 if up else -1) and (
            bruhat_leq(z, v) if up else bruhat_leq(u, z)
        ):
            out.append(t)
    return out


def test_atom_and_coatom_labels_match_the_definition():
    """The slack test on the cover steps against the definition, on every
    ordered pair of S_4, incomparable ones included, and on sampled S_6
    pairs; and the lifting relations against their four comparisons."""
    pairs = [(u, v) for u in all_perms(4) for v in all_perms(4)]
    pairs += list(sampled_pairs(6, 60, 11))
    for u, v in pairs:
        atoms_ = _labels_by_definition(u, v, True)
        coatoms_ = _labels_by_definition(u, v, False)
        assert atom_transpositions(u, v) == atoms_, (u, v)
        assert coatom_transpositions(u, v) == coatoms_, (u, v)
        if len(u) == 4:
            for t in [(i, k) for i in range(1, 5) for k in range(i + 1, 5)]:
                ut, vt = apply_transposition(u, t), apply_transposition(v, t)
                four = (
                    length(vt) == length(v) - 1 and length(ut) == length(u) + 1
                    and bruhat_leq(u, vt) and bruhat_leq(ut, v)
                )
                assert lifting_relations_hold(u, v, t) == four, (u, v, t)
    for u, v in [((1, 2, 3), (4, 3, 2, 1)), ((4, 3, 2, 1), (3, 2, 1))]:
        for labels in (atom_transpositions, coatom_transpositions):
            with pytest.raises(DomainError, match="size mismatch"):
                labels(u, v)
