import ast
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from bruhatpoly import exactlp
from bruhatpoly.errors import DomainError
from bruhatpoly.exactlp import (
    affine_rank,
    face_lattice,
    face_vertices,
    is_face,
)
from bruhatpoly.perms import all_perms

SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_affine_rank_basics():
    assert affine_rank([(3, 1, 2)]) == 0
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_rank(SQUARE) == 2
    hexagon = sorted(all_perms(3))
    assert affine_rank(hexagon) == 2  # lives in the plane sum = 6


def test_affine_rank_translation_invariant():
    pts = [(0, 0, 1), (2, 1, 0), (1, 1, 1), (0, 3, 2)]
    shifted = [(a + 5, b - 2, c + 7) for a, b, c in pts]
    assert affine_rank(pts) == affine_rank(shifted)


def test_affine_rank_reads_whole_fractions_as_ints():
    # denominators that are all 1 skip the scaling and keep the rank; a
    # float or str among them is still refused
    pts = [(0, 0, 1), (2, 1, 0), (1, 1, 1), (0, 3, 2)]
    whole = [tuple(Fraction(x, 1) for x in p) for p in pts]
    assert affine_rank(whole) == affine_rank(pts) == 3
    assert affine_rank(whole[:2] + pts[2:]) == 3
    assert affine_rank([tuple(Fraction(x, 2) for x in p) for p in pts]) == 3
    assert affine_rank(whole[:2] + [(Fraction(1, 2),) * 3, (1, 1, 1)]) == 3
    assert face_lattice(whole) == face_lattice(pts)
    for bad in (1.0, 0.5, "1"):
        with pytest.raises(DomainError, match=f"int or Fraction, got {bad!r}"):
            affine_rank(whole[:3] + [(0, bad, 0)])


def test_extreme_points_with_one_more_point(extreme_points):
    # a point of the hull adds no extreme point; one outside it is one
    assert extreme_points(SQUARE + [(0, 0)]) == SQUARE
    assert extreme_points(SQUARE + [(Fraction(1, 2), Fraction(1, 2))]) == SQUARE
    assert extreme_points(SQUARE + [(2, 0)]) == [(0, 0), (0, 1), (1, 1), (2, 0)]
    with pytest.raises(DomainError, match="mixed"):
        extreme_points(SQUARE + [(0, 0, 0)])


def test_is_face_square():
    assert is_face(SQUARE, SQUARE)  # whole polytope
    assert is_face([(0, 0)], SQUARE)  # vertex
    assert is_face([(0, 0), (0, 1)], SQUARE)  # edge
    assert not is_face([(0, 0), (1, 1)], SQUARE)  # diagonal
    assert not is_face([(0, 0), (0, 1), (1, 0)], SQUARE)


def test_is_face_rejects_non_subsets():
    with pytest.raises(DomainError):
        is_face([(5, 5)], SQUARE)


def test_is_face_midpoint_not_extreme():
    seg = [(0, 0), (1, 1), (2, 2)]
    assert not is_face([(1, 1)], seg)
    assert is_face([(0, 0)], seg)


def test_is_face_sees_the_affine_hull_beyond_S():
    # conv(V \ S) meets the line through S only outside the segment S,
    # on one side or the other; S is no face in either case
    S = [(0, 0), (1, 0)]
    assert not is_face(S, S + [(-1, 1), (-1, -1)])
    assert not is_face(S, S + [(2, 1), (2, -1)])
    assert is_face(S, S + [(2, 1), (-1, 1)])


def test_extreme_points_drops_interior(extreme_points):
    pts = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]
    assert extreme_points(pts) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_face_vertices_argmax():
    # a bitmask over SQUARE: (1, 0) and (1, 1) are its points 2 and 3
    assert face_vertices((1, 0), SQUARE) == 0b1100
    assert face_vertices((0, 0), SQUARE) == 0b1111


def test_face_witness_consistency():
    """If S is a face, the exposing functional's argmax over V is S itself:
    cross-check is_face against the argmax of every small integer
    functional on a 3-dimensional example."""
    pts = sorted(all_perms(3))
    for w in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 3)]:
        S = face_vertices(w, pts)
        assert is_face([p for k, p in enumerate(pts) if S >> k & 1], pts)


def test_scale_guard_is_on_the_lp_only(extreme_points):
    S6 = sorted(all_perms(6))  # 720 points, beyond MAX_POINTS
    assert affine_rank(S6) == 5
    with pytest.raises(DomainError, match="scale guard"):
        is_face(S6[:1], S6)
    with pytest.raises(DomainError, match="scale guard"):
        extreme_points(S6)
    with pytest.raises(DomainError, match="scale guard"):
        face_lattice(S6)
    with pytest.raises(DomainError, match="empty"):
        affine_rank([])
    with pytest.raises(DomainError, match="mixed"):
        affine_rank([(1, 2), (1, 2, 3)])


def test_scale_guard_counts_distinct_points():
    # 302 points, 3 of them distinct: a triangle, with 3 vertices, 3 edges
    # and itself
    V, faces = face_lattice([(0, 0)] * 300 + [(1, 0), (0, 1)])
    assert V == [(0, 0), (0, 1), (1, 0)]
    assert len(faces) == 7


def test_is_face_rejects_float_coordinates():
    with pytest.raises(DomainError, match="int or Fraction, got 0.5"):
        is_face([(0, 0)], [(0, 0), (1, 0.5)])
    with pytest.raises(DomainError, match="int or Fraction, got 0.5"):
        affine_rank([(0, 0), (1, 0.5)])


def test_is_face_rejects_str_coordinates():
    with pytest.raises(DomainError, match="int or Fraction, got '1'"):
        is_face([(0, 0)], [(0, 0), ("1", 1)])
    with pytest.raises(DomainError, match="int or Fraction, got '1'"):
        affine_rank([(0, 0), ("1", 1)])


def test_is_face_rejects_mixed_dimension():
    with pytest.raises(DomainError, match="mixed"):
        is_face([(0, 0)], [(0, 0), (1,)])
    with pytest.raises(DomainError, match="mixed"):
        face_lattice([(0, 0), (1, 1, 1)])


def test_fraction_triangle():
    # affine rank and faces see the Fraction coordinates, not their
    # integer parts, and agree with the same triangle scaled by 2
    half = Fraction(1, 2)
    V = [(0, 0), (half, 0), (half, half)]
    assert affine_rank(V) == 2
    assert is_face([(0, 0), (half, 0)], V)
    assert is_face([(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)])
    assert len(face_lattice(V)[1]) == 7


def _point_sets(V):
    """The faces of face_lattice(V) as frozensets of points."""
    uniq, masks = face_lattice(V)
    return {frozenset(p for k, p in enumerate(uniq) if F >> k & 1) for F in masks}


def _by_dim(faces):
    return Counter(affine_rank(sorted(F)) for F in faces)


CUBE = list(product((0, 1), repeat=3))


def test_cube_face_lattice():
    faces = _point_sets(CUBE)
    assert len(faces) == 27
    assert _by_dim(faces) == {0: 8, 1: 12, 2: 6, 3: 1}
    assert all(is_face(sorted(F), CUBE) for F in faces)
    # facets: the 6 sets where one coordinate is constant
    facets = {F for F in faces if len(F) == 4}
    assert facets == {
        frozenset(p for p in CUBE if p[i] == b) for i in range(3) for b in (0, 1)
    }


def test_double_description_keeps_only_facets():
    """The rays the double description ends with are exactly the facets.
    A redundant ray would still be tight on a face, so the lattice alone
    cannot see one; the adjacency test is what keeps them out."""
    uniq, facets = exactlp._facets(CUBE)
    assert sorted(
        sorted(p for i, p in enumerate(uniq) if f >> i & 1) for f in facets
    ) == sorted(sorted(p for p in CUBE if p[i] == b) for i in range(3) for b in (0, 1))
    # the permutohedron of S_4 has one facet per proper nonempty subset;
    # on the 5-cube the rank count alone would let 11 redundant rays by
    assert len(exactlp._facets(all_perms(4))[1]) == 14
    assert len(exactlp._facets(list(product((0, 1), repeat=5)))[1]) == 10


def test_fraction_cube_has_the_same_lattice():
    third = Fraction(1, 3)
    scaled = {p: tuple(third * x + 1 for x in p) for p in CUBE}
    faces = _point_sets(list(scaled.values()))
    assert faces == {frozenset(scaled[p] for p in F) for F in _point_sets(CUBE)}


def test_square_with_interior_point(extreme_points):
    V = SQUARE + [(Fraction(1, 2), Fraction(1, 2))]
    faces = _point_sets(V)
    assert faces == _point_sets(SQUARE) - {frozenset(SQUARE)} | {frozenset(V)}
    assert _by_dim(faces) == {0: 4, 1: 4, 2: 1}
    assert not is_face([V[-1]], V)
    assert extreme_points(V) == SQUARE


def test_collinear_points(extreme_points):
    V = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]
    assert _point_sets(V) == {
        frozenset([V[0]]), frozenset([V[-1]]), frozenset(V)
    }
    assert extreme_points(V) == [V[0], V[-1]]
    assert extreme_points(V + [(Fraction(5, 2), Fraction(5, 2), 1)]) == [V[0], V[-1]]
    assert extreme_points(V + [(4, 4, 1)]) == [V[0], (4, 4, 1)]


def test_duplicate_points(extreme_points):
    V = SQUARE + SQUARE[:2]
    assert face_lattice(V) == face_lattice(SQUARE)
    assert is_face([(0, 0), (0, 1)], V)
    assert extreme_points(V) == SQUARE


def test_square_embedded_in_r4():
    # an affine injection R^2 -> R^4 keeps every face
    def lift(p):
        a, b = p
        return (a + b, 2 * a - b + 1, 3, a - 4 * b)

    faces = _point_sets([lift(p) for p in SQUARE])
    assert faces == {frozenset(map(lift, F)) for F in _point_sets(SQUARE)}
    assert _by_dim(faces) == {0: 4, 1: 4, 2: 1}


def test_single_point(extreme_points):
    p = (1, Fraction(2, 3), 3)
    assert face_lattice([p]) == face_lattice([p, p]) == ([p], {1})
    assert is_face([p], [p])
    assert extreme_points([p]) == [p]
    assert extreme_points([p, p]) == [p]
    assert extreme_points([p, (1, 1, 3)]) == [p, (1, 1, 3)]


def test_oracle_imports_only_errors():
    """exactlp is ground truth for the Bruhat code, so it may take nothing
    from the package but its error types."""
    tree = ast.parse(Path(exactlp.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("bruhatpoly")
        ):
            module = (node.module or "").removeprefix("bruhatpoly.")
            assert module == "errors", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bruhatpoly") for a in node.names)
