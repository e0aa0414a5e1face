from fractions import Fraction

import pytest

from bruhatpoly import exactlp
from bruhatpoly.errors import DomainError
from bruhatpoly.exactlp import (
    affine_rank,
    extreme_points,
    face_vertices,
    hull_membership,
    is_face,
    solve_eq_lp,
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


def test_hull_membership():
    assert hull_membership((0, 0), SQUARE)
    assert hull_membership((Fraction(1, 2), Fraction(1, 2)), SQUARE)
    assert not hull_membership((2, 0), SQUARE)
    with pytest.raises(DomainError):
        hull_membership((0, 0, 0), SQUARE)


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


def test_solve_eq_lp_optimal():
    # max x + y subject to x + y + s = 3, x - y = 1, all >= 0
    status, x, obj = solve_eq_lp(
        [[1, 1, 1], [1, -1, 0]], [3, 1], [1, 1, 0]
    )
    assert status == "optimal"
    assert obj == 3
    assert x[0] - x[1] == 1 and x[0] + x[1] + x[2] == 3


def test_solve_eq_lp_infeasible():
    status, _, _ = solve_eq_lp([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert status == "infeasible"


def test_solve_eq_lp_unbounded():
    status, _, _ = solve_eq_lp([[1, -1]], [0], [1, 0])
    assert status == "unbounded"


def test_solve_eq_lp_fractional_data():
    status, x, obj = solve_eq_lp(
        [[Fraction(1, 2), Fraction(1, 3)]], [Fraction(1)], [1, 0]
    )
    assert status == "optimal"
    assert obj == 2 and x[0] == 2


def test_solve_eq_lp_rejects_float_entries():
    with pytest.raises(DomainError, match="int or Fraction, got 0.5"):
        solve_eq_lp([[1, 0.5]], [1], [1, 0])


def test_solve_eq_lp_rejects_str_entries():
    with pytest.raises(DomainError, match="int or Fraction, got '1'"):
        solve_eq_lp([[1, 1]], ["1"], [1, 0])


def test_solve_eq_lp_rejects_ragged_rows():
    with pytest.raises(DomainError, match="shape"):
        solve_eq_lp([[1, 1], [1]], [1, 1], [1, 0])


def test_solve_eq_lp_rejects_vectors_of_wrong_length():
    with pytest.raises(DomainError, match="shape"):
        solve_eq_lp([[1, 1]], [1, 2], [1, 0])
    with pytest.raises(DomainError, match="shape"):
        solve_eq_lp([[1, 1]], [1], [1, 0, 0])


def test_extreme_points_drops_interior():
    pts = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]
    assert extreme_points(pts) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_face_vertices_argmax():
    assert face_vertices((1, 0), SQUARE) == [(1, 0), (1, 1)]
    assert face_vertices((0, 0), SQUARE) == SQUARE


def test_face_witness_consistency():
    """If S is a face, the exposing functional's argmax over V is S itself:
    cross-check is_face against the argmax of every small integer
    functional on a 3-dimensional example."""
    pts = sorted(all_perms(3))
    for w in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 3)]:
        S = face_vertices(w, pts)
        assert is_face(S, pts)


def test_scale_guard_is_on_the_lp_only():
    S6 = sorted(all_perms(6))  # 720 points, beyond MAX_POINTS
    assert affine_rank(S6) == 5
    with pytest.raises(DomainError, match="scale guard"):
        is_face(S6[:1], S6)
    with pytest.raises(DomainError, match="scale guard"):
        hull_membership(S6[0], S6)
    with pytest.raises(DomainError, match="scale guard"):
        extreme_points(S6)
    with pytest.raises(DomainError, match="empty"):
        affine_rank([])
    with pytest.raises(DomainError, match="mixed"):
        affine_rank([(1, 2), (1, 2, 3)])


def test_is_face_skips_the_rank_filter_on_one_point(monkeypatch):
    """Two distinct points always have affine rank 1, so the rank filter
    can never reject a one-point candidate; it is not run there."""
    calls = []
    real = exactlp.affine_rank

    def counting(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(exactlp, "affine_rank", counting)
    V = sorted(all_perms(3))
    assert all(is_face([p], V) for p in V)
    assert calls == []
    assert not is_face([V[0], V[-1]], V)  # opposite vertices of the hexagon
    assert calls
