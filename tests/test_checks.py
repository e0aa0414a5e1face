"""The suites' face checks are live: a face lattice that disagrees with the
Bruhat side makes them fail."""

from bruhatpoly import checks, exactlp, parabolic
from bruhatpoly.perms import identity, longest_element, parse_perm


def _lattice_with(monkeypatch, change):
    real = exactlp.face_lattice
    monkeypatch.setattr(exactlp, "face_lattice", lambda V: change(real(V), V))


def test_faces_pair_sees_a_face_that_is_no_interval(monkeypatch):
    # {e, w0} is the hexagon's long diagonal, no face and no interval
    _lattice_with(monkeypatch, lambda L, V: L | {frozenset((V[0], V[-1]))})
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert failures == ["[123,321]: 14 faces, 13 of them intervals"]


def test_faces_pair_sees_a_missing_face(monkeypatch):
    _lattice_with(monkeypatch, lambda L, V: L - {frozenset([V[0]])})
    failures = checks.faces_pair((identity(3), longest_element(3)))["failures"]
    assert failures[0] == "[123,321]: criterion True vs lattice False on [123,123]"


def test_parabolic_check_sees_a_face_that_is_no_interval_set(monkeypatch):
    # J = (2,) gives the octahedron; its first and last points are opposite
    _lattice_with(monkeypatch, lambda L, V: L | {frozenset((V[0], V[-1]))})
    report = parabolic.parabolic_faces_check(identity(4), parse_perm("3412"), (2,))
    assert not report["all_faces_are_interval_sets"]
    assert not report["edges_are_cover_pairs"]
