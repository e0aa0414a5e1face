"""References for the tests: the maximal chains, sharing no code with the
cover table of bruhatpoly.intervals, and the extreme points of a point
set, read off the face lattice of the exact polytope oracle."""

import pytest

from bruhatpoly.exactlp import face_lattice
from bruhatpoly.perms import bruhat_leq, covers_up


def _maximal_chains(u, v):
    """Every maximal chain of [u, v] as (elements, labels): walk covers_up
    from u, pruned by comparison with v."""
    if u == v:
        return [((u,), ())]
    return [
        ((u, *zs), (t, *ts))
        for y, t in covers_up(u) if bruhat_leq(y, v)
        for zs, ts in _maximal_chains(y, v)
    ]


@pytest.fixture
def maximal_chains():
    return _maximal_chains


def _extreme_points(points):
    """The extreme points, sorted: the points that are faces by themselves."""
    uniq, faces = face_lattice(points)
    return [p for k, p in enumerate(uniq) if 1 << k in faces]


@pytest.fixture
def extreme_points():
    return _extreme_points
