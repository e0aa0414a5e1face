"""A reference for the tests of maximal chains, sharing no code with the
cover table of bruhatpoly.intervals."""

import pytest

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
