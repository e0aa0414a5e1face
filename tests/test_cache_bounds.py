"""Caches belong to a call, or have a bound: every lru_cache in bruhatpoly
has a finite maxsize, the R-polynomial memo holds at most MEMO_LIMIT
entries between calls, and the suites' workers build the intervals they
are asked about, not their subintervals."""

import importlib
import pkgutil

import bruhatpoly
from bruhatpoly import checks, parabolic, perms, polytopes, rpoly
from bruhatpoly.intervals import interval
from bruhatpoly.perms import all_perms, identity, longest_element, parse_perm


def _module_caches():
    for info in pkgutil.iter_modules(bruhatpoly.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        mod = importlib.import_module(f"bruhatpoly.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters"):
                yield f"{info.name}.{name}", obj


def test_every_module_cache_is_bounded():
    caches = dict(_module_caches())
    assert "intervals.interval" in caches and "perms._cached_steps" in caches
    unbounded = [
        name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None
    ]
    assert unbounded == []


def test_step_cache_holds_only_small_permutations():
    """The cover steps are cached for n <= 6 only: [e, w0] at n = 7 and at
    n = 8 read every permutation's steps and leave the cache as it was."""
    interval.cache_clear()
    perms._cached_steps.cache_clear()
    try:
        assert len(interval(identity(5), longest_element(5))) == 120
        held = perms._cached_steps.cache_info().currsize
        assert held == 120
        for n in (7, 8):
            assert interval(identity(n), longest_element(n)).rank == n * (n - 1) // 2
            interval.cache_clear()
        assert perms._cached_steps.cache_info().currsize == held
        assert perms._cached_steps.cache_parameters()["maxsize"] >= 2 * sum(
            len(all_perms(n)) for n in range(1, 7)
        )
    finally:
        interval.cache_clear()
        perms._cached_steps.cache_clear()


def test_r_memo_keeps_its_limit_between_calls(monkeypatch):
    # [e, w0] of S_6 fills the memo with 274 entries, its zeros among them
    monkeypatch.setattr(rpoly, "MEMO_LIMIT", 50)
    rpoly._MEMO.clear()
    e, w0 = identity(6), longest_element(6)
    for recurrence in (rpoly.r_polynomial, rpoly.r_tilde):
        assert recurrence(e, w0).degree == 15
        assert len(rpoly._MEMO) <= rpoly.MEMO_LIMIT


def test_faces_pair_builds_only_its_own_interval():
    interval.cache_clear()
    report = checks.faces_pair((identity(4), longest_element(4)))
    assert report["failures"] == [] and report["lp_tests"] > 0
    assert interval.cache_info().currsize == 1


def test_parabolic_check_builds_no_subintervals():
    interval.cache_clear()
    report = parabolic.parabolic_faces_check(identity(4), parse_perm("3412"), (2,))
    assert report["all_faces_are_interval_sets"] and report["faces_found"] > 0
    assert interval.cache_info().currsize <= 2


def _entries(obj):
    """The entries of a container and of every container nested in it."""
    if isinstance(obj, dict):
        return len(obj) + sum(_entries(k) + _entries(v) for k, v in obj.items())
    if isinstance(obj, (list, set, tuple, frozenset)):
        return len(obj) + sum(_entries(x) for x in obj)
    return 0


def _container_sizes(module):
    """The entries of every module-level dict, list and set of module,
    everything nested in them included."""
    return {
        name: _entries(obj)
        for name, obj in vars(module).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set))
    }


def test_polytopes_keeps_no_module_state():
    """The face kernel's partition memos belong to one call: enumerating
    the faces and the diameter of S_5 [e, w0] leaves every module-level
    dict, list and set of polytopes, and everything nested in it, at its
    size."""

    before = _container_sizes(polytopes)
    u, v = identity(5), longest_element(5)
    assert len(polytopes.enumerate_faces(u, v)) == 541
    assert polytopes.diameter(u, v) == 10
    assert _container_sizes(polytopes) == before


def test_parabolic_keeps_no_module_state():
    """The faces check reads the point sets of [e, v] for the call: a
    check of an S_5 instance leaves every module-level container of
    parabolic at its size."""
    before = _container_sizes(parabolic)
    u, v, J = identity(5), parse_perm("35124"), (2, 4)
    report = parabolic.parabolic_faces_check(u, v, J)
    assert report["all_faces_are_interval_sets"] and report["faces_found"] > 1
    assert _container_sizes(parabolic) == before
