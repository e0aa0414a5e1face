"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also an ordinary assertion, so the suite fails loudly if any
criterion regresses or exceeds its time budget.
"""

import time

import pytest

from bruhatpoly import checks, exactlp
from bruhatpoly.intervals import interval
from bruhatpoly.perms import identity, parse_perm
from bruhatpoly.polytopes import (
    bip_inequalities,
    block_partition,
    dimension,
    format_partition,
    is_face,
    vertices,
)
from bruhatpoly.rpoly import (
    MatchingObstruction,
    extend_to_special_matching,
    is_special_matching,
    r_polynomial,
    recurrence_counterexample_check,
)

P = parse_perm


def _criterion(name, budget_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except AssertionError:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS  {name}  ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"{name}: {elapsed:.2f}s over budget"


# ---------------------------------------------------------------------------
# 1. golden examples, < 1 s each
# ---------------------------------------------------------------------------


def test_golden_dimension():
    def body():
        assert dimension(P("1234"), P("1432")) == 2
        assert format_partition(block_partition(P("1234"), P("1432"))) == "|1|234|"
        assert dimension(P("1234"), P("3412")) == 3
        assert format_partition(block_partition(P("1234"), P("3412"))) == "|1234|"

    _criterion("golden: dimension and block partition", 1, body)


def test_golden_inequality_description():
    def body():
        desc = bip_inequalities(P("1324"), P("2431"))
        assert desc.equalities == (((1, 1, 1, 1), 10),)
        assert dict(desc.inequalities) == {
            (1,): 3,
            (2,): 3,
            (3,): 2,
            (4,): 2,
            (1, 2): 4,
            (1, 3): 5,
            (1, 4): 5,
            (2, 3): 5,
            (2, 4): 5,
            (3, 4): 3,
            (1, 2, 3): 6,
            (1, 2, 4): 6,
            (1, 3, 4): 6,
            (2, 3, 4): 6,
        }

    _criterion("golden: 14-inequality description of [1324,2431]", 1, body)


def test_golden_r_polynomials():
    def body():
        assert str(r_polynomial(P("21345"), P("53421"))) == (
            "q^8 - 4q^7 + 7q^6 - 8q^5 + 8q^4 - 8q^3 + 7q^2 - 4q + 1"
        )
        assert str(r_polynomial(P("31245"), P("43521"))) == (
            "q^6 - 4q^5 + 7q^4 - 8q^3 + 7q^2 - 4q + 1"
        )
        assert str(r_polynomial(P("21345"), P("43521"))) == (
            "q^7 - 4q^6 + 7q^5 - 8q^4 + 8q^3 - 7q^2 + 4q - 1"
        )

    _criterion("golden: the three displayed R-polynomials", 1, body)


def test_golden_face_example():
    def body():
        assert is_face(P("2143"), P("4132"), P("1243"), P("4132"))
        S = vertices(P("2143"), P("4132"))
        V = vertices(P("1243"), P("4132"))
        assert exactlp.is_face(S, V)

    _criterion("golden: [2143,4132] is a face of Q_{1243,4132}", 1, body)


def test_golden_special_matching_extension():
    def body():
        M = extend_to_special_matching(P("143265"), P("254163"), (3, 6))
        assert isinstance(M, dict)
        assert is_special_matching(interval(P("143265"), P("254163")), M)
        obs = extend_to_special_matching(P("1324"), P("4312"), (2, 4))
        assert isinstance(obs, MatchingObstruction)
        assert obs.conflict["kind"] == "cover-violation"
        assert obs.conflict["cover"] == (P("1324"), P("2314"))
        assert obs.conflict["Mx"] == P("1342")
        assert obs.conflict["My"] == P("2413")

    _criterion("golden: special-matching extension and obstruction", 1, body)


def test_golden_recurrence_counterexample():
    def body():
        report = recurrence_counterexample_check()
        ce = report["counterexample"]
        assert ce["lifting_relations_hold"] and not ce["inversion_minimal"]
        assert not ce["identity_holds"]
        cf = report["converse_failure"]
        assert cf["lifting_relations_hold"] and not cf["inversion_minimal"]
        assert report["inversion_minimal_identity_holds"]

    _criterion("golden: recurrence counterexample and converse failure", 1, body)


# ---------------------------------------------------------------------------
# 2. exhaustive S_4 suites, < 60 s total single-threaded
# ---------------------------------------------------------------------------

S4_SUITES = ("lifting", "dimension", "faces", "rpoly", "parabolic")


@pytest.fixture(scope="module")
def s4_runs():
    """The five suites, run once and shared by the tests below, so that
    the budget test sees all five times whichever tests are selected."""
    runs = {}
    for name in S4_SUITES:
        started = time.perf_counter()
        report = checks.run_suite(name, n=4, jobs=1)
        runs[name] = (report, time.perf_counter() - started)
    return runs


def _s4_suite(s4_runs, name):
    report, seconds = s4_runs[name]
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status}  S_4 suite: {name}  ({seconds:.2f}s)")
    assert report["pass"], report["failures"][:5]


def test_s4_suite_lifting(s4_runs):
    _s4_suite(s4_runs, "lifting")


def test_s4_suite_dimension(s4_runs):
    _s4_suite(s4_runs, "dimension")


def test_s4_suite_faces(s4_runs):
    _s4_suite(s4_runs, "faces")


def test_s4_suite_rpoly(s4_runs):
    _s4_suite(s4_runs, "rpoly")


def test_s4_suite_parabolic(s4_runs):
    _s4_suite(s4_runs, "parabolic")


def test_s4_total_budget(s4_runs):
    total = sum(seconds for _report, seconds in s4_runs.values())
    assert len(s4_runs) == 5
    print(f"PASS  S_4 suites total  ({total:.2f}s, budget 60s)")
    assert total < 60


# ---------------------------------------------------------------------------
# 3. sampled S_5 suite, < 120 s
# ---------------------------------------------------------------------------


def test_s5_sampled_suite():
    def body():
        report = checks.suite_sampled(n=5, sample=500, seed=7)
        assert report["pairs"] == 500
        assert report["pass"], [p for p in report["parts"] if not p["pass"]]

    _criterion("sampled S_5 suite (500 pairs, seed 7)", 120, body)


# ---------------------------------------------------------------------------
# 4. matroid-convention experiment: reported, not judged
# ---------------------------------------------------------------------------


def test_convention_experiment_report():
    report = checks.minkowski_experiment(4)
    summary = report["summary"]
    print(
        "PASS  convention experiment (reported, not judged): "
        + "; ".join(
            f"{name}: equal on {c['equal']}/{c['equal'] + c['unequal']} intervals"
            for name, c in sorted(summary.items())
        )
    )
    assert report["pass"]
    assert set(summary) == {"first-values", "top-positions"}
