import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bruhatpoly import checks, cli, polytopes
from bruhatpoly.cli import _write_json, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_interval_text(capsys):
    code, out, err = run_cli(capsys, "interval", "2143", "3241", "--lift")
    assert code == 0
    assert "t: (2,4)" in out or "t=(2,4)" in out
    assert err == ""


def test_interval_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "interval", "1324", "2431"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "interval"
    assert doc["inputs"] == {"u": "1324", "v": "2431"}
    assert doc["results"]["size"] == 8


def test_not_comparable_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "interval", "2431", "1324")
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("interval", "1,,2", "2,1,3"),
        ("interval", "1,a", "2,1,3"),
        ("polytope", "1234", "4321", "--normal-cone", "1,,2", "4321"),
    ],
)
def test_malformed_comma_perm_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: cannot parse permutation:")
    assert err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interval"])  # missing arguments
    assert exc.value.code == 2


def test_polytope_dim(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "polytope", "1234", "1432", "--dim"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["dimension"] == 2
    assert doc["results"]["partition"] == "|1|234|"


def test_polytope_diameter_at_n7(capsys):
    # S_7 [e, w0]: 5,040 vertices, every ball grown at once in 21 rounds
    code, out, _ = run_cli(
        capsys, "--format", "json", "polytope", "1234567", "7654321", "--diameter"
    )
    assert code == 0
    assert json.loads(out)["results"]["diameter"] == 21


def test_polytope_ineq(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "polytope", "1324", "2431", "--ineq"
    )
    doc = json.loads(out)
    desc = doc["results"]["description"]
    assert len(desc["inequalities"]) == 14
    assert desc["equalities"][0]["rhs"] == 10


def test_polytope_ineq_at_n10(capsys):
    u = ",".join(map(str, range(1, 11)))
    v = "3,2,1,4,5,6,7,8,10,9"
    code, out, _ = run_cli(capsys, "polytope", u, v, "--ineq", "--format", "json")
    assert code == 0
    desc = json.loads(out)["results"]["description"]
    assert len(desc["vertices"]) == 12
    assert len(desc["inequalities"]) == 2**10 - 2


def _jsonable(obj):
    """Reference conversions, fed to json.dumps(sort_keys=True, indent=2)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}, {"e": []}]},
        {"t": True, "f": False, "none": None, "list": [True, False, None, 0, -3]},
        {"timing_seconds": 0.125, "tiny": 1e-07, "big": 1e300, "neg": -0.0},
        [[1, [2, [3, []]]], ("x", ("y",)), [{"k": [0]}]],
        {1: "int key", "1": "str key", None: 0, "None": 1, True: 2, (1, 2): 3},
        {"text": 'quote " backslash \\ newline \n tab \t', "uni": "\u00e9\u2603"},
    ],
)
def test_json_writer_matches_json_dumps(doc):
    out = []
    _write_json(doc, out)
    assert "".join(out) == json.dumps(_jsonable(doc), sort_keys=True, indent=2)


def test_polytope_faces_includes_example(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "polytope", "1243", "4132", "--faces"
    )
    doc = json.loads(out)
    assert doc["results"]["f_vector"] == [8, 12, 6, 1]
    assert {"x": "2143", "y": "4132", "dim": 2} in doc["results"]["faces"]


def test_polytope_faces_past_the_bound_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(polytopes, "MAX_FACE_ELEMENTS", 5)
    code, out, err = run_cli(capsys, "polytope", "123", "321", "--faces")
    assert (code, out) == (3, "")
    assert err == "domain error: face enumeration is bounded to 5 elements; the interval has 6\n"


def _run_limited(limit_mb, argv):
    """The CLI on argv in a child process whose address space is limited to
    limit_mb MB."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit_mb << 20}, {limit_mb << 20}))\n"
        "from bruhatpoly.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


E60, W60 = ",".join(map(str, range(1, 61))), ",".join(map(str, range(60, 0, -1)))
# the elements the BFS holds when it refuses [e, w0]: it checks the bound
# after each element's covers, so one wide layer of S_60 never fills memory
FOUND = {"123456789": 40321, E60: 40352}


@pytest.mark.parametrize("argv", [
    ("interval", "123456789", "987654321"),
    ("interval", "123456789", "987654321", "--lift"),
    ("polytope", "123456789", "987654321", "--ineq"),
    ("interval", E60, W60),
])
def test_interval_past_the_bound_is_domain_error(argv):
    # under 1 GB an unbounded interval BFS at n = 9 ends in a MemoryError
    # after about 16 s, and one bounded only after each whole layer does at
    # n = 60 after about 8 s
    done = _run_limited(1024, argv)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"domain error: [{argv[1]}, {argv[2]}] has more than 40320 elements: "
        f"{FOUND[argv[1]]} found\n"
    )


def test_faces_at_n8_are_refused_within_256_mb():
    # the table of all 40,320 elements of S_8 fits, about 150 MB at peak;
    # with its comparabilities it took more than 300 MB
    done = _run_limited(256, ("polytope", "12345678", "87654321", "--faces"))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "domain error: face enumeration is bounded to 5040 elements; the interval has 40320\n"
    )


def test_diameter_at_n8_is_refused_within_256_mb():
    # the ball rounds over all 40,320 elements of S_8 peaked at 742 MB
    done = _run_limited(256, ("polytope", "12345678", "87654321", "--diameter"))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "domain error: the diameter is bounded to 5040 elements; the interval has 40320\n"
    )


def test_check_suites_are_the_checks_suites():
    assert cli.SUITES == checks.SUITES


def test_rpoly_golden(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "rpoly", "21345", "53421")
    doc = json.loads(out)
    assert doc["results"]["r"] == (
        "q^8 - 4q^7 + 7q^6 - 8q^5 + 8q^4 - 8q^3 + 7q^2 - 4q + 1"
    )
    assert doc["results"]["coefficients"] == [1, -4, 7, -8, 8, -8, 7, -4, 1]


def test_rpoly_identity(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "rpoly", "1234", "4321", "--generalized", "3,4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["generalized"]["identity_holds"] is True


def test_rpoly_rejects_non_minimal(capsys):
    code, out, err = run_cli(capsys, "rpoly", "1324", "4231", "--generalized", "2,4")
    assert code == 3
    assert "not inversion-minimal" in err


@pytest.mark.parametrize("t, reason", [
    ("2,4", "(2,4) is not inversion-minimal on (1324, 4231): proper subinterval at positions (3,4)"),
    ("2,3", "(2,3) is not inversion-minimal on (1324, 4231): endpoints at positions (2,3)"),
    ("1,5", "bad transposition (1,5) for n=4"),
])
def test_rpoly_generalized_refusal_names_its_reason(capsys, t, reason):
    code, out, err = run_cli(capsys, "rpoly", "1324", "4231", "--generalized", t)
    assert (code, out, err) == (3, "", f"domain error: {reason}\n")


def test_rpoly_generalized_needs_comparable(capsys):
    # (2,3) passes the minimality scan, but 1243 is not <= 1324: the identity
    # would hold vacuously with both sides 0
    code, out, err = run_cli(capsys, "rpoly", "1243", "1324", "--generalized", "2,3")
    assert code == 3
    assert out == ""
    assert err == "domain error: 1243 is not <= 1324 in Bruhat order\n"


def test_parabolic_vertices(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "parabolic", "1234", "2413", "--J", "2"
    )
    assert code == 0
    doc = json.loads(out)
    pts = doc["results"]["vertices"]
    assert all(sorted(set(p)) in ([0, 1], [1]) for p in pts)
    assert all(sum(p) == 2 for p in pts)


def test_parabolic_rejects_non_min_rep(capsys):
    code, _, err = run_cli(capsys, "parabolic", "1234", "3142", "--J", "2")
    assert code == 3
    assert "min" in err


def test_check_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "check", "lifting", "--n", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pass"] is True


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "polytope", "1324", "2431")
    _, out2, _ = run_cli(capsys, "--format", "json", "polytope", "1324", "2431")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("check", "lifting", "--n", "0"),
    ("check", "lifting", "--n", "1"),
    ("check", "lifting", "--n", "3", "--sample", "0"),
])
def test_check_rejects_empty_runs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_check_sample_beyond_comparable_pairs(capsys):
    # S_3 has 13 pairs u < v; rejection sampling 100 of them would not end
    code, out, err = run_cli(capsys, "check", "lifting", "--n", "3", "--sample", "100")
    assert code == 3
    assert out == ""
    assert "13 comparable pairs" in err


@pytest.mark.parametrize("argv", [
    ("check", "lifting", "--n", "4", "--jobs", "0"),
    ("check", "lifting", "--n", "4", "--jobs", "-3"),
    ("--jobs", "0", "check", "lifting", "--n", "4"),
])
def test_jobs_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_sampled_faces_suite_is_labelled_faces(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "check", "faces", "--n", "5", "--sample", "3"
    )
    assert code == 0
    assert json.loads(out)["results"]["suite"] == "faces"


def test_sampled_suites_run_at_n6(capsys):
    # 212 points exceed the LP's scale guard, which no sampled worker needs
    code, out, err = run_cli(
        capsys, "--format", "json", "check", "all", "--n", "6", "--sample", "20"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)["results"]
    assert [p["suite"] for p in doc["parts"]] == ["lifting", "dimension", "faces", "rpoly"]
    assert doc["pass"] is True


def test_sampled_check_does_not_list_s_n(capsys):
    # S_12 has 479,001,600 elements; the sampler draws them one at a time
    code, out, err = run_cli(capsys, "check", "lifting", "--n", "12", "--sample", "20")
    assert (code, err) == (0, "")
    assert "pass: True" in out


@pytest.mark.parametrize("argv", [
    ("--timing", "--format", "json", "interval", "1324", "2431"),
    ("interval", "1324", "2431", "--timing", "--format", "json"),
    ("--format", "json", "check", "lifting", "--n", "3", "--timing"),
])
def test_timing_before_or_after_the_subcommand(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert isinstance(json.loads(out)["timing_seconds"], float)


def test_jobs_after_check_reaches_run_suite(capsys, monkeypatch):
    seen = []

    def run_suite(name, n=4, sample=None, seed=7, jobs=1):
        seen.append(jobs)
        return {"pass": True}

    monkeypatch.setattr(checks, "run_suite", run_suite)
    code, _, _ = run_cli(capsys, "check", "lifting", "--n", "3", "--jobs", "2")
    assert (code, seen) == (0, [2])
