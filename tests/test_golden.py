"""Golden corpus: sha256 of the CLI's JSON output over every S_4 pair u <= v.

Each entry of tests/golden_s4.json maps a command line to the sha256 of its
`--format json` stdout and its exit code.  The commands are `interval`,
`interval --lift` (u < v only), `polytope --dim --faces --ineq --toric
--diameter` and `rpoly --tilde` on all 213 pairs u <= v of S_4, plus a
fixed list of `check` runs.  Added to those: `rpoly --generalized` at the
first inversion-minimal t of every pair u < v, `polytope --normal-cone u v`
on every pair, `parabolic` with and without `--faces-check` on every
instance (u, v, J) whose v is minimal in its coset, and each subcommand
once with the global flags after it and once with `--format text`.  A
refactor that keeps this file byte-identical keeps every output the CLI
prints for these commands.

Regenerate (only when an output is meant to change, with the reason noted
in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import combinations, permutations
from pathlib import Path

from bruhatpoly.cli import main

CORPUS = Path(__file__).with_name("golden_s4.json")

CHECKS = [
    ["check", suite, "--n", "3"]
    for suite in ("lifting", "dimension", "faces", "rpoly", "parabolic", "all")
] + [
    ["check", suite, "--n", "5", "--sample", "30"]
    for suite in ("lifting", "dimension", "faces", "rpoly", "all")
] + [["check", "all", "--n", "4"], ["check", "parabolic", "--n", "4"]]


def _leq(u, v):
    # tableau criterion: every sorted prefix of u is entrywise below v's
    return all(
        all(a <= b for a, b in zip(sorted(u[:k]), sorted(v[:k])))
        for k in range(1, len(u))
    )


def commands():
    perms = sorted(permutations(range(1, 5)))
    out = []
    for u in perms:
        for v in perms:
            if not _leq(u, v):
                continue
            U, V = "".join(map(str, u)), "".join(map(str, v))
            out.append(["interval", U, V])
            if u != v:
                out.append(["interval", U, V, "--lift"])
            out.append(["polytope", U, V, "--dim", "--faces", "--ineq", "--toric", "--diameter"])
            out.append(["rpoly", U, V, "--tilde"])
    return out + CHECKS


def _first_inversion_minimal(u, v):
    # the lexicographically first (i, k) with v_i > v_k and u_i < u_k such
    # that no proper subinterval [p, q] of [i, k] has the same property
    def flip(p, q):
        return v[p] > v[q] and u[p] < u[q]

    return next(
        (i + 1, k + 1)
        for i, k in combinations(range(len(u)), 2)
        if flip(i, k) and not any(
            flip(p, q) for p, q in combinations(range(i, k + 1), 2) if (p, q) != (i, k)
        )
    )


def _is_min_in_coset(v, J):
    # W_J permutes the positions within the blocks cut after each j in J;
    # the minimal representative of v W_J sorts v within each block
    cuts = [0, *J, len(v)]
    return all(list(v[a:b]) == sorted(v[a:b]) for a, b in zip(cuts, cuts[1:]))


GLOBAL_FLAGS_AFTER = [
    ["interval", "1324", "2431", "--lift"],
    ["polytope", "1324", "2431"],
    ["rpoly", "1234", "4321", "--tilde", "--generalized", "3,4"],
    ["check", "lifting", "--n", "3"],
    ["parabolic", "1234", "2413", "--J", "2", "--vertices"],
]


def added_commands():
    perms = sorted(permutations(range(1, 5)))
    Js = [J for size in (1, 2, 3) for J in combinations((1, 2, 3), size)]
    out = []
    for u in perms:
        for v in perms:
            if not _leq(u, v):
                continue
            U, V = "".join(map(str, u)), "".join(map(str, v))
            if u != v:
                i, k = _first_inversion_minimal(u, v)
                out.append(["rpoly", U, V, "--generalized", f"{i},{k}"])
            out.append(["polytope", U, V, "--normal-cone", U, V])
            for J in Js:
                if _is_min_in_coset(v, J):
                    J_text = ",".join(map(str, J))
                    out.append(["parabolic", U, V, "--J", J_text])
                    out.append(["parabolic", U, V, "--J", J_text, "--faces-check"])
    for argv in GLOBAL_FLAGS_AFTER:
        out.append([*argv, "--jobs", "2", "--format", "json"])
        out.append([*argv, "--format", "text"])
    return out


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(["--format", "json", *argv])
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return {"exit": code, "sha256": digest}


def corpus():
    return {" ".join(argv): run(argv) for argv in commands() + added_commands()}


def test_pair_count():
    assert sum(1 for argv in commands() if argv[0] == "rpoly") == 213


def test_golden_corpus_is_unchanged():
    expected = json.loads(CORPUS.read_text())
    actual = corpus()
    assert actual.keys() == expected.keys()
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    CORPUS.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n")
