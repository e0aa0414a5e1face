"""Golden corpus: sha256 of the CLI's JSON output over every S_4 pair u <= v.

Each entry of tests/golden_s4.json maps a command line to the sha256 of its
`--format json` stdout and its exit code.  The commands are `interval`,
`interval --lift` (u < v only), `polytope --dim --faces --ineq --toric
--diameter` and `rpoly --tilde` on all 213 pairs u <= v of S_4, plus a
fixed list of `check` runs.  A refactor that keeps this file byte-identical
keeps every output the CLI prints for these commands.

Regenerate (only when an output is meant to change, with the reason noted
in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import permutations
from pathlib import Path

from bruhatpoly.cli import main

CORPUS = Path(__file__).with_name("golden_s4.json")

CHECKS = [
    ["check", suite, "--n", "3"]
    for suite in ("lifting", "dimension", "faces", "rpoly", "parabolic", "all")
] + [
    ["check", suite, "--n", "5", "--sample", "30"]
    for suite in ("lifting", "dimension", "faces", "rpoly", "all")
]


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
    return {" ".join(argv): run(argv) for argv in commands()}


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
