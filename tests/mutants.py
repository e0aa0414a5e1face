"""Mutation gate: each entry breaks the package in one known way, and a
named test has to notice.

Run from anywhere, with the standard library and pytest:

    python tests/mutants.py

The script copies src/, tests/, demos/ and bench/ (tier-1 reads the last
two) to a temporary directory and applies one mutant at a time there,
never in the working tree.  It runs the entry's test; if that passes, it
runs all of tier-1 with -x.  One pytest process runs at a time.  It prints
a kill table and exits 1 if a mutant not marked equivalent survives, or 2,
before running anything, if an entry's old text does not occur exactly
once in its file: a refactor that moves the code then updates this list.

An equivalent mutant changes no behaviour any test can see; it is run and
reported, and its survival of all of tier-1 also shows that tier-1 passes
on the unmutated copy, so the other kills are not artefacts of the copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "bench")

Mutant = namedtuple("Mutant", "name file old new test equivalent", defaults=(False,))

CHECKS = "src/bruhatpoly/checks.py"
POLYTOPES = "src/bruhatpoly/polytopes.py"
RPOLY = "src/bruhatpoly/rpoly.py"
INTERVALS = "src/bruhatpoly/intervals.py"
INSTANCES = "tests/test_checks.py::test_suite_parabolic_runs_every_instance_once"
PER_K = "tests/test_polytopes.py::test_interval_matroids_match_the_per_k_reference"
TWO_VERTEX = "tests/test_polytopes.py::test_skeleton_edges_are_the_two_vertex_faces"

MUTANTS = [
    # the parabolic suite's instances, read off [e, v]
    Mutant("parabolic suite without u = e", CHECKS,
           "for u in interval(e, v).order\n", "for u in interval(e, v).order[1:]\n", INSTANCES),
    Mutant("parabolic suite without u = v", CHECKS,
           "for u in interval(e, v).order\n", "for u in interval(e, v).order[:-1]\n", INSTANCES),
    Mutant("parabolic suite over every v", CHECKS,
           "        if parabolic.is_min_rep(v, J)\n", "", INSTANCES),
    # the special-matching layer
    Mutant("Hasse involution without M(z) = x", RPOLY,
           "M.get(z) == x and (z in lower[x] or z in upper[x])",
           "(z in lower[x] or z in upper[x])",
           "tests/test_rpoly.py::test_partial_or_non_involutive_map_is_a_domain_error"),
    Mutant("matching identity at the first u only", RPOLY,
           "== rhs(u) for u in I.order)", "== rhs(u) for u in I.order[:1])",
           "tests/test_rpoly.py::test_special_matching_r_identity_checks_every_u"),
    Mutant("require_inversion_minimal passes a proper subinterval", INTERVALS,
           "    if why := minimality_violation(u, v, t):\n",
           "    if (why := minimality_violation(u, v, t)) and why['reason'] == 'endpoints':\n",
           "tests/test_intervals.py::test_require_inversion_minimal_names_the_reason"),
    Mutant("multiplication matching unchecked", RPOLY,
           "return M if _hasse_involution(M, *hasse(I)) else None", "return M",
           "tests/test_rpoly.py::test_multiplication_matching_off_the_hasse_diagram_is_none"),
    # the interval matroids as base bitmasks
    Mutant("basis exchange draws b from A & B", CHECKS,
           "for b in _bits(B & ~A)", "for b in _bits(A & B)",
           "tests/test_acceptance.py::test_s4_suite_dimension"),
    Mutant("rank_sum skips M_1", POLYTOPES,
           "for M in matroids)", "for M in matroids[1:])",
           "tests/test_polytopes.py::test_rank_sum_matches_the_prefix_sets"),
    Mutant("base masks one bit low", POLYTOPES, "m |= 1 << a", "m |= 1 << a - 1", PER_K),
    Mutant("top-positions read 0-based", POLYTOPES,
           "[z.index(a) + 1 for a", "[z.index(a) for a", PER_K),
    Mutant("prefix mask not carried over", POLYTOPES, "m |= 1 << a", "m = 1 << a", PER_K),
    # value 1's position is the n-th entry, past every prefix of length <= n - 1
    Mutant("top-positions down to value 1", POLYTOPES,
           "for a in range(n, 1, -1)]", "for a in range(n, 0, -1)]", PER_K, equivalent=True),
    # the 1-skeleton from each vertex's tangent cone
    Mutant("skeleton without the cocover arcs", POLYTOPES,
           "        for c, d in down:\n            arcs[x[d - 1]] |= 1 << x[c - 1]\n", "", TWO_VERTEX),
    Mutant("reach only one arc deep", POLYTOPES,
           "reach[s] = deep[s] | arcs[s]", "reach[s] = arcs[s]", TWO_VERTEX),
]


def check_texts(mutants):
    """Each old text occurs exactly once in its file, or SystemExit(2)."""
    bad = [
        f"{m.name}: old text occurs {count} times in {m.file}"
        for m in mutants
        if (count := (ROOT / m.file).read_text().count(m.old)) != 1
    ]
    if bad:
        print("\n".join(["stale mutant list:", *bad]), file=sys.stderr)
        sys.exit(2)


def pytest_fails(copy, args):
    """The first failing test of `pytest -q args` in copy, or None if all pass.
    No bytecode is written: a restored file can keep its size and mtime."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if run.returncode == 0:
        return None
    failed = [
        line.split(" ", 1)[1].split(" - ")[0].split("[")[0]
        for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ]
    return failed[0] if failed else f"pytest exit {run.returncode}"


def run(mutant, copy):
    """Apply one mutant in copy, run its test and then tier-1, and restore."""
    path = copy / mutant.file
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new, 1))
    try:
        return pytest_fails(copy, [mutant.test]) or pytest_fails(copy, ["-x", "tests"])
    finally:
        path.write_text(text)


def main():
    check_texts(MUTANTS)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for d in COPIED:
            shutil.copytree(ROOT / d, copy / d, ignore=shutil.ignore_patterns("__pycache__", "results", "out"))
        width = max(len(m.name) for m in MUTANTS)
        for m in MUTANTS:
            killer = run(m, copy)
            if killer:
                status = f"killed by {killer}"
            else:
                status = "survives (equivalent)" if m.equivalent else "SURVIVES"
                if not m.equivalent:
                    survivors.append(m.name)
            print(f"{m.name:<{width}}  {status}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} non-equivalent survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
