"""Golden record of the special matchings of S_4, as a sha256 of canonical JSON.

The CLI prints no special matching, so tests/golden_s4.json cannot see a
change to them.  This record holds:
- extend_to_special_matching on every triple (u, v, t) of S_4 with u < v
  and t inversion-minimal on (u, v): the matching it returns as sorted
  (x, M(x)) pairs, or the obstruction's steps, conflict and str;
- for every lower interval [e, w], w != e: find_special_matchings in the
  order it lists them, and is_special_matching on each of them.
Permutations are written in one-line notation.  tests/golden_matchings_s4.json
keeps the counts next to the digest, so a changed count names itself.

Regenerate (only when an output is meant to change, with the reason noted
in CHANGES.md):

    PYTHONPATH=src python tests/test_matchings_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from bruhatpoly.intervals import interval, inversion_minimal_transpositions
from bruhatpoly.perms import all_perms, bruhat_leq, format_perm, identity
from bruhatpoly.rpoly import (
    extend_to_special_matching,
    find_special_matchings,
    is_special_matching,
)

RECORD = Path(__file__).with_name("golden_matchings_s4.json")


def _canon(obj):
    """obj with every permutation as its one-line string, tuples as lists."""
    if isinstance(obj, tuple) and obj and all(isinstance(a, int) for a in obj):
        return format_perm(obj)
    if isinstance(obj, (tuple, list)):
        return [_canon(a) for a in obj]
    if isinstance(obj, dict):
        return {k: _canon(a) for k, a in obj.items()}
    return obj


def _matching(M):
    return sorted([format_perm(x), format_perm(mx)] for x, mx in M.items())


def outputs():
    perms = all_perms(4)
    extended = []
    for u in perms:
        for v in perms:
            if u == v or not bruhat_leq(u, v):
                continue
            for t in inversion_minimal_transpositions(u, v):
                out = extend_to_special_matching(u, v, t)
                if isinstance(out, dict):
                    record = {"matching": _matching(out)}
                else:
                    record = {
                        "steps": _canon(out.steps),
                        "conflict": _canon(out.conflict),
                        "str": str(out),
                    }
                extended.append([format_perm(u), format_perm(v), list(t), record])
    lower = []
    e = identity(4)
    for w in perms:
        if w == e:
            continue
        I = interval(e, w)
        found = find_special_matchings(I)
        lower.append([
            format_perm(w),
            [_matching(M) for M in found],
            [is_special_matching(I, M) for M in found],
        ])
    return {"extended": extended, "lower": lower}


def record():
    out = outputs()
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return {
        "triples": len(out["extended"]),
        "matchings": sum("matching" in r for *_args, r in out["extended"]),
        "obstructions": sum("steps" in r for *_args, r in out["extended"]),
        "lower_intervals": len(out["lower"]),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_special_matchings_are_unchanged():
    assert record() == json.loads(RECORD.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_matchings_golden.py --write")
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
