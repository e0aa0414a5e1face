"""Batch property suites: every theorem-shaped statement in the package,
run exhaustively over S_n (n <= 4) or on seeded samples (any n).

Each suite returns a JSON-able report dict with per-property counts, an
explicit failure list (expected empty), and an overall "pass" flag.  The
suites are deterministic: identical (n, sample, seed) inputs give identical
reports.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, permutations
from math import factorial

from . import exactlp, intervals, parabolic, polytopes, rpoly
from .errors import DomainError
from .intervals import (
    _bits,
    atom_transpositions,
    coatom_transpositions,
    interval,
    inversion_minimal_transpositions,
)
from .perms import all_perms, bruhat_leq, format_perm, identity, inverse, length

def _comparable(n: int):
    S = range(1, n + 1)
    return (
        (u, v) for u in permutations(S) for v in permutations(S)
        if u != v and bruhat_leq(u, v)
    )


def _lex_perm(k: int, n: int):
    """The k-th permutation of S_n in lexicographic order, from 0."""
    rest = list(range(1, n + 1))
    out = []
    for i in range(n - 1, -1, -1):
        q, k = divmod(k, factorial(i))
        out.append(rest.pop(q))
    return tuple(out)


def comparable_pairs(n: int):
    """All (u, v) with u < v in S_n, lexicographic."""
    return tuple(_comparable(n))


def sampled_pairs(n: int, sample: int, seed: int):
    """Deterministic sample of comparable pairs u < v, drawn by seeded
    rejection from S_n x S_n without listing S_n; repeats are discarded.
    Raises DomainError when S_n has fewer than sample such pairs, where
    rejection would never end."""
    found = sum(1 for _ in islice(_comparable(n), sample))
    if found < sample:
        raise DomainError(
            f"sample {sample} exceeds the {found} comparable pairs u < v in S_{n}"
        )
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < sample:
        u = _lex_perm(rng.randrange(factorial(n)), n)
        v = _lex_perm(rng.randrange(factorial(n)), n)
        if u != v and (u, v) not in seen and bruhat_leq(u, v):
            seen.add((u, v))
            out.append((u, v))
    return tuple(out)


def _pair_name(u, v):
    return f"[{format_perm(u)},{format_perm(v)}]"


# ---------------------------------------------------------------------------
# per-pair workers (top level so a process pool can pickle them)
# ---------------------------------------------------------------------------


def lifting_pair(pair):
    u, v = pair
    failures = []
    ts = inversion_minimal_transpositions(u, v)
    if not ts:
        failures.append(f"{_pair_name(u, v)}: no inversion-minimal transposition")
    bad = [t for t in ts if not rpoly.lifting_relations_hold(u, v, t)]
    if bad:
        failures.append(f"{_pair_name(u, v)}: lifting fails for {bad}")
    return {"transpositions": len(ts), "failures": failures}


def dimension_pair(pair):
    """The dimension statements on [u, v]: basis exchange in every interval
    matroid; one label partition for every maximal chain, the atoms and the
    coatoms (so is_toric's block count is the chain-forest test, as
    tests/test_polytopes.py checks on sampled pairs); no increasing cycle
    in the atom or coatom labels; dimension = affine rank; and every bound
    of bip_inequalities equal to the support function h(A) of the points
    y(z)_a = n - z^{-1}(a), z in [u, v].  Their hull is affinely the
    polytope of [u^{-1}, v^{-1}], whose edges are covers (faces_pair checks
    the skeleton), so tight bounds cut it out, and of S_n just the y(z).
    One pass up the cover table gives each element the label partitions
    (as _block_reps tuples) of the chains from u to it, with counts."""
    u, v = pair
    n = len(u)
    failures = []
    I = interval(u, v)
    for conv in ("first-values", "top-positions"):
        for k, bases in enumerate(polytopes.interval_matroids(I, conv), 1):
            # exchange axiom: for bases A, B and a in A - B, some b in B - A makes A - a + b a basis
            if not all(
                any(A ^ 1 << a | 1 << b in bases for b in _bits(B & ~A))
                for A in bases for B in bases for a in _bits(A & ~B)
            ):
                failures.append(f"{_pair_name(u, v)}: basis exchange fails for k={k}, {conv}")
    atoms = atom_transpositions(u, v)

    # I.order extends Bruhat order: the chains into order[i] are all in reps[i] before row i is read
    reps = [{} for _ in I.order]
    reps[0][tuple(range(1, n + 1))] = 1
    for i, row in enumerate(I.up):
        for rep, count in reps[i].items():
            for j, (a, b) in row:
                lo, hi = sorted((rep[a - 1], rep[b - 1]))
                merged = tuple(lo if r == hi else r for r in rep)
                reps[j][merged] = reps[j].get(merged, 0) + count
    if reps[-1].keys() != {polytopes._block_reps(n, atoms)}:
        failures.append(f"{_pair_name(u, v)}: chain partition is chain-dependent")

    coatoms = coatom_transpositions(u, v)
    if polytopes.label_partition(n, atoms) != polytopes.label_partition(n, coatoms):
        failures.append(f"{_pair_name(u, v)}: atom/coatom partitions differ")
    if not (
        polytopes.increasing_cycle_free(n, atoms)
        and polytopes.increasing_cycle_free(n, coatoms)
    ):
        failures.append(f"{_pair_name(u, v)}: atom/coatom graph has an increasing cycle")

    failures += dimension_rank_pair(pair)["failures"]

    ys = [tuple(n - i for i in inverse(z)) for z in I.order]
    h = {A: m for A, m, _F in polytopes.support(ys, [range(1, n + 1)]) if len(A) < n}
    bounds = dict(polytopes.bip_inequalities(u, v).inequalities)
    failures += [
        f"{_pair_name(u, v)}: bound {bounds.get(A)} on {list(A)} is not h = {h[A]}"
        for A in h if bounds.get(A) != h[A]
    ]
    return {"chains": sum(reps[-1].values()), "failures": failures}


def faces_pair(pair):
    """The face theorem on [u, v], every pair x <= y read from its cover
    table: the criterion's faces (acyclic face graphs of
    polytopes.face_graphs), as vertex bitmasks over the sorted elements,
    are exactly the face lattice of exactlp and the facet closure of
    polytopes._faces, dims included, so every face is an interval; and
    each is exposed by its normal-cone witness.  The 1-skeleton
    (polytopes.skeleton) has diameter = rank and an edge up (but at v) and
    down (but at u) at every vertex."""
    u, v = pair
    failures = []
    I = interval(u, v)
    above, below = intervals.comparabilities(I)
    V, lattice = exactlp.face_lattice(I.order)
    crit = {}
    for i, j, G in polytopes.face_graphs(I, above):
        if polytopes.is_acyclic(G):
            S = above[i] & below[j]
            crit[S] = len(u) - G[1].bit_count()
            w = polytopes.witness(G)
            if exactlp.face_vertices(w, V) != S:
                failures.append(
                    f"{_pair_name(u, v)}: witness {w} does not expose {_pair_name(V[i], V[j])}"
                )
    if crit.keys() != lattice:
        failures.append(
            f"{_pair_name(u, v)}: {len(lattice)} lattice faces, {len(crit)} criterion faces, "
            f"{len(lattice & crit.keys())} shared"
        )
    if crit != dict(polytopes._faces(I)):
        failures.append(f"{_pair_name(u, v)}: facet closure differs from the criterion")

    adj = polytopes.skeleton(I)
    d = polytopes.skeleton_diameter(adj)
    if d is None:
        failures.append(f"{_pair_name(u, v)}: 1-skeleton is disconnected")
    elif d != I.rank:
        failures.append(f"{_pair_name(u, v)}: diameter != rank")
    # an edge is a cover, and V extends Bruhat order: up is a higher index
    for k, z in enumerate(V):
        if (z != v and not adj[k] >> k + 1) or (z != u and not adj[k] & (1 << k) - 1):
            failures.append(f"{_pair_name(u, v)}: vertex {format_perm(z)} misses an edge")

    if I.rank == 3:
        k = polytopes.crown_type(u, v)
        if polytopes.is_toric(u, v) != (k in (3, 4)):
            failures.append(f"{_pair_name(u, v)}: toric vs {k}-crown mismatch")

    return {"lp_tests": sum(map(int.bit_count, above)), "failures": failures}


def rpoly_pair(pair):
    """Four statements on R_{u,v}: the generalized recurrence at each
    inversion-minimal t; R_{u,v} = R_{w0 v, w0 u}, whose recursion steps at
    ascents of u (a pair with u = w0 v is its own mirror: the memo answers);
    degree d = l(v) - l(u), leading term 1, constant (-1)^d; R from R~."""
    u, v = pair
    failures = []
    r_min = rpoly.r_polynomial(u, v)
    ts = inversion_minimal_transpositions(u, v)
    if not all(rpoly.recurrence_terms(u, v, t)[2] == r_min for t in ts):
        failures.append(f"{_pair_name(u, v)}: generalized recurrence fails")
    w0u, w0v = (tuple(len(u) + 1 - a for a in w) for w in (u, v))
    if rpoly.r_polynomial(w0v, w0u) != r_min:
        failures.append(f"{_pair_name(u, v)}: R differs on the mirror {_pair_name(w0v, w0u)}")

    d = length(v) - length(u)
    if not (r_min.degree == d and r_min.coeffs[-1] == 1 and r_min.coeffs[0] == (-1) ** d):
        failures.append(f"{_pair_name(u, v)}: degree/leading/constant invariant fails")
    if rpoly.r_from_tilde(u, v) != r_min:
        failures.append(f"{_pair_name(u, v)}: tilde substitution mismatch")
    return {"transpositions": len(ts), "failures": failures}


def parabolic_instance(args):
    u, v, J = args
    rep = parabolic.parabolic_faces_check(u, v, J)
    keys = ("all_faces_are_interval_sets", "zero_cells_match_cosets", "edges_are_cover_pairs")
    failures = [f"{_pair_name(u, v)} J={list(J)}: {key} fails" for key in keys if not rep[key]]
    return {"faces": rep["faces_found"], "failures": failures}


def minkowski_pair(pair):
    u, v = pair
    return {
        conv: polytopes.minkowski_check(u, v, conv)
        for conv in ("first-values", "top-positions")
    }


# the sampled workers of the faces and dimension suites; dimension_pair
# runs its one too, and faces_pair reads the diameter from its skeleton
def diameter_pair(pair):
    u, v = pair
    failures = []
    if polytopes.diameter(u, v) != length(v) - length(u):
        failures.append(f"{_pair_name(u, v)}: diameter != rank")
    return {"failures": failures}


def dimension_rank_pair(pair):
    u, v = pair
    failures = []
    if polytopes.dimension(u, v) != exactlp.affine_rank(polytopes.vertices(u, v)):
        failures.append(f"{_pair_name(u, v)}: dimension != affine rank")
    return {"failures": failures}


def _map(worker, items, jobs):
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # single-job runs never load the pool
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items, chunksize=8))
    return [worker(item) for item in items]


def _collect(suite, n, pairs, results):
    """The report of one suite: every key but "failures" of the workers'
    results is a count, summed over the results."""
    counts = {}
    for r in results:
        for key, value in r.items():
            if key != "failures":
                counts[key] = counts.get(key, 0) + value
    failures = [f for r in results for f in r["failures"]]
    return {
        "suite": suite,
        "n": n,
        "pairs": len(pairs),
        "counts": counts,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# suite -> (worker over every pair of S_n, worker for sampled pairs); the
# sampled workers skip the checks that are exhaustive over [u, v]
PAIR_SUITES = {
    "lifting": (lifting_pair, lifting_pair),
    "dimension": (dimension_pair, dimension_rank_pair),
    "faces": (faces_pair, diameter_pair),
    "rpoly": (rpoly_pair, rpoly_pair),
}
SUITES = (*PAIR_SUITES, "parabolic", "all")


def suite_pairs(name, n=4, pairs=None, jobs=1):
    """One suite of PAIR_SUITES over every comparable pair of S_n, or with
    its sampled worker over the sampled pairs given."""
    worker = PAIR_SUITES[name][pairs is not None]
    pairs = pairs if pairs is not None else comparable_pairs(n)
    return _collect(name, n, pairs, _map(worker, pairs, jobs))


def suite_parabolic(n=4, jobs=1):
    e = identity(n)
    pairs = comparable_pairs(n) + tuple((z, z) for z in all_perms(n))
    instances = [
        (u, v, J)
        for size in range(1, n)
        for J in combinations(range(1, n), size)
        for u, v in pairs
        if parabolic.is_min_rep(v, J)
    ]
    results = _map(parabolic_instance, instances, jobs)
    report = _collect("parabolic", n, instances, results)

    # cross-stratum coincidence: distinct intervals, identical point sets
    if n == 4:
        J = (1, 3)
        same = parabolic.parabolic_bip_vertices(e, (4, 2, 3, 1), J) == \
            parabolic.parabolic_bip_vertices((1, 3, 2, 4), (4, 2, 3, 1), J)
        report["counts"]["coincident_pair_equal"] = int(same)
        if not same:
            report["failures"].append("point sets of (e,4231) and (1324,4231) differ")
            report["pass"] = False
    return report


def minkowski_experiment(n=4, jobs=1):
    """Not a pass/fail suite: records, for both matroid conventions, whether
    the Minkowski sum of the interval matroid polytopes recovers the
    interval polytope."""
    pairs = comparable_pairs(n)
    results = _map(minkowski_pair, pairs, jobs)
    summary = {}
    disagreements = []
    examples = {"first-values": [], "top-positions": []}
    for pair, res in zip(pairs, results):
        for conv, ok in res.items():
            bucket = summary.setdefault(conv, {"equal": 0, "unequal": 0})
            bucket["equal" if ok else "unequal"] += 1
            if not ok and len(examples[conv]) < 5:
                examples[conv].append(_pair_name(*pair))
        if res["first-values"] != res["top-positions"]:
            disagreements.append(_pair_name(*pair))
    return {
        "suite": "minkowski-experiment",
        "n": n,
        "pairs": len(pairs),
        "summary": summary,
        "conventions_disagree_on": len(disagreements),
        "disagreement_examples": disagreements[:5],
        "unequal_examples": examples,
        "pass": True,  # reported, not judged
    }


def suite_sampled(n=5, sample=500, seed=7, jobs=1):
    """The sampled large-n suite: every suite of PAIR_SUITES, with its
    sampled worker, on one draw of seeded comparable pairs."""
    pairs = sampled_pairs(n, sample, seed)
    parts = [suite_pairs(suite, n, pairs, jobs) for suite in PAIR_SUITES]
    return {
        "suite": "sampled",
        "n": n,
        "sample": sample,
        "seed": seed,
        "pairs": len(pairs),
        "parts": parts,
        "pass": all(p["pass"] for p in parts),
    }


def run_suite(name, n=4, sample=None, seed=7, jobs=1):
    """CLI entry: run one named suite (or all of them) and return the report."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if n > 4 and sample is None:
        raise DomainError(f"exhaustive suites are limited to n <= 4; pass --sample for n={n}")
    if sample is not None:
        if name == "all":
            return suite_sampled(n, sample, seed, jobs)
        if name not in PAIR_SUITES:
            raise DomainError(f"suite {name!r} has no sampled mode")
        return suite_pairs(name, n, sampled_pairs(n, sample, seed), jobs)
    if name in PAIR_SUITES:
        return suite_pairs(name, n, jobs=jobs)
    if name == "parabolic":
        return suite_parabolic(n, jobs=jobs)
    parts = [suite_pairs(suite, n, jobs=jobs) for suite in PAIR_SUITES] + [
        suite_parabolic(n, jobs=jobs),
        minkowski_experiment(n, jobs=jobs),
    ]
    return {
        "suite": "all",
        "n": n,
        "parts": parts,
        "pass": all(p["pass"] for p in parts),
    }
