"""The benchmark's three workloads: fixed operation lists with their checks.

Each workload function takes a relabeling (see oracle.RELABELINGS) and returns a list
of (op, check) pairs.  `op` is a JSON-able description that the child
process executes; `check(output)` returns True when the output agrees with
the independent oracle.  The items and their order never depend on the
seed: the seed only picks the relabeling, which keeps the work the same.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import oracle as O

# Every SHARE-th item of each exhaustive S_4 suite, in `check all` order.
SHARE = 12

# One hundred S_5 intervals of 6..54 elements (drawn once from
# random.Random(2024)), with [e, w0] after the first fifty, then two S_6
# intervals of 136 and 126 elements.  With half as many items the median op
# sat in a gap of the op times (8.4 vs 11.2 ms) and op_p50_ms jumped across
# it from run to run; a hundred fill the gap.  The full S_6 [e, w0] (about 280 s
# and 3.9 GB) is left out.
FACES_ITEMS = """
23154-42351 13452-45231 21435-43512 15234-35214 21453-53241 23145-32541
21354-25431 25134-54312 14235-52431 23145-25314 21354-52134 21354-52431
43125-45231 14235-34251 21453-54123 21354-51423 41325-54132 42135-54312
12453-41523 14253-35421 12345-14352 14253-42351 23514-45231 32415-52413
41523-43521 14532-53412 12354-14352 12345-51324 21453-41532 12354-34521
21534-41532 14253-52341 24351-54231 23415-34251 12534-51324 12345-34521
31245-35214 23145-52341 23154-42513 21345-51324 12534-52143 21345-53142
13425-32541 14523-45321 31254-51423 43512-54321 42315-43521 25134-35412
52134-54132 12453-42351
12345-54321
31254-42531 13425-34512 15234-45312 21435-35142 34125-45132 13245-25314
12354-42153 15432-54321 24135-52143 13245-15324 14235-51423 13245-31524
21354-43251 32451-52431 13425-24531 52134-54231 31524-45213 23154-53142
23145-54123 15243-52413 23415-54231 14253-25413 12354-52143 23514-35241
12345-32514 23154-25413 13524-51423 23514-52341 23145-43251 14253-41532
24351-45321 41235-42513 35124-54213 35124-53412 12435-42153 21354-45321
13524-35241 42513-45321 12534-31542 12354-24351 13452-53142 15342-53241
31254-43152 14325-43521 31542-54132 13524-35214 23145-34251 41523-54321
43125-54312 34215-54213
153426-563412 352146-564321
""".split()


def _perm(text):
    return tuple(int(c) for c in text)


def _same(expected):
    return lambda out: out == expected


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suites(lab):
    n = 4
    P = O.perms(n)
    comparable = [(u, v) for u in P for v in P if u != v and O.leq(u, v)]
    ops = []

    def add(fn, args, expected):
        ops.append(({"call": f"checks.{fn}", "args": [args]}, _same(expected)))

    share = [O.relabel_pair(lab, u, v) for u, v in comparable[::SHARE]]
    for u, v in share:
        add("lifting_pair", [u, v], {"transpositions": len(O.inversion_minimal(u, v)), "failures": []})
    for u, v in share:
        I = O.interval(u, v)
        add("dimension_pair", [u, v], {"chains": O.maximal_chains(u, v, I), "failures": []})
    for u, v in share:
        add("faces_pair", [u, v], {"lp_tests": O.comparable_pairs_within(O.interval(u, v)), "failures": []})
    for u, v in share:
        add("rpoly_pair", [u, v], {"transpositions": len(O.inversion_minimal(u, v)), "failures": []})
    instances = [
        (u, v, J)
        for J in O.subsets_1_to(n)
        for u, v in comparable + [(z, z) for z in P]
        if O.is_min_coset_rep(v, J)
    ]
    for u, v, J in instances[::SHARE]:
        u, v = O.relabel_pair(lab, u, v)
        J = O.relabel_weight_indices(lab, n, J)
        add("parabolic_instance", [u, v, J], {"faces": O.parabolic_face_count(u, v, J), "failures": []})
    for u, v in share:
        I = O.interval(u, v)
        add("minkowski_pair", [u, v], {
            conv: O.minkowski_equal(u, v, I, conv) for conv in ("first-values", "top-positions")
        })

    # `check all --n 5 --sample 500` (seed 7): four workers over every pair
    sample = [O.relabel_pair(lab, u, v) for u, v in O.pairs_sample(5, 500, 7)]
    counts = [len(O.inversion_minimal(u, v)) for u, v in sample]
    for (u, v), c in zip(sample, counts):
        add("lifting_pair", [u, v], {"transpositions": c, "failures": []})
    for u, v in sample:
        add("dimension_rank_pair", [u, v], {"failures": []})
    for (u, v), c in zip(sample, counts):
        add("rpoly_pair", [u, v], {"transpositions": c, "failures": []})
    for u, v in sample:
        add("diameter_pair", [u, v], {"failures": []})
    return ops


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def faces(lab):
    ops = []
    for item in FACES_ITEMS:
        u, v = O.relabel_pair(lab, *(_perm(p) for p in item.split("-")))
        I = O.interval(u, v)
        size, dim = len(I), O.affine_rank(I)
        ops.append((
            {"call": "polytopes.f_vector", "args": [u, v]},
            lambda out, size=size, dim=dim: O.f_vector_ok(out, size, dim),
        ))
    return ops


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

# Items per n, and the largest interval each may have.  --diameter runs a
# BFS from every vertex, so it only goes to intervals of at most 48
# elements, which keeps any single query from dominating the stream.
QUERY_ITEMS = {5: 48, 6: 48, 7: 48}
MAX_SIZE = 150
MAX_DIAMETER_SIZE = 48
KINDS = ("interval", "dim", "ineq", "toric", "diameter", "normal-cone",
         "tilde", "generalized", "parabolic")


def _query_items():
    """Fixed (u, v) pairs at n = 5..7: a random start and a random upward
    walk of 2..7 covers, from random.Random(1406)."""
    rng = random.Random(1406)
    items = []
    for n, count in QUERY_ITEMS.items():
        P = O.perms(n)
        picked = []
        while len(picked) < count:
            u = rng.choice(P)
            v = u
            for _ in range(rng.randint(2, 7)):
                ups = O.up_covers(v)
                if not ups:
                    break
                v = rng.choice(ups)[0]
            if v != u and (u, v) not in picked and len(O.interval(u, v)) <= MAX_SIZE:
                picked.append((u, v))
        items.extend(picked)
    return items


def _cli_output(out):
    """Parsed JSON of a CLI op that exited 0, else None."""
    if out.get("code") != 0:
        return None
    return json.loads(out["stdout"])["results"]


def queries(lab):
    ops = []
    for idx, (u0, v0) in enumerate(_query_items()):
        n = len(u0)
        u, v = O.relabel_pair(lab, u0, v0)
        I = O.interval(u, v)
        U, V = O.fmt(u), O.fmt(v)
        d = O.length(v) - O.length(u)
        dim = O.affine_rank(I)
        # four commands per item, rotating through the kinds
        kinds = [KINDS[(idx + j) % len(KINDS)] for j in range(4)]
        if len(I) > MAX_DIAMETER_SIZE and "diameter" in kinds:
            kinds[kinds.index("diameter")] = "dim" if "dim" not in kinds else "toric"
        for kind in kinds:
            argv, check = _query(kind, lab, u0, v0, u, v, U, V, I, d, dim, n)
            ops.append(({"cli": argv + ["--format", "json"]}, check))
    return ops


def _query(kind, lab, u0, v0, u, v, U, V, I, d, dim, n):
    def checked(fn):
        def check(out):
            res = _cli_output(out)
            return res is not None and fn(res)
        return check

    if kind == "interval":
        elements = sorted(I)
        atoms = sorted((y, t) for y, t in O.up_covers(u) if y in I)
        coatoms = sorted((x, t) for x, y, t in O.covers_in(I) if y == v)
        ts = O.inversion_minimal(u, v)

        def ok(res):
            lift = res["lift"]
            t = tuple(int(a) for a in lift["t"].strip("()").split(","))
            ut, vt = O.swap(u, *t), O.swap(v, *t)
            return (
                res["size"] == len(I)
                and res["rank"] == d
                and res["elements"] == [O.fmt(z) for z in elements]
                and [(a["element"], a["t"]) for a in res["atoms"]]
                == [(O.fmt(y), f"({i},{k})") for y, (i, k) in atoms]
                and [(a["element"], a["t"]) for a in res["coatoms"]]
                == [(O.fmt(x), f"({i},{k})") for x, (i, k) in coatoms]
                and t == ts[0]
                and lift["ut"] == O.fmt(ut) and lift["vt"] == O.fmt(vt)
                and ut in I and vt in I
                and O.length(ut) == O.length(u) + 1
                and O.length(vt) == O.length(v) - 1
            )
        return ["interval", U, V, "--lift"], checked(ok)

    if kind == "dim":
        blocks = O.bar_notation(O.position_blocks(n, I))
        return ["polytope", U, V, "--dim"], checked(
            lambda res: res["dimension"] == dim and res["partition"] == blocks
        )

    if kind == "ineq":
        masks = {}
        for k in range(1, n):
            masks[k] = {sum(1 << (a - 1) for a in z[:k]) for z in I}
        expected = []
        for size in range(1, n):
            for A in combinations(range(1, n + 1), size):
                am = sum(1 << (a - 1) for a in A)
                rhs = sum(max(bin(am & b).count("1") for b in masks[k]) for k in masks)
                expected.append({"subset": list(A), "rhs": rhs})
        equalities = [{"coeffs": [1] * n, "rhs": n * (n + 1) // 2}]
        verts = [list(z) for z in sorted(I)]
        return ["polytope", U, V, "--ineq"], checked(
            lambda res: res["description"] == {
                "vertices": verts, "equalities": equalities, "inequalities": expected,
            }
        )

    if kind == "toric":
        return ["polytope", U, V, "--toric"], checked(
            lambda res: res["toric"] is (dim == d)
        )

    if kind == "diameter":
        # the 1-skeleton diameter equals the rank of the interval
        return ["polytope", U, V, "--diameter"], checked(
            lambda res: res["diameter"] == d
        )

    if kind == "normal-cone":
        # a face exposed by a fixed functional, found on the unrelabeled
        # item and carried over, so that every relabeling asks for the
        # corresponding face
        I0 = O.interval(u0, v0)
        w = tuple((3 * i) % 5 - 2 for i in range(1, n + 1))
        x0, y0 = O.bruhat_min_max(O.argmax(w, sorted(I0)))
        x, y = O.relabel_pair(lab, x0, y0)
        F = O.interval(x, y)
        blocks = O.position_blocks(n, F)
        elements = sorted(I)

        def ok(res):
            cone = res["normal_cone"]
            return (
                O.argmax(cone["witness"], elements) == F
                and cone["equal_blocks"] == blocks
            )
        return ["polytope", U, V, "--normal-cone", O.fmt(x), O.fmt(y)], checked(ok)

    if kind == "tilde":
        def ok(res):
            r, rt = res["coefficients"], res["r_tilde_coefficients"]
            return (
                O.r_polynomial_ok(r, d)
                and len(rt) == d + 1 and rt[-1] == 1 and min(rt) >= 0
                and O.r_from_tilde(rt, d) == r
            )
        return ["rpoly", U, V, "--tilde"], checked(ok)

    if kind == "generalized":
        t0 = O.inversion_minimal(u0, v0)[-1]
        i, k = O.relabel_positions(lab, n, t0)

        def ok(res):
            g = res["generalized"]
            return (
                O.r_polynomial_ok(res["coefficients"], d)
                and g["identity_holds"] is True
                and g["lhs"] == g["rhs"] == res["r"]
                and g["t"] == f"({i},{k})"
            )
        return ["rpoly", U, V, "--generalized", f"{i},{k}"], checked(ok)

    if kind == "parabolic":
        # the coarsest J for which v is a minimal coset representative
        J = tuple(j for j in range(1, n) if v[j - 1] > v[j]) or (1,)
        points = [list(p) for p in O.parabolic_points(u, v, J)]
        return ["parabolic", U, V, "--J", ",".join(map(str, J)), "--vertices"], checked(
            lambda res: res["J"] == list(J) and res["vertices"] == points
        )
    raise ValueError(kind)


WORKLOADS = {"suites": suites, "faces": faces, "queries": queries}
