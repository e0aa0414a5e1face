"""Command-line interface.

Subcommands: interval, polytope, rpoly, check, parabolic.  Output is a
single document, rendered as text (default) or JSON (--format json, sorted
keys); identical inputs produce byte-identical output.  Wall-clock timing
is only included when --timing is passed, precisely to keep the default
output reproducible.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 property-suite
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import checks, parabolic, polytopes, rpoly
from .errors import DomainError
from .intervals import (
    atoms,
    coatoms,
    generalized_lift,
    interval,
    minimality_violation,
)
from .perms import apply_transposition, format_perm, parse_perm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SUITE_FAILED = 4


def _parse_transposition(text, n):
    try:
        i, k = (int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse transposition {text!r}; expected 'i,k'")
    if not 1 <= i < k <= n:
        raise DomainError(f"bad transposition ({i},{k}) for n={n}")
    return (i, k)


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _parse_J(text, n):
    if text == "":
        return ()
    try:
        J = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse J={text!r}; expected comma-separated indices")
    return parabolic.check_subset(n, J)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _write_json(obj, out, pad=""):
    """Append to out the text of json.dumps(obj, sort_keys=True, indent=2)
    after the CLI's conversions: keys become str (the last of colliding
    keys wins), sets sorted lists, an IntPolynomial its coefficients.  With
    an indent, json runs its pure-Python encoder; this one recursive pass
    writes the same text in less time."""
    if type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, rpoly.IntPolynomial):
        _write_json(obj.coeffs, out, pad)
    elif isinstance(obj, (dict, list, tuple, set, frozenset)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(obj, dict):
            obj = {str(k): v for k, v in obj.items()}
            head = "{\n" + inner
            for key in sorted(obj):
                out.append(head + encode_basestring_ascii(key) + ": ")
                _write_json(obj[key], out, inner)
                head = ",\n" + inner
            out.append("\n" + pad + "}")
            return
        head = "[\n" + inner
        for value in sorted(obj) if isinstance(obj, (set, frozenset)) else obj:
            out.append(head)
            _write_json(value, out, inner)
            head = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(obj))  # None, bools, floats; TypeError on the rest


def _render_text(doc):
    out = []

    def scalar(value):
        if isinstance(value, (list, tuple)):
            return " ".join(str(v) for v in value)
        return str(value)

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            if all(not isinstance(v, (dict, list, tuple)) for v in value.values()):
                body = "  ".join(f"{k}={v}" for k, v in value.items())
                out.append(f"{pad}{key}: {body}")
            else:
                out.append(f"{pad}{key}:")
                for k, v in value.items():
                    emit(k, v, depth + 1)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (dict, list, tuple)):
            out.append(f"{pad}{key}:")
            for v in value:
                if isinstance(v, dict) and all(
                    not isinstance(x, (dict, list, tuple)) for x in v.values()
                ):
                    body = "  ".join(f"{k}={x}" for k, x in v.items())
                    out.append(f"{pad}  - {body}")
                elif isinstance(v, (list, tuple)) and all(
                    not isinstance(x, (dict, list, tuple)) for x in v
                ):
                    out.append(f"{pad}  - {scalar(v)}")
                else:
                    emit("-", v, depth + 1)
        else:
            out.append(f"{pad}{key}: {scalar(value)}")

    for k, v in doc.items():
        emit(k, v, 0)
    return "\n".join(out)


def _emit(doc, args, started):
    """Print doc as text or, by _write_json, as JSON; --timing adds seconds."""
    if args.timing:
        doc["timing_seconds"] = round(time.perf_counter() - started, 3)
    if args.format == "json":
        out = []
        _write_json(doc, out)
        print("".join(out))
    else:
        print(_render_text(doc))


def _fmt_pair(t):
    return f"({t[0]},{t[1]})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_interval(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    I = interval(u, v)
    results = {
        "size": len(I),
        "rank": I.rank,
        "elements": [format_perm(z) for z in I.order],
        "atoms": [
            {"element": format_perm(z), "t": _fmt_pair(t)} for z, t in atoms(I)
        ],
        "coatoms": [
            {"element": format_perm(z), "t": _fmt_pair(t)} for z, t in coatoms(I)
        ],
    }
    if args.lift:
        if u == v:
            raise DomainError("generalized lifting needs u < v")
        t, ut, vt = generalized_lift(u, v)
        results["lift"] = {
            "t": _fmt_pair(t),
            "ut": format_perm(ut),
            "vt": format_perm(vt),
        }
    return {
        "command": "interval",
        "inputs": {"u": format_perm(u), "v": format_perm(v)},
        "results": results,
    }, EXIT_OK


def cmd_polytope(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    results = {}
    if args.dim:
        results["dimension"] = polytopes.dimension(u, v)
        results["partition"] = polytopes.format_partition(
            polytopes.block_partition(u, v)
        )
    if args.ineq:
        desc = polytopes.bip_inequalities(u, v)
        results["description"] = desc.to_json_dict()
    if args.faces:
        faces = polytopes.enumerate_faces(u, v)
        results["f_vector"] = list(
            polytopes.f_vector_of(faces, polytopes.dimension(u, v))
        )
        results["faces"] = [
            {"x": format_perm(x), "y": format_perm(y), "dim": d}
            for x, y, d in faces
        ]
    if args.toric:
        results["toric"] = polytopes.is_toric(u, v)
    if args.diameter:
        results["diameter"] = polytopes.diameter(u, v)
    if args.normal_cone:
        x = parse_perm(args.normal_cone[0])
        y = parse_perm(args.normal_cone[1])
        eqs, strict, witness = polytopes.normal_cone(x, y, u, v)
        results["normal_cone"] = {
            "equal_blocks": [list(b) for b in eqs],
            "strict": [f"w{a} < w{b}" for a, b in strict],
            "witness": list(witness),
        }
    if not results:
        results["dimension"] = polytopes.dimension(u, v)
        results["vertices"] = [format_perm(z) for z in polytopes.vertices(u, v)]
    return {
        "command": "polytope",
        "inputs": {"u": format_perm(u), "v": format_perm(v)},
        "results": results,
    }, EXIT_OK


def cmd_rpoly(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    r = rpoly.r_polynomial(u, v)
    results = {"r": str(r), "coefficients": list(r.coeffs)}
    if args.tilde:
        rt = rpoly.r_tilde(u, v)
        results["r_tilde"] = str(rt)
        results["r_tilde_coefficients"] = list(rt.coeffs)
    if args.generalized:
        t = _parse_transposition(args.generalized, len(u))
        why = minimality_violation(u, v, t)
        if why is not None:
            raise DomainError(
                f"({t[0]},{t[1]}) is not inversion-minimal on "
                f"({format_perm(u)}, {format_perm(v)}): {why['reason']} at "
                f"positions {_fmt_pair(why['positions'])}"
            )
        ut = apply_transposition(u, t)
        vt = apply_transposition(v, t)
        rhs = (
            rpoly.Q * rpoly.r_polynomial(ut, vt)
            + rpoly.Q_MINUS_1 * rpoly.r_polynomial(u, vt)
        )
        results["generalized"] = {
            "t": _fmt_pair(t),
            "lhs": str(r),
            "rhs": str(rhs),
            "rhs_terms": {
                "r_ut_vt": str(rpoly.r_polynomial(ut, vt)),
                "r_u_vt": str(rpoly.r_polynomial(u, vt)),
            },
            "identity_holds": r == rhs,
        }
    return {
        "command": "rpoly",
        "inputs": {"u": format_perm(u), "v": format_perm(v)},
        "results": results,
    }, EXIT_OK


def cmd_check(args):
    report = checks.run_suite(
        args.suite, n=args.n, sample=args.sample, seed=args.seed, jobs=args.jobs
    )
    doc = {
        "command": "check",
        "inputs": {
            "suite": args.suite,
            "n": args.n,
            "sample": args.sample,
            "seed": args.seed,
        },
        "results": report,
    }
    return doc, EXIT_OK if report["pass"] else EXIT_SUITE_FAILED


def cmd_parabolic(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    J = _parse_J(args.J, len(u))
    results = {"J": list(J)}
    if args.faces_check:
        report = parabolic.parabolic_faces_check(u, v, J)
        report = dict(report)
        report["u"] = format_perm(u)
        report["v"] = format_perm(v)
        report["J"] = list(J)
        results["faces_check"] = report
    else:
        points = parabolic.parabolic_bip_vertices(u, v, J)
        results["vertices"] = [list(p) for p in points]
    return {
        "command": "parabolic",
        "inputs": {"u": format_perm(u), "v": format_perm(v), "J": list(J)},
        "results": results,
    }, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bruhatpoly",
        description=(
            "Bruhat interval polytopes: intervals, lifting, dimension, faces, "
            "inequality descriptions, R-polynomials, and parabolic analogues."
        ),
    )
    def global_options(p, suppress=False):
        # registered on the main parser with real defaults and on every
        # subparser with SUPPRESS, so the flags work in either position
        default = argparse.SUPPRESS if suppress else None
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default=default if suppress else "text",
        )
        p.add_argument(
            "--jobs",
            type=_int_at_least(1),
            default=default if suppress else 1,
            help="worker processes for suites",
        )
        p.add_argument(
            "--timing",
            action="store_true",
            default=default if suppress else False,
            help="include wall-clock timing in the output",
        )

    global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interval", help="interval elements, atoms, coatoms, lifting")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--lift", action="store_true", help="include a generalized-lift witness")
    global_options(p, suppress=True)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("polytope", help="dimension, inequalities, faces, diameter")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--dim", action="store_true")
    p.add_argument("--ineq", action="store_true")
    p.add_argument("--faces", action="store_true")
    p.add_argument("--toric", action="store_true")
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--normal-cone", nargs=2, metavar=("x", "y"))
    global_options(p, suppress=True)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("rpoly", help="R-polynomials and the generalized recurrence")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--generalized", metavar="i,k", help="check the recurrence at a transposition")
    p.add_argument("--tilde", action="store_true")
    global_options(p, suppress=True)
    p.set_defaults(func=cmd_rpoly)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=checks.SUITES)
    # S_1 has no pair u < v, so every suite would pass vacuously
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.add_argument("--sample", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=7)
    global_options(p, suppress=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "parabolic",
        help="parabolic polytopes; J lists the fundamental-weight indices "
        "(W_J is generated by the OTHER simple reflections)",
    )
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--J", required=True, help="comma-separated weight indices, e.g. 1,3")
    p.add_argument("--vertices", action="store_true")
    p.add_argument("--faces-check", action="store_true")
    global_options(p, suppress=True)
    p.set_defaults(func=cmd_parabolic)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(doc, args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
