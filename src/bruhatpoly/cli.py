"""Command-line interface.

Subcommands: interval, polytope, rpoly, check, parabolic.  The global flags
--format, --jobs and --timing go before or after the subcommand.  main
parses the arguments and the pair u v, runs the subcommand and prints one
document, {"command": <subcommand>, "inputs": {...}, "results": {...}}:
inputs holds u and v (and J for parabolic) or check's suite, n, sample and
seed, and results is what the subcommand returns.  It is rendered as text
(default) or JSON (--format json, sorted keys); identical inputs produce
byte-identical output.  Wall-clock timing ("timing_seconds") is only
included when --timing is passed, precisely to keep the default output
reproducible.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 property-suite
failure.

Each subcommand imports the modules it runs when it runs, so importing this
module loads only errors and perms of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .errors import DomainError
from .perms import format_perm, parse_perm

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_SUITE_FAILED = 4
# checks.SUITES, spelled out so that parsing a command does not load checks
SUITES = ("lifting", "dimension", "faces", "rpoly", "parabolic", "all")


def _parse_transposition(text):
    try:
        i, k = (int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse transposition {text!r}; expected 'i,k'")
    return (i, k)


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _parse_J(text):
    if text == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse J={text!r}; expected comma-separated indices")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _write_json(obj, out, pad=""):
    """Append to out the text of json.dumps(obj, sort_keys=True, indent=2)
    after the CLI's one conversion: keys become str (the last of colliding
    keys wins).  With an indent, json runs its pure-Python encoder; this
    one recursive pass writes the same text in less time."""
    if type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (dict, list, tuple)):
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
        for value in obj:
            out.append(head)
            _write_json(value, out, inner)
            head = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(obj))  # None, bools, floats; TypeError on the rest


def _render_text(doc):
    out = []

    def flat(value):
        items = value.values() if isinstance(value, dict) else value
        return all(not isinstance(x, (dict, list, tuple)) for x in items)

    def line(value):
        # a flat dict as k=v pairs, a list space-separated
        if isinstance(value, dict):
            return "  ".join(f"{k}={v}" for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return " ".join(str(v) for v in value)
        return str(value)

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict) and not flat(value):
            out.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (dict, list, tuple)):
            out.append(f"{pad}{key}:")
            for v in value:
                if isinstance(v, (dict, list, tuple)) and flat(v):
                    out.append(f"{pad}  - {line(v)}")
                else:
                    emit("-", v, depth + 1)
        else:
            out.append(f"{pad}{key}: {line(value)}")

    for k, v in doc.items():
        emit(k, v, 0)
    return "\n".join(out)


def _fmt_pair(t):
    return f"({t[0]},{t[1]})"


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed pair and the document's inputs and
# returns its results, and imports only the modules it runs
# ---------------------------------------------------------------------------


def cmd_interval(args, u, v, inputs):
    from .intervals import atoms, coatoms, generalized_lift, interval

    I = interval(u, v)
    results = {"size": len(I), "rank": I.rank, "elements": [format_perm(z) for z in I.order]}
    for key, covers in (("atoms", atoms(I)), ("coatoms", coatoms(I))):
        results[key] = [{"element": format_perm(z), "t": _fmt_pair(t)} for z, t in covers]
    if args.lift:
        t, ut, vt = generalized_lift(u, v)
        results["lift"] = {"t": _fmt_pair(t), "ut": format_perm(ut), "vt": format_perm(vt)}
    return results


def cmd_polytope(args, u, v, inputs):
    from . import polytopes

    results = {}
    if args.dim:
        results["dimension"] = polytopes.dimension(u, v)
        results["partition"] = polytopes.format_partition(polytopes.block_partition(u, v))
    if args.ineq:
        results["description"] = polytopes.bip_inequalities(u, v).to_json_dict()
    if args.faces:
        faces = polytopes.enumerate_faces(u, v)
        results["f_vector"] = list(polytopes.f_vector_of(faces))
        results["faces"] = [
            {"x": format_perm(x), "y": format_perm(y), "dim": d}
            for x, y, d in faces
        ]
    if args.toric:
        results["toric"] = polytopes.is_toric(u, v)
    if args.diameter:
        results["diameter"] = polytopes.diameter(u, v)
    if args.normal_cone:
        x, y = map(parse_perm, args.normal_cone)
        eqs, strict, witness = polytopes.normal_cone(x, y, u, v)
        results["normal_cone"] = {
            "equal_blocks": [list(b) for b in eqs],
            "strict": [f"w{a} < w{b}" for a, b in strict],
            "witness": list(witness),
        }
    if not results:
        results["dimension"] = polytopes.dimension(u, v)
        results["vertices"] = [format_perm(z) for z in polytopes.vertices(u, v)]
    return results


def cmd_rpoly(args, u, v, inputs):
    from . import rpoly
    from .intervals import require_inversion_minimal, require_leq

    r = rpoly.r_polynomial(u, v)
    results = {"r": str(r), "coefficients": list(r.coeffs)}
    if args.tilde:
        rt = rpoly.r_tilde(u, v)
        results["r_tilde"] = str(rt)
        results["r_tilde_coefficients"] = list(rt.coeffs)
    if args.generalized:
        require_leq(u, v)
        t = _parse_transposition(args.generalized)
        require_inversion_minimal(u, v, t)
        r_ut_vt, r_u_vt, rhs = rpoly.recurrence_terms(u, v, t)
        results["generalized"] = {
            "t": _fmt_pair(t),
            "lhs": str(r),
            "rhs": str(rhs),
            "rhs_terms": {"r_ut_vt": str(r_ut_vt), "r_u_vt": str(r_u_vt)},
            "identity_holds": r == rhs,
        }
    return results


def cmd_parabolic(args, u, v, inputs):
    from . import parabolic

    J = parabolic.check_subset(len(u), _parse_J(args.J))
    inputs["J"] = list(J)
    results = {"J": list(J)}
    if args.faces_check:
        report = dict(parabolic.parabolic_faces_check(u, v, J))
        report.update(u=inputs["u"], v=inputs["v"], J=list(J))
        results["faces_check"] = report
    else:
        points = parabolic.parabolic_bip_vertices(u, v, J)
        results["vertices"] = [list(p) for p in points]
    return results


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    # Every parser shares the one set of global-flag actions.  Their SUPPRESS
    # defaults leave a flag not given after the subcommand to its value before
    # it, or to the namespace main starts from; set_defaults on any of these
    # parsers would rewrite the shared defaults instead.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--format", choices=("text", "json"))
    flags.add_argument("--jobs", type=_int_at_least(1), help="worker processes for suites")
    flags.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in the output"
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("u")
    pair.add_argument("v")

    parser = argparse.ArgumentParser(
        prog="bruhatpoly",
        description=(
            "Bruhat interval polytopes: intervals, lifting, dimension, faces, "
            "inequality descriptions, R-polynomials, and parabolic analogues."
        ),
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[pair, flags], help=help)
        p.set_defaults(func=func)
        return p

    p = command("interval", cmd_interval, "interval elements, atoms, coatoms, lifting")
    p.add_argument("--lift", action="store_true", help="include a generalized-lift witness")

    p = command("polytope", cmd_polytope, "dimension, inequalities, faces, diameter")
    p.add_argument("--dim", action="store_true")
    p.add_argument("--ineq", action="store_true")
    p.add_argument("--faces", action="store_true")
    p.add_argument("--toric", action="store_true")
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--normal-cone", nargs=2, metavar=("x", "y"))

    p = command("rpoly", cmd_rpoly, "R-polynomials and the generalized recurrence")
    p.add_argument("--generalized", metavar="i,k", help="check the recurrence at a transposition")
    p.add_argument("--tilde", action="store_true")

    p = sub.add_parser("check", parents=[flags], help="run a property suite")
    p.add_argument("suite", choices=SUITES)
    # S_1 has no pair u < v, so every suite would pass vacuously
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.add_argument("--sample", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=7)

    p = command(
        "parabolic",
        cmd_parabolic,
        "parabolic polytopes; J lists the fundamental-weight indices "
        "(W_J is generated by the OTHER simple reflections)",
    )
    p.add_argument("--J", required=True, help="comma-separated weight indices, e.g. 1,3")
    p.add_argument("--vertices", action="store_true", help="no-op: vertices are the default output")
    p.add_argument("--faces-check", action="store_true")

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(
        argv, argparse.Namespace(format="text", jobs=1, timing=False)
    )
    try:
        if args.command == "check":
            from . import checks

            inputs = {"suite": args.suite, "n": args.n, "sample": args.sample, "seed": args.seed}
            results = checks.run_suite(args.suite, args.n, args.sample, args.seed, args.jobs)
        else:
            u = parse_perm(args.u)
            v = parse_perm(args.v)
            inputs = {"u": format_perm(u), "v": format_perm(v)}
            results = args.func(args, u, v, inputs)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    doc = {"command": args.command, "inputs": inputs, "results": results}
    if args.timing:
        doc["timing_seconds"] = round(time.perf_counter() - started, 3)
    if args.format == "json":
        out = []
        _write_json(doc, out)
        print("".join(out))
    else:
        print(_render_text(doc))
    if args.command == "check" and not results["pass"]:
        return EXIT_SUITE_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
