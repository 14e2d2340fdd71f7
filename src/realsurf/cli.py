"""Command line front end.

Subcommands: ``ambient info``, ``invariants``, ``certify``, ``verify``,
``massey``, ``bishop classify`` and ``bishop scan``.  Every command
takes ``--format json|text``; JSON output has stable key order and is
what ``verify`` consumes back.

Exit codes: 0 success (including a passing verification), 1 malformed
input or a failing verification, 2 a mathematically expected negative
(Infeasible / NoRecipe).

Each command imports only the modules it runs: numpy only for
``bishop scan`` with a known surface name (``bishop classify`` runs on
the numpy-free ``realsurf.local``), and the certificate engine only for
``certify`` and ``verify``.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ambient import AmbientSurface
    from .lattice import HClass

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit code 2 is reserved for expected negatives
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _emit_text(obj, stream, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                stream.write(f"{pad}{key}:\n")
                _emit_text(value, stream, indent + 1)
            else:
                stream.write(f"{pad}{key}: {value}\n")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                stream.write(f"{pad}-\n")
                _emit_text(value, stream, indent + 1)
            else:
                stream.write(f"{pad}- {value}\n")
    else:
        stream.write(f"{pad}{obj}\n")


def _emit(payload, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        import json

        stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        _emit_text(payload, stream)


def _checks_payload(checks):
    return [
        {"name": c.name, "expected": _jsonable(c.expected), "actual": _jsonable(c.actual), "ok": c.ok}
        for c in checks
    ]


# --- surface description parsing -----------------------------------------------


_TERM = re.compile(r"([+-]?\d*)\*?([A-Za-z]\w*)")


def parse_class_expression(surface: AmbientSurface, expr: str) -> HClass:
    """A linear combination of named classes, e.g. ``s+2f-e1``."""
    from .lattice import HClass

    text = expr.replace(" ", "")
    if not text:
        raise ValueError("empty class expression")
    total = HClass.zero(surface.rank)
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse class expression {expr!r} at {text[pos:]!r}")
        raw, name = match.groups()
        if raw in ("", "+"):
            coeff = 1
        elif raw == "-":
            coeff = -1
        else:
            coeff = int(raw)
        total = total + coeff * surface.named_class(name)
        pos = match.end()
    return total


# --- subcommands -------------------------------------------------------------


def _cmd_ambient_info(args) -> int:
    from .ambient import by_name
    from .lattice import determinant, signature

    surface = by_name(args.name, args.blow_ups)
    b_plus, b_minus, b_zero = signature(surface.lattice)
    named = {}
    for name in sorted(surface.named):
        h = surface.named[name]
        named[name] = {
            "square": surface.pair(h, h),
            "c1_pairing": surface.pair(surface.c1, h),
        }
    payload = {
        "label": surface.label,
        "rank": surface.rank,
        "signature": [b_plus, b_minus, b_zero],
        "determinant": determinant(surface.lattice),
        "euler_char": surface.euler_char,
        "c1": list(surface.c1.coeffs),
        "named_classes": named,
    }
    _emit(payload, args.format)
    return 0


def _cmd_invariants(args) -> int:
    from . import embedded
    from .ambient import by_name

    surface = by_name(args.ambient, args.blow_ups)
    orientable = not args.nonorientable
    if args.hclass is not None:
        if args.nonorientable:
            raise ValueError("homology classes apply to orientable surfaces; use --normal-euler")
        hclass = parse_class_expression(surface, args.hclass)
        surf = embedded.SurfaceClass(surface, orientable, args.chi, hclass)
    else:
        if args.normal_euler is None:
            raise ValueError("one of --class or --normal-euler is required")
        surf = embedded.SurfaceClass(surface, orientable, args.chi, None, args.normal_euler)
    report = embedded.invariant_report(surf)
    payload = {
        "ambient": surface.label,
        "orientable": surf.orientable,
        "euler_char": surf.euler_char,
        "hclass": None if surf.hclass is None else list(surf.hclass.coeffs),
        "normal_euler": surf.normal_euler,
        "i_total": report.i_total,
        "i_plus": report.i_plus,
        "i_minus": report.i_minus,
        "stein_basis_possible": embedded.stein_basis_possible(surf),
        "totally_real_possible": embedded.totally_real_possible(surf),
        "trivial_sphere": report.trivial_sphere,
    }
    _emit(payload, args.format)
    return 0


def _cmd_certify(args) -> int:
    from . import constructions

    try:
        if args.construction == "totally-real-oriented":
            cert = constructions.totally_real_oriented_in_k3(args.genus)
        elif args.construction == "totally-real":
            cert = constructions.totally_real_nonorientable(args.chi, args.ambient)
        elif args.construction == "stein-disc":
            cert = constructions.stein_disc_bundle(args.genus, args.euler)
        else:  # stein-disc-nonorientable
            cert = constructions.stein_disc_bundle_nonorientable(args.chi, args.euler, args.strategy)
    except (constructions.Infeasible, constructions.NoRecipe) as exc:
        status = "infeasible" if isinstance(exc, constructions.Infeasible) else "no-recipe"
        _emit({"status": status, "reason": str(exc)}, args.format)
        return 2
    if args.format == "json":
        sys.stdout.write(cert.to_json() + "\n")
    else:
        _emit(cert.to_dict(), args.format)
    return 0


def _cmd_verify(args) -> int:
    from . import constructions

    if args.certificate == "-":
        text = sys.stdin.read()
    else:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            text = handle.read()
    cert = constructions.Certificate.from_json(text)
    report = constructions.verify_certificate(cert)
    payload = {
        "passed": report.passed,
        "checks": _checks_payload(report.checks),
        "notes": list(report.notes),
    }
    _emit(payload, args.format)
    return 0 if report.passed else 1


def _cmd_massey(args) -> int:
    from . import embedded

    payload = {
        "chi": args.chi,
        "normal_euler_range": embedded.massey_set(args.chi),
        "achievable_counts": embedded.admissible_I(args.chi),
    }
    _emit(payload, args.format)
    return 0


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError:
        value = math.nan
    if not cmath.isfinite(value):  # a jet with an infinite or NaN part has no invariant
        raise ValueError(f"cannot parse complex number {text!r}")
    return value


# parser dest -> Tolerances field.  The flags default to argparse.SUPPRESS,
# so only those given are set and Tolerances() holds every default.
_TOLERANCE_FLAGS = {"tol": "zero_rel", "parabolic_tol": "parabolic_band",
                    "max_refine": "max_refine"}


def _tolerances(args):
    from .local import Tolerances

    given = {field: getattr(args, dest) for dest, field in _TOLERANCE_FLAGS.items()
             if hasattr(args, dest)}
    return Tolerances(**given)


def _error(exc) -> int:
    print(f"realsurf: error: {exc}", file=sys.stderr)
    return 1


def _cmd_bishop_classify(args) -> int:
    from .local import Jet2, bishop_alpha, classify

    jet = Jet2(_parse_complex(args.a), _parse_complex(args.b), _parse_complex(args.c))
    tol = _tolerances(args)
    alpha = bishop_alpha(jet, tol.zero_rel)
    ptype = classify(alpha, tol.parabolic_band)
    payload = {
        "jet": {"a": _jsonable(jet.a), "b": _jsonable(jet.b), "c": _jsonable(jet.c)},
        "alpha": _jsonable(alpha),
        "type": ptype.value,
    }
    _emit(payload, args.format)
    return 0


def _point_payload(p, fmt: str):
    if fmt == "text":
        sign = "" if p.sign is None else f" sign={p.sign:+d}"
        return (
            f"chart={p.chart} u={p.location[0]:.9g} v={p.location[1]:.9g} "
            f"index={p.winding_index:+d}{sign} alpha={_jsonable(p.alpha)} "
            f"type={p.ptype.value}"
        )
    return {
        "chart": p.chart,
        "u": p.location[0],
        "v": p.location[1],
        "index": p.winding_index,
        "sign": p.sign,
        "alpha": _jsonable(p.alpha),
        "type": p.ptype.value,
    }


def _cmd_bishop_scan(args) -> int:
    from .local import parse_builtin_surface

    parse_builtin_surface(args.surface)  # an unknown name fails before numpy loads
    from . import bishop

    surface = bishop.builtin_surface(args.surface)
    tol = _tolerances(args)
    try:
        if surface.closed:
            report = bishop.survey(surface, args.grid, tol)
            points = report.points
        else:
            report, points = None, bishop.find_complex_points(surface, args.grid, tol)
    except (bishop.ImmersionFailure, bishop.UnresolvedCluster, bishop.GenericityFailure) as exc:
        return _error(exc)
    payload = {
        "surface": surface.label,
        "grid": args.grid,
        "points": [_point_payload(p, args.format) for p in points],
    }
    if report is not None:
        payload.update({
            "counts": {
                "e_plus": report.e_plus,
                "e_minus": report.e_minus,
                "h_plus": report.h_plus,
                "h_minus": report.h_minus,
            },
            "i_total": report.i_total,
            "i_plus": report.i_plus,
            "i_minus": report.i_minus,
            "checks": _checks_payload(report.checks),
            "passed": report.passed,
        })
    _emit(payload, args.format)
    return 0


# --- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output encoding (default text)")

    parser = _Parser(prog="realsurf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ambient = sub.add_parser("ambient", help="catalog of model surfaces")
    ambient_sub = p_ambient.add_subparsers(dest="ambient_command", required=True,
                                           parser_class=_Parser)
    p_info = ambient_sub.add_parser("info", parents=[common],
                                    help="lattice, signature, chi and named classes")
    p_info.add_argument("name", help="cp2, k3 or e(n)")
    p_info.add_argument("--blow-ups", type=int, default=0)
    p_info.set_defaults(func=_cmd_ambient_info)

    p_inv = sub.add_parser("invariants", parents=[common],
                           help="counts I, I+- and the Stein/totally-real predicates")
    p_inv.add_argument("--ambient", required=True, help="cp2, k3 or e(n)")
    p_inv.add_argument("--blow-ups", type=int, default=0)
    p_inv.add_argument("--chi", type=int, required=True)
    p_inv.add_argument("--nonorientable", action="store_true")
    p_inv.add_argument("--class", dest="hclass", default=None,
                       help="homology class over named classes, e.g. 's+2f-e1'")
    p_inv.add_argument("--normal-euler", type=int, default=None,
                       help="normal Euler number (classless surfaces)")
    p_inv.set_defaults(func=_cmd_invariants)

    p_cert = sub.add_parser("certify", help="emit a construction certificate")
    cert_sub = p_cert.add_subparsers(dest="construction", required=True, parser_class=_Parser)
    p = cert_sub.add_parser("totally-real-oriented", parents=[common],
                            help="oriented genus-g surface in K3")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=_cmd_certify)
    p = cert_sub.add_parser("totally-real", parents=[common],
                            help="nonorientable surface of given chi")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--ambient", default="k3-blow-up",
                   choices=("k3", "k3-blow-up", "e3"))
    p.set_defaults(func=_cmd_certify)
    p = cert_sub.add_parser("stein-disc", parents=[common],
                            help="Stein disc bundle D(g, n) over an oriented base")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--euler", type=int, required=True)
    p.set_defaults(func=_cmd_certify)
    p = cert_sub.add_parser("stein-disc-nonorientable", parents=[common],
                            help="Stein disc bundle over a nonorientable base")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--euler", type=int, required=True)
    p.add_argument("--strategy", default="blow-up-cp2",
                   choices=("blow-up-cp2", "section-of-em"))
    p.set_defaults(func=_cmd_certify)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="replay a certificate and check every claim")
    p_verify.add_argument("certificate", help="JSON certificate file, or - for stdin")
    p_verify.set_defaults(func=_cmd_verify)

    p_massey = sub.add_parser("massey", parents=[common],
                              help="realizable normal Euler numbers and counts for chart embeddings")
    p_massey.add_argument("chi", type=int)
    p_massey.set_defaults(func=_cmd_massey)

    p_bishop = sub.add_parser("bishop", help="local models and the numerical scanner")
    bishop_sub = p_bishop.add_subparsers(dest="bishop_command", required=True,
                                         parser_class=_Parser)
    p = bishop_sub.add_parser("classify", parents=[common],
                              help="invariant and type from a quadratic jet")
    p.add_argument("--a", required=True, help="z^2 coefficient, e.g. '0.3+0.1i'")
    p.add_argument("--b", required=True, help="z zbar coefficient")
    p.add_argument("--c", required=True, help="zbar^2 coefficient")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--parabolic-tol", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_bishop_classify)
    p = bishop_sub.add_parser("scan", parents=[common],
                              help="find and classify complex points of a builtin surface")
    # local.BUILTIN_SURFACES spelled out: building the parser imports no
    # realsurf module, which every command would pay (a test pins the two)
    p.add_argument("--surface", required=True,
                   help="flat-torus, round-sphere, wrinkled-sphere, graph-normal-form:<alpha>")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--parabolic-tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-refine", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_bishop_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
