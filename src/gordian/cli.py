"""Command-line front end.

Every subcommand prints one self-contained JSON document to stdout
({status, payload, provenance}) and a short human-readable summary to
stderr.  Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.
Turn angles are always exact fractions; no interface uses floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, circle, graph, laurent, signature
from .errors import DomainError
from .knots import FormalKnot
from .limits import decimal


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse fraction {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"cannot parse integer list {text!r}") from exc


def _read_knot_file(path: str) -> list[FormalKnot]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    out = []
    for number, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            out.append(FormalKnot.from_json(line))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            # A JSON value of the wrong shape fails inside from_records with
            # whichever of these its first bad access raises.
            raise DomainError(f"{path}, line {number}: not a serialized knot: {exc!r}") from exc
    return out


def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid depth {text!r}") from None
    if depth < 0:
        raise argparse.ArgumentTypeError(f"depth must be non-negative, got {depth}")
    return depth


def _cmd_poly(args) -> dict:
    if args.poly_cmd == "torus":
        d = laurent.torus_poly(args.p)
        return {"poly": str(d)}
    d = laurent.parse_poly(args.poly)
    if args.poly_cmd == "normalize":
        return {"poly": str(d), "normalized": laurent.is_normalized(d)}
    if args.poly_cmd == "basis":
        return {"coeffs": list(laurent.to_basis(d))}
    if args.poly_cmd == "chebyshev":
        q = laurent.to_chebyshev(d)
        return {"coeffs": list(q), "poly_in_x": laurent.format_poly(q, "x")}
    raise AssertionError(args.poly_cmd)


def _cmd_frombasis(args) -> dict:
    coeffs = _parse_int_list(args.coeffs)
    return {"coeffs": coeffs, "poly": str(laurent.from_basis(coeffs))}


def _cmd_arcs(args) -> dict:
    arcset = circle.arcs_of_generator(args.p)
    return {
        "p": str(args.p),
        "arcs": [[str(lo), str(circle.as_turn(hi))] for lo, hi in arcset.arcs],
        "measure": str(arcset.measure()),
    }


def _cmd_sign_at(args) -> dict:
    theta = _parse_fraction(args.theta)
    return {"p": str(args.p), "theta": str(circle.as_turn(theta)), "sign": circle.generator_sign_at(args.p, theta)}


def _cmd_witness(args) -> dict:
    ps = _parse_int_list(args.ps)
    signs = _parse_int_list(args.signs)
    theta = circle.independence_witness(ps, signs)
    checks = [
        {"p": str(p), "required": s, "actual": circle.generator_sign_at(p, theta)}
        for p, s in zip(ps, signs)
    ]
    return {"theta": decimal(theta), "checks": checks, "validated": all(c["required"] == c["actual"] for c in checks)}


def _cmd_signature(args) -> dict:
    d = laurent.parse_poly(args.poly)
    return {"poly": str(d), "signature": signature.signature_of_poly(d).payload()}


def _cmd_rootiso(args) -> dict:
    d = laurent.parse_poly(args.poly)
    return {"poly": str(d), **signature.isolate_circle_roots(d).payload()}


def _cmd_gap(args) -> dict:
    d = laurent.parse_poly(args.poly)
    return {"poly": str(d), **signature.min_root_gap(d).payload()}


def _cmd_embed(args) -> dict:
    v = graph.parse_vertex(args.vertex)
    knot = graph.phi(v)
    return {"vertex": graph.format_vertex(v), "knot": knot.records(), "pretty": str(knot)}


def _cmd_certify(args) -> dict:
    cert = graph.certify_pair(graph.parse_vertex(args.x), graph.parse_vertex(args.y))
    return {"certificate": cert.payload(), "valid": graph.verify_certificate(cert)}


def _cmd_certify_all(args) -> dict:
    certs = graph.certify_all(args.depth)
    payloads = []
    all_valid = True
    for cert in certs:
        valid = graph.verify_certificate(cert)
        all_valid = all_valid and valid
        payloads.append({**cert.payload(), "valid": valid})
    return {"depth": args.depth, "pairs": len(certs), "all_valid": all_valid, "certificates": payloads}


def _cmd_detour(args) -> dict:
    path = _read_knot_file(args.path)
    forbidden = _read_knot_file(args.forbidden)
    plan = graph.build_detour(path, forbidden)
    report = graph.verify_detour(plan)
    return {"plan": plan.payload(), "verified": report.ok, "report": report.payload()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gordian",
        description="Exact computations with knot signatures, circle arcs and gordian distance certificates.",
        epilog="The GORDIAN_MAX_P environment variable overrides the materialization guard "
        "(default 10^6) for operations that expand generator data explicitly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="Laurent polynomial operations")
    poly_sub = poly.add_subparsers(dest="poly_cmd", required=True)
    for name, needs in (("normalize", "poly"), ("basis", "poly"), ("chebyshev", "poly"), ("torus", "p")):
        sp = poly_sub.add_parser(name)
        if needs == "poly":
            sp.add_argument("--poly", required=True, help="polynomial text, e.g. 't^-1-1+t'")
        else:
            sp.add_argument("--p", type=int, required=True, help="odd integer >= 3")
        sp.set_defaults(func=_cmd_poly)
    fb = poly_sub.add_parser("frombasis")
    fb.add_argument("--coeffs", required=True, help="comma-separated integers a_0,a_1,...")
    fb.set_defaults(func=_cmd_frombasis, poly_cmd="frombasis")

    arcs = sub.add_parser("arcs", help="materialize the sign arcs of a generator")
    arcs.add_argument("--p", type=int, required=True)
    arcs.set_defaults(func=_cmd_arcs)

    sign_at = sub.add_parser("sign-at", help="sign of D_p at a rational turn")
    sign_at.add_argument("--p", type=int, required=True)
    sign_at.add_argument("--theta", required=True, help="rational turn, e.g. 2/5")
    sign_at.set_defaults(func=_cmd_sign_at)

    witness = sub.add_parser("witness", help="constructive arc-independence witness")
    witness.add_argument("--ps", required=True, help="comma-separated strictly increasing odd p's")
    witness.add_argument("--signs", required=True, help="comma-separated required signs (+1/-1)")
    witness.set_defaults(func=_cmd_witness)

    sig = sub.add_parser("signature", help="signature step function of a normalized polynomial")
    sig.add_argument("--poly", required=True)
    sig.set_defaults(func=_cmd_signature)

    rootiso = sub.add_parser("rootiso", help="isolate the circle roots of a symmetric polynomial")
    rootiso.add_argument("--poly", required=True)
    rootiso.set_defaults(func=_cmd_rootiso)

    gap = sub.add_parser("gap", help="minimal circular root gap")
    gap.add_argument("--poly", required=True)
    gap.set_defaults(func=_cmd_gap)

    embed = sub.add_parser("embed", help="knot attached to a tree vertex")
    embed.add_argument("--vertex", required=True, help="'root' or comma-separated child indices")
    embed.set_defaults(func=_cmd_embed)

    certify = sub.add_parser("certify", help="distance certificate for a vertex pair")
    certify.add_argument("--x", required=True)
    certify.add_argument("--y", required=True)
    certify.set_defaults(func=_cmd_certify)

    certify_all = sub.add_parser("certify-all", help="certificates for all vertex pairs up to a depth")
    certify_all.add_argument("--depth", type=_depth, required=True, help="non-negative tree depth")
    certify_all.set_defaults(func=_cmd_certify_all)

    detour = sub.add_parser("detour", help="reroute a knot path around forbidden knots")
    detour.add_argument("--path", required=True, help="file with one serialized knot per line")
    detour.add_argument("--forbidden", required=True, help="file with one serialized knot per line")
    detour.set_defaults(func=_cmd_detour)

    return parser


def _summary(payload: dict) -> str:
    for key in ("poly", "theta", "gap", "pretty", "pairs", "verified", "sign"):
        if key in payload:
            return f"{key}: {payload[key]}"
    return "ok"


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag value' into '--flag=value' when the value starts with a
    single dash (polynomials and sign lists do), which argparse would
    otherwise read as an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv if argv is not None else sys.argv[1:])))
    except SystemExit as exc:
        return int(exc.code or 0)
    provenance = {
        "command": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
    }
    try:
        payload = args.func(args)
    except DomainError as exc:
        document = {"status": "error", "error": str(exc), "provenance": provenance}
        print(json.dumps(document, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {"status": "ok", "payload": payload, "provenance": provenance}
    print(json.dumps(document, indent=2))
    print(_summary(payload), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
