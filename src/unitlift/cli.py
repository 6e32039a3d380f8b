"""Command line interface.

Every command prints a single JSON document to stdout:

    {"command": ..., "spec": ..., "result": ..., "version": ..., "elapsedMs": ...}

Stdout is exactly json.dumps(envelope, sort_keys=True, indent=2) and a
newline, written by a small encoder of its own (_dump) that the tests hold
to that call byte for byte.  Everything except elapsedMs is deterministic
for a fixed command line, so scripts may compare reports byte for byte after
dropping that one key.  Progress lines (corpus runs) go to stderr.

The argument parser is built once per process, on the first main() call,
and reused by every later call in that process; each call parses into a
fresh namespace.

Exit codes: 0 success, 2 a checked property is false and --fail-on-false was
given, 64 usage or input error, 65 a size guard refused the computation,
70 an internal defect (a verified invariant failed, which is a bug here).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import GuardExceededError, InternalDefectError, SpecSyntaxError
from .matrices import Matrix, det, gl_lift
from .rings import (
    INTEGERS,
    build_ring,
    enumerate_ideals,
    gf_polynomial_ring,
    ideal_closure,
    quotient_ring,
)
from .semiunits import (
    Rho,
    is_semifield,
    rho_table,
    semi_unit_decomposition,
)
from .specs import (
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    QuotientSpec,
    parse_element_list,
    parse_element_rows,
    parse_poly_text,
    spec_to_string,
)
from .spectrum import (
    idempotents,
    is_connected_mod_rad,
    jacobson_radical,
    maximal_ideals,
)
from .star import (
    StarMethod,
    _crt_unit_lifts,
    presented_star_check,
    ring_has_star,
    star_report,
)
from .verify import report_to_dict, run_corpus

EX_OK = 0
EX_FALSE = 2
EX_USAGE = 64
EX_GUARD = 65
EX_DEFECT = 70

_KIND_NAMES = {
    ModularSpec: "modular",
    PolyQuotSpec: "polynomialQuotient",
    ProductSpec: "product",
    QuotientSpec: "quotient",
}


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code for bad usage is 2; use 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low (else exit 64)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _parse_presented(text: str):
    t = text.strip()
    if t == "Z":
        return INTEGERS
    m = re.fullmatch(r"GF\((\d+)\)(\[x\])?", t)
    if m:
        return gf_polynomial_ring(int(m.group(1)))
    raise SpecSyntaxError("expected Z or GF(p)[x]", 0)


def _elements_from_arg(ring, text: str) -> list[int]:
    return [ring.element_from_expr(e) for e in parse_element_list(text, ring.spec)]


def _ideal_from_arg(ring, text: str):
    return ideal_closure(ring, _elements_from_arg(ring, text))


def _ideal_json(ring, ideal) -> dict:
    return {
        "generators": [ring.render(g) for g in ideal.generators],
        "size": len(ideal),
    }


# ---------------------------------------------------------------------------
# handlers: each returns (spec string or None, result dict, exit code)


def _cmd_ring_info(args):
    ring = build_ring(args.spec)
    rad = jacobson_radical(ring)
    idem = idempotents(ring)
    result = {
        "kind": _KIND_NAMES[type(ring.spec)],
        "carrier": ring.carrier_size,
        "zero": ring.render(ring.zero),
        "one": ring.render(ring.one),
        "unitCount": len(ring.units()),
        "radSize": len(rad),
        "idempotentCount": len(idem),
        "maximalIdeals": len(maximal_ideals(ring).ideals),
        "connectedModRadical": is_connected_mod_rad(ring),
        "isSemifield": is_semifield(ring),
    }
    if ring.carrier_size <= 64:
        result["units"] = [ring.render(u) for u in sorted(ring.units())]
        result["rad"] = [ring.render(r) for r in rad]
        result["idempotents"] = [ring.render(e) for e in sorted(idem)]
    return spec_to_string(ring.spec), result, EX_OK


def _cmd_ring_ideals(args):
    ring = build_ring(args.spec)
    ideals = enumerate_ideals(ring)
    maximal = set(maximal_ideals(ring).ideals)
    items = [
        {
            **_ideal_json(ring, ideal),
            "isProper": ideal.is_proper(),
            "isMaximal": ideal in maximal,
        }
        for ideal in ideals
    ]
    return spec_to_string(ring.spec), {"count": len(items), "ideals": items}, EX_OK


def _cmd_rho_table(args):
    ring = build_ring(args.spec)
    table = rho_table(ring)
    counts = {str(v.json()): 0 for v in Rho}
    rows = []
    for r, v in zip(ring.elements(), table):
        value = v.json()
        counts[str(value)] += 1
        rows.append({"element": ring.render(r), "rho": value})
    result = {"carrier": ring.carrier_size, "counts": counts, "table": rows}
    return spec_to_string(ring.spec), result, EX_OK


def _cmd_decompose(args):
    ring = build_ring(args.spec)
    r = ring.parse_element(args.element)
    rad = jacobson_radical(ring)
    if r in rad:
        result = {"element": ring.render(r), "rho": 0,
                  "u": None, "e": None, "t": None}
        return spec_to_string(ring.spec), result, EX_OK
    dec = semi_unit_decomposition(ring, r)
    result = {
        "element": ring.render(r),
        "rho": 1,
        "u": ring.render(dec.u),
        "e": ring.render(dec.e),
        "t": ring.render(dec.t),
        "semiInverseCount": len(dec.semi_inverses),
        "minimalSemiInverse": ring.render(min(dec.semi_inverses)),
        "certificates": list(dec.certificates),
    }
    return spec_to_string(ring.spec), result, EX_OK


def _cmd_star_check(args):
    ring = build_ring(args.spec)
    ideal = _ideal_from_arg(ring, args.ideal)
    if not ideal.is_proper():
        raise ValueError("the generators span the whole ring; "
                         "star checks need a proper ideal")
    report = star_report(ring, ideal)
    quotient, hom = quotient_ring(ring, ideal)
    witnesses = []
    for check in report.checks:
        if check.witness is None:
            continue
        shown = (quotient.render(check.witness)
                 if check.method is StarMethod.DIRECT
                 else ring.render(check.witness))
        witnesses.append({"method": check.method.value, "witness": shown})
    result = {
        "ring": spec_to_string(ring.spec),
        "ideal": _ideal_json(ring, ideal),
        "holds": report.holds,
        "methods": {c.method.value: c.holds for c in report.checks},
        "witnesses": witnesses,
    }
    if report.holds:
        # the first 16 units of the quotient, lifted in one batch
        units = np.flatnonzero(quotient.unit_mask())[:16]
        lifts, defects = _crt_unit_lifts(ring, ideal, units)
        defect = next((d for d in defects if d is not None), None)
        if defect is not None:
            raise InternalDefectError(defect)
        result["lifts"] = [
            {"unit": quotient.render(v), "lift": ring.render(a)}
            for v, a in zip(units.tolist(), lifts.tolist())
        ]
    code = EX_FALSE if args.fail_on_false and not report.holds else EX_OK
    return spec_to_string(ring.spec), result, code


def _cmd_star_ring(args):
    ring = build_ring(args.spec)
    report = ring_has_star(ring)
    items = [
        {**_ideal_json(ring, ideal), "holds": check.holds}
        for ideal, check in report.entries
    ]
    result = {
        "holds": report.holds,
        "properIdeals": len(items),
        "ideals": items,
    }
    code = EX_FALSE if args.fail_on_false and not report.holds else EX_OK
    return spec_to_string(ring.spec), result, code


def _cmd_star_presented(args):
    presented = _parse_presented(args.presented)
    if presented.kind == "integers":
        try:
            modulus = int(args.modulus)
        except ValueError:
            raise SpecSyntaxError("integer modulus expected", 0) from None
        shown = "Z"
    else:
        modulus = parse_poly_text(args.modulus, presented.p)
        shown = f"GF({presented.p})[x]"
    check = presented_star_check(presented, modulus)
    result = {
        "presented": shown,
        "modulus": presented.render(modulus),
        "hasStar": check.has_star,
        "quotient": spec_to_string(check.quotient.spec),
        "witness": None if check.has_star else check.quotient.render(check.witness),
    }
    code = EX_FALSE if args.fail_on_false and not check.has_star else EX_OK
    return None, result, code


def _cmd_gl_lift(args):
    ring = build_ring(args.spec)
    ideal = _ideal_from_arg(ring, args.ideal)
    if not ideal.is_proper():
        raise ValueError("the generators span the whole ring")
    quotient, hom = quotient_ring(ring, ideal)
    rows = [[hom(ring.element_from_expr(e)) for e in row]
            for row in parse_element_rows(args.matrix, ring.spec)]
    matrix = Matrix(quotient, rows)
    lifted = gl_lift(hom, matrix)
    result = {
        "ideal": _ideal_json(ring, ideal),
        "quotient": spec_to_string(quotient.spec),
        "targetMatrix": matrix.render(),
        "lift": lifted.render(),
        "liftDeterminant": ring.render(det(lifted)),
        "verified": True,
    }
    return spec_to_string(ring.spec), result, EX_OK


def _cmd_corpus_run(args):
    report = run_corpus(
        max_carrier=args.max_carrier,
        seed=args.seed,
        gl_samples=args.gl_samples,
        progress=lambda r: print(r.line(), file=sys.stderr, flush=True),
    )
    if report.defects:
        code = EX_DEFECT
    elif args.fail_on_false and not report.passed:
        code = EX_FALSE
    else:
        code = EX_OK
    return None, report_to_dict(report), code


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unitlift",
                     description="Exact verification of unit lifting, "
                                 "semi-inverses, and semi-unit structure on "
                                 "finite commutative rings.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    ring = top.add_parser("ring", help="inspect a ring")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    info = ring_sub.add_parser("info", help="carrier, units, radical, structure")
    info.add_argument("spec")
    info.set_defaults(command_name="ring info")
    ideals = ring_sub.add_parser("ideals", help="enumerate all ideals")
    ideals.add_argument("spec")
    ideals.set_defaults(command_name="ring ideals")

    rho_p = top.add_parser("rho", help="the rho invariant")
    rho_sub = rho_p.add_subparsers(dest="subcommand", required=True)
    table = rho_sub.add_parser("table", help="rho of every element")
    table.add_argument("spec")
    table.set_defaults(command_name="rho table")

    dec = top.add_parser("decompose",
                         help="write an element as unit*idempotent + radical")
    dec.add_argument("spec")
    dec.add_argument("element")
    dec.set_defaults(command_name="decompose")

    star = top.add_parser("star", help="unit lifting checks")
    star_sub = star.add_subparsers(dest="subcommand", required=True)
    check = star_sub.add_parser("check", help="one quotient, all four methods")
    check.add_argument("spec")
    check.add_argument("--ideal", required=True,
                       help="comma-separated ideal generators")
    check.add_argument("--fail-on-false", action="store_true")
    check.set_defaults(command_name="star check")
    sring = star_sub.add_parser("ring", help="every proper quotient of a ring")
    sring.add_argument("spec")
    sring.add_argument("--fail-on-false", action="store_true")
    sring.set_defaults(command_name="star ring")
    spres = star_sub.add_parser("presented",
                                help="unit image of Z or GF(p)[x] in a quotient")
    spres.add_argument("presented", help="Z or GF(p)[x]")
    spres.add_argument("modulus", help="an integer, or a polynomial over GF(p)")
    spres.add_argument("--fail-on-false", action="store_true")
    spres.set_defaults(command_name="star presented")

    gl = top.add_parser("gl", help="matrix groups")
    gl_sub = gl.add_subparsers(dest="subcommand", required=True)
    lift = gl_sub.add_parser("lift",
                             help="lift an invertible matrix along a radical "
                                  "quotient")
    lift.add_argument("spec", help="the source ring")
    lift.add_argument("ideal",
                      help="kernel generators, comma separated (must sit "
                           "inside the radical)")
    lift.add_argument("--matrix", required=True,
                      help="rows separated by ';', entries by ',', written "
                           "as source-ring elements")
    lift.set_defaults(command_name="gl lift")

    corpus = top.add_parser("corpus", help="the verification corpus")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    run = corpus_sub.add_parser("run", help="run every criterion")
    run.add_argument("--max-carrier", type=_int_at_least(2), default=None,
                     help="restrict the corpus to rings of at most this size")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the sampled checks (corpus membership and "
                          "exhaustive checks do not depend on it)")
    run.add_argument("--gl-samples", type=_int_at_least(0), default=1000,
                     help="random matrix lifts per (ring, dimension) pair")
    run.add_argument("--fail-on-false", action="store_true")
    run.set_defaults(command_name="corpus run")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # found by name on every call, not kept in the cached parser, so a
    # handler replaced at run time (perfbench/tracing.py wraps them) is used
    handler = globals()["_cmd_" + args.command_name.replace(" ", "_")]
    start = time.perf_counter()
    try:
        spec_text, result, code = handler(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_GUARD
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EX_DEFECT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    envelope = {
        "command": args.command_name,
        "spec": spec_text,
        "result": result,
        "version": __version__,
        "elapsedMs": int((time.perf_counter() - start) * 1000),
    }
    print(_dump(envelope))
    return code


_encode_str = json.encoder.encode_basestring_ascii


def _dump(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte.

    With indent set, the stdlib never uses its C encoder, so this walks
    dicts, lists and tuples itself, encodes strings with the C string
    encoder and writes ints, bools and None directly.  Every other value,
    subclasses included, and a dict with a key that is not a str, goes to
    the stdlib: a scalar's encoding does not depend on indent, and a
    subtree's only through the indent of its lines.
    """
    chunks: list[str] = []
    _write(value, "\n", chunks)
    return "".join(chunks)


def _write(value, newline: str, chunks: list[str]) -> None:
    """Append value's encoding to chunks; newline is a line break followed
    by the indent of the line value starts on."""
    kind = type(value)
    if kind is str:
        chunks.append(_encode_str(value))
    elif kind is int:
        chunks.append(int.__repr__(value))
    elif kind is bool:
        chunks.append("true" if value else "false")
    elif value is None:
        chunks.append("null")
    elif kind is dict:
        start, inner = len(chunks), newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                del chunks[start:]
                chunks.append(_stdlib_dump(value, newline))
                return
            chunks += separator, _encode_str(key), ": "
            _write(value[key], inner, chunks)
            separator = "," + inner
        chunks.append(newline + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            _write(item, inner, chunks)
            separator = "," + inner
        chunks.append(newline + "]" if value else "[]")
    else:
        chunks.append(_stdlib_dump(value, newline))


def _stdlib_dump(value, newline: str) -> str:
    # an encoded string holds no raw newline, so every newline starts a line
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


if __name__ == "__main__":
    raise SystemExit(main())
