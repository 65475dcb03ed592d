"""Command-line front end.

Subcommands: polygon, precision, certify, level, weights, frobenius,
verify-case.  Polynomials travel as JSON arrays of decimal coefficient
strings, constant term first.  Exit codes: 0 success, 1 golden mismatch,
2 parse or schema error, 3 mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import sys

from .casefile import (
    CaseFile,
    DEFAULT_ELL_MAX,
    bundled_case_names,
    load_bundled_case,
    report_to_json,
    verify_case,
)
from .errors import InconsistencyError, SchemaError, read_json
from .galois_local import LevelDatum, level
from .krasner import METHODS, certify_same_extension, parse_evidence, precision_report
from .polynomial import IntPoly, newton_polygon
from .weights import InertiaProfile, predicted_weights

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_SCHEMA = 2
EXIT_MATH = 3


def _load(path: str, parse, key: str | None = None):
    """parse applied to the JSON file at path, or to its field key if it has
    one (so a case file serves too); SchemaError if parse cannot read it."""
    payload = read_json(path)
    if key is not None and isinstance(payload, dict) and key in payload:
        payload = payload[key]
    try:
        return parse(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed input in {path}: {exc}") from exc


def _emit(payload: dict, json_out: str | None) -> None:
    text = report_to_json(payload)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _evidence_flag(spec: str) -> tuple:
    """The flag "kind:arg" (or "kind", with "assert" short for
    "caller-assertion") as the claim ["kind", arg]."""
    kind, colon, arg = spec.partition(":")
    if kind == "assert":
        kind = "caller-assertion"
    return parse_evidence([kind, arg] if colon else [kind])


def cmd_polygon(args) -> int:
    f = _load(args.poly, IntPoly.from_json)
    _emit(newton_polygon(f, args.p).to_json(), args.json_out)
    return EXIT_OK


def cmd_precision(args) -> int:
    f = _load(args.poly, IntPoly.from_json)
    _emit(precision_report(f, args.p, args.method).to_json(), args.json_out)
    return EXIT_OK


def cmd_certify(args) -> int:
    f = _load(args.f, IntPoly.from_json)
    g = _load(args.g, IntPoly.from_json)
    cert = certify_same_extension(
        f, g, args.p,
        _evidence_flag(args.evidence_f),
        _evidence_flag(args.evidence_g),
        args.method,
    )
    _emit(cert.to_json(), args.json_out)
    return EXIT_OK


def cmd_level(args) -> int:
    data = _load(args.data, lambda d: [LevelDatum.from_json(x) for x in d], "level_data")
    exponents, n = level(data, p=args.p)
    _emit({"exponents": {str(q): e for q, e in sorted(exponents.items())},
           "N": str(n)}, args.json_out)
    return EXIT_OK


def cmd_weights(args) -> int:
    profile = _load(args.profile, InertiaProfile.from_json, "inertia_profile")
    weights = predicted_weights(profile, args.p)
    _emit({"weights": [list(w) for w in sorted(weights)],
           "printed": [str(w) for w in sorted(weights)]}, args.json_out)
    return EXIT_OK


def _load_case(ref: str) -> CaseFile:
    if ref in bundled_case_names():
        return load_bundled_case(ref)
    return CaseFile.load(ref)


def cmd_frobenius(args) -> int:
    case = _load_case(args.case)
    report = verify_case(case, ell_max=args.ell_max)
    _emit({"name": report["name"], "frobenius": report.get("frobenius", [])}, args.json_out)
    return EXIT_OK


def cmd_verify_case(args) -> int:
    case = _load_case(args.case)
    report = verify_case(case, ell_max=args.ell_max)
    _emit(report, args.json_out)
    if report["golden"]["mismatches"]:
        return EXIT_GOLDEN
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-serre",
        description="Exact p-adic polygon, precision-certificate, level/weight and "
                    "Frobenius/Hecke verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json-out", default=None, help="write the JSON result here")

    p = sub.add_parser("polygon", help="Newton polygon of an integer polynomial")
    p.add_argument("poly", help="JSON file: coefficients, constant first")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("precision", help="congruence precision report")
    p.add_argument("poly")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="prop1bis")
    common(p)
    p.set_defaults(func=cmd_precision)

    p = sub.add_parser("certify", help="same-extension certificate for two polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--evidence-f", required=True,
                   help="eisenstein-after-shift:A | irreducible-mod-q:Q | single-slope | assert")
    p.add_argument("--evidence-g", required=True)
    p.add_argument("--method", choices=METHODS, default="prop1")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("level", help="level exponents from ramification filtrations")
    p.add_argument("data", help="JSON file with a level_data list")
    p.add_argument("--p", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_level)

    p = sub.add_parser("weights", help="predicted weight set from an inertia profile")
    p.add_argument("profile")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("frobenius", help="per-ell Frobenius classes and charpolys")
    p.add_argument("case", help="bundled case name or path to a case file")
    p.add_argument("--ell-max", type=int, default=DEFAULT_ELL_MAX)
    common(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("verify-case", help="run the full pipeline on a case file")
    p.add_argument("case", help="bundled case name or path to a case file")
    p.add_argument("--ell-max", type=int, default=DEFAULT_ELL_MAX)
    common(p)
    p.set_defaults(func=cmd_verify_case)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InconsistencyError, ValueError, ZeroDivisionError) as exc:
        print(f"inconsistent input: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
