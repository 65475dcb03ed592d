"""Command-line front end.

Subcommands: polygon, precision, certify, level, weights, frobenius,
verify-case.  Polynomials travel as JSON arrays of decimal coefficient
strings, constant term first.  Each subcommand returns a JSON payload, which
``main`` alone writes, to stdout or --json-out, and turns into the exit code:
0 success, 1 golden mismatch, 2 parse or schema error (a non-prime --p, a
Frobenius row at a non-prime ell, a level N past the interpreter's digit
limit or an unwritable --json-out too), 3 mathematical inconsistency (a
Frobenius row at an ell dividing pN too); frobenius stops at its section.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .arith import is_prime
from .casefile import (
    CASE,
    CaseFile,
    DEFAULT_ELL_MAX,
    bundled_case_names,
    frobenius_stage,
    level_section,
    load_bundled_case,
    report_to_json,
    verify_case,
    weights_section,
)
from .errors import InconsistencyError, SchemaError, read_fields, read_json
from .galois_local import LevelDatum, level
from .krasner import METHODS, certify_same_extension, parse_evidence, precision_report
from .polynomial import IntPoly, newton_polygon
from .weights import InertiaProfile

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_SCHEMA = 2
EXIT_MATH = 3


def _load(path: str, table, key: str | None = None):
    """The JSON file at path read by table.  With a key, a pair: for a case
    file, an object with the key, its field key read by table and its p by
    CASE's rule (None if absent), its other keys declared by CASE and not
    read; for any other file, the file read by table and None.  A
    SchemaError names the file."""
    payload = read_json(path)
    case = key is not None and isinstance(payload, dict) and key in payload
    if case:
        table = {**dict.fromkeys(CASE, (lambda value: value, None)),
                 "p": (CASE["p"][0], None), key: (table, None)}
    try:
        value = read_fields(payload, table)
    except SchemaError as exc:
        raise SchemaError(f"in {path}: {exc}") from exc
    if key is None:
        return value
    return (value[key], value["p"]) if case else (value, None)


def _evidence_flag(spec: str) -> tuple:
    """The flag "kind:arg" (or "kind", with "assert" short for
    "caller-assertion") as the claim ["kind", arg]."""
    kind, colon, arg = spec.partition(":")
    if kind == "assert":
        kind = "caller-assertion"
    return parse_evidence([kind, arg] if colon else [kind])


def cmd_polygon(args) -> dict:
    return newton_polygon(_load(args.poly, IntPoly.from_json), args.p).to_json()


def cmd_precision(args) -> dict:
    return precision_report(_load(args.poly, IntPoly.from_json), args.p, args.method).to_json()


def cmd_certify(args) -> dict:
    f = _load(args.f, IntPoly.from_json)
    g = _load(args.g, IntPoly.from_json)
    return certify_same_extension(f, g, args.p, _evidence_flag(args.evidence_f),
                                  _evidence_flag(args.evidence_g), args.method).to_json()


def cmd_level(args) -> dict:
    data, p = _load(args.data, [LevelDatum.from_json], "level_data")
    return level_section(*level(data, p=p if args.p is None else args.p))


def cmd_weights(args) -> dict:
    profile, _ = _load(args.profile, InertiaProfile.from_json, "inertia_profile")
    return weights_section(profile, args.p, printed="printed")


def _load_case(ref: str) -> CaseFile:
    if ref in bundled_case_names():
        return load_bundled_case(ref)
    return CaseFile.load(ref)


def cmd_frobenius(args) -> dict:
    case = _load_case(args.case)
    return {"name": case.name,
            "frobenius": [] if case.data_only else frobenius_stage(case, args.ell_max)[2]}


def cmd_verify_case(args) -> dict:
    return verify_case(_load_case(args.case), ell_max=args.ell_max)


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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "p", None) is not None and not is_prime(args.p):
            raise SchemaError(f"--p {args.p} is not prime")
        payload = args.func(args)
        text = report_to_json(payload)
        if args.json_out:
            try:
                with open(args.json_out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise SchemaError(f"cannot write {args.json_out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InconsistencyError, ValueError, ZeroDivisionError) as exc:
        print(f"inconsistent input: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_GOLDEN if payload.get("golden", {}).get("mismatches") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
