"""Verification scenarios ("case files") and the pipeline that runs them.

A case file is a JSON document describing one scenario: the defining
sextic, the working prime p, ramification filtrations for the level, the
nebentype character, the tame inertia profile for the weights, per-ell
Frobenius inputs, optional eigenvalue records, and optional golden
expected values.  It is read by the field table CASE, or DATA_ONLY when its
data_only is true, and the tables they nest; a key outside them is a schema
error.  Twelve scenarios ship with the package: six carry golden values
(level, nebentype, weight set, and for the p=5 case one pinned Frobenius
class), six are data-only records of fields whose verification was out of
reach.

The pipeline: level -> nebentype validation -> per-ell Frobenius class (one
rule for a row at p=5 and p=3, rep3a6.frobenius_class) and its charpolys
(one trace rule; the frobenius subcommand stops here) -> predicted weights
-> attachment check when eigenvalues are present -> comparison against the
golden block.  Reports are deterministic (sorted keys, fixed field models),
so repeated runs are byte-identical.
"""

from __future__ import annotations

import os

from .arith import Record, json_prime, quadratic_modulus
from .errors import (NULLABLE, REQUIRED, InconsistencyError, SchemaError, json_bool, json_int,
                     json_str, read_fields, read_json, write_json)
from .galois_local import LevelDatum, level
from .hecke import EIGENVALUE, EigenvalueRecord, check_attached
from .krasner import METHODS, certify_same_extension, parse_evidence
from .polynomial import IntPoly, cycle_types
from .rep3a6 import class_charpolys, frobenius_class
from .weights import DirichletCharacter, InertiaProfile, nebentype_factor, predicted_weights

DEFAULT_ELL_MAX = 47

BUNDLED = (
    "2-3-55", "2-3-57", "2-3-58", "3-7-3", "3-13-9", "5-17-1",
    "2-3-59", "2-5-17", "3-5-7", "3-5-8", "3-19-3", "13-19-1",
)
GOLDEN = BUNDLED[:6]
CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")


#: The field tables of a case file (see the README).  A row of
#: frobenius_inputs is read by rep3a6.frobenius_class at either prime.
FROBENIUS_INPUT = {
    "ell": (json_prime, REQUIRED), "cycle_type": ([json_int], ()),
    "artin_power": (json_int, None), "residue_degree": (json_int, None),
    "fine_order5": (("5a", "5b", "unknown"), "unknown"),
    "provenance": (json_str, ""), "artin_provenance": (json_str, ""),
}
CERTIFICATE = {  # the keyword arguments of certify_same_extension
    "f": (IntPoly.from_json, REQUIRED), "g": (IntPoly.from_json, REQUIRED),
    "p": (json_prime, REQUIRED), "evidence_f": (parse_evidence, REQUIRED),
    "evidence_g": (parse_evidence, REQUIRED), "method": (METHODS, "prop1"),
}
EXPECTED = {  # the golden block; an absent value is not checked
    "level": (lambda level: {str(json_int(q)): json_int(e) for q, e in level.items()}, None),
    "frobenius_classes": (lambda classes: {json_int(ell): json_str(label)
                                           for ell, label in classes.items()}, NULLABLE),
    "nebentype": (json_str, None), "weights": ([[json_int, 3]], None), "source": (json_str, ""),
}
DATA_ONLY = {
    "name": (json_str, REQUIRED), "data_only": (json_bool, False), "note": (json_str, ""),
    "skipped_ells": ([json_int], ()), "sextic": (IntPoly.from_json, None),
    "has_cover": (json_bool, None), "ramified": ([json_prime], ()),
    "table_level": (json_str, NULLABLE),
}
CASE = {
    **DATA_ONLY, "p": (json_prime, REQUIRED), "level_data": ([LevelDatum.from_json], REQUIRED),
    "nebentype": ({"kinds": ([json_str], ()), "k": (json_int, 0)}, {"kinds": (), "k": 0}),
    "inertia_profile": (InertiaProfile.from_json, REQUIRED),
    "frobenius_inputs": ([FROBENIUS_INPUT], ()), "eigenvalues": ([EIGENVALUE], NULLABLE),
    "expected": (EXPECTED, NULLABLE), "certificates": ([CERTIFICATE], ()),
}


class CaseFile(Record):
    """A case file: one field per key of CASE, absent keys read by its
    table, a data-only case's keys outside DATA_ONLY None.  nebentype is a
    DirichletCharacter, its k apart in nebentype_k, and eigenvalues a list
    of EigenvalueRecords."""

    __slots__ = (*CASE, "nebentype_k")

    @classmethod
    def from_dict(cls, payload) -> "CaseFile":
        """The case read by DATA_ONLY if its data_only is true, else by CASE."""
        data_only = isinstance(payload, dict) and payload.get("data_only") is True
        f = read_fields(payload, DATA_ONLY if data_only else CASE)
        if not data_only:
            p, neb, records = f["p"], f["nebentype"], f["eigenvalues"] or ()
            f.update(nebentype=DirichletCharacter(p, neb["kinds"]), nebentype_k=neb["k"],
                     eigenvalues=[EigenvalueRecord.from_fields(e, p) for e in records])
        return cls(*map(f.get, cls.__slots__))

    @classmethod
    def load(cls, path) -> "CaseFile":
        """The case file at path; a SchemaError names the file."""
        payload = read_json(path)
        try:
            return cls.from_dict(payload)
        except SchemaError as exc:
            raise SchemaError(f"in {path}: {exc}") from exc


def bundled_case_names() -> tuple[str, ...]:
    return BUNDLED


def load_bundled_case(name: str) -> CaseFile:
    if name not in BUNDLED:
        raise SchemaError(f"unknown bundled case {name}")
    return CaseFile.load(os.path.join(CASES_DIR, f"{name}.json"))


def _cycle_type_checked(case: CaseFile, entry: dict, computed: dict) -> tuple[int, ...]:
    """Stored cycle type, cross-checked against the sextic mod ell whenever
    the reduction is squarefree; computed maps the ells to the cycle types
    of the sextic, None where the reduction is not squarefree."""
    ell, stored = entry["ell"], entry["cycle_type"]
    if computed.get(ell) is not None:
        if stored and stored != computed[ell]:
            raise InconsistencyError(f"case {case.name}: stored cycle type {stored} at ell={ell}"
                                     f" disagrees with the recomputed {computed[ell]}")
        return computed[ell]
    if not stored:
        raise InconsistencyError(f"case {case.name}: ell={ell} has " + (
            "no stored cycle type and no sextic to compute it from" if case.sextic is None
            else "non-squarefree reduction and no stored cycle type"))
    return stored


def _frobenius_entry(entry: dict, cycle_type, eps_sign: int, p: int) -> tuple[dict, list]:
    """The report entry at one ell, with the class of Frobenius that
    frobenius_class reads from the row and its charpolys twisted by the
    nebentype sign, and those charpolys; two mean an unresolved order-5 class."""
    try:
        label = frobenius_class(p, cycle_type, entry["artin_power"], entry["residue_degree"],
                                entry["fine_order5"])
    except InconsistencyError as exc:
        raise InconsistencyError(f"frobenius_inputs row at ell {entry['ell']}: {exc}") from exc
    polys = class_charpolys(p, label, eps_sign)
    out = {
        "ell": entry["ell"],
        "cycle_type": list(cycle_type),
        "class": label,
        "charpolys": [[list(c) for c in poly] for poly in polys],
    }
    if len(polys) > 1:
        out["note"] = "order-5 class unresolved: equal or conjugate"
    return out, polys


def frobenius_stage(case: CaseFile, ell_max: int = DEFAULT_ELL_MAX):
    """The stages up to the Frobenius classes: the level exponents and N,
    the nebentype checked against N (its sign twists the charpolys), the
    Frobenius entries at the rows with ell <= ell_max and the twisted
    charpolys by ell, None above ell_max.  Rows must have distinct ells
    prime to pN, where Frobenius is defined."""
    exponents, n = level(case.level_data, p=case.p)
    nebentype_factor(case.nebentype_k, case.nebentype, n)
    inputs = sorted(case.frobenius_inputs, key=lambda e: e["ell"])
    for a, b in zip(inputs, inputs[1:]):
        if a["ell"] == b["ell"]:
            raise InconsistencyError(f"duplicate ell {a['ell']} in frobenius_inputs")
    entries = [e for e in inputs if e["ell"] <= ell_max]
    for e in inputs:
        if case.p * n % e["ell"] == 0:
            raise InconsistencyError(f"frobenius_inputs row at ell {e['ell']}: ell divides"
                                     f" pN = {case.p * n}, where Frobenius is not defined")
    ells = [e["ell"] for e in entries]
    computed = dict(zip(ells, cycle_types(case.sextic, ells))) if case.sextic is not None else {}
    section, frob_polys = [], dict.fromkeys(e["ell"] for e in inputs)
    for entry in entries:
        out, frob_polys[entry["ell"]] = _frobenius_entry(
            entry, _cycle_type_checked(case, entry, computed),
            case.nebentype.sign_at(entry["ell"]), case.p)
        section.append(out)
    return exponents, n, section, frob_polys


def level_section(exponents: dict, n: int) -> dict:
    """The level as reported: the exponents by prime, in order, and N in decimal."""
    return {"exponents": {str(q): e for q, e in sorted(exponents.items())}, "N": str(n)}


def weights_section(profile: InertiaProfile, p: int, printed: str = "weights_printed") -> dict:
    """The predicted weights as reported, sorted: as lists, and as strings under printed."""
    weights = sorted(predicted_weights(profile, p))
    return {"weights": [list(w) for w in weights], printed: [str(w) for w in weights]}


def _golden_mismatches(case: CaseFile, report: dict, ell_max: int) -> list[str]:
    """The golden values the report misses: "{key}: expected {want}, computed
    {got}" for the level, nebentype and weights (sorted tuples), then the pinned
    Frobenius classes; a class pinned above ell_max is out of range, not missing."""
    expected = case.expected
    if expected is None:
        return []
    got = {"level": report["level"]["exponents"], "nebentype": report["nebentype"]["kind"],
           "weights": sorted(map(tuple, report["weights"]))}
    want = dict(expected, weights=sorted(expected["weights"] or ()))
    mismatches = [f"{key}: expected {want[key]}, computed {got[key]}"
                  for key in got if expected[key] is not None and want[key] != got[key]]
    pinned = expected["frobenius_classes"] or {}
    classes = {e["ell"]: e["class"] for e in report["frobenius"]} if pinned else {}
    for ell, label in pinned.items():
        if ell <= ell_max and classes.get(ell) != label:
            mismatches.append(f"frobenius class at {ell}: expected {label},"
                              f" computed {classes.get(ell, 'missing')}")
    return mismatches


def verify_case(case: CaseFile, ell_max: int = DEFAULT_ELL_MAX) -> dict:
    """Run the full pipeline and return the report dictionary.

    Golden mismatches are recorded in the report, not raised; callers that
    need the exit-code contract check report["golden"]["mismatches"].
    """
    if case.data_only:
        return {
            "name": case.name,
            "data_only": True,
            "note": case.note,
            "golden": {"checked": False, "mismatches": []},
        }
    exponents, n, frob_section, frob_polys = frobenius_stage(case, ell_max)
    weights = weights_section(case.inertia_profile, case.p)
    verdict = check_attached(case.eigenvalues, frob_polys) if case.eigenvalues else None
    attachment = verdict.to_json() if verdict and verdict.per_ell else None
    b, c = quadratic_modulus(case.p)
    report = {
        "name": case.name,
        "p": case.p,
        "field_model": {"p": case.p, "quadratic_modulus": [c, b, 1]},
        "level": level_section(exponents, n),
        "nebentype": {"kind": case.nebentype.kind, "conductor": case.nebentype.conductor,
                      "k": case.nebentype_k},
        **weights,
        "frobenius": frob_section,
        "attachment": attachment,
        "certificates": [certify_same_extension(**req).to_json() for req in case.certificates],
        "provenance": {
            "inertia_profile": case.inertia_profile.provenance,
            "skipped_ells": case.skipped_ells,
        },
    }
    report["golden"] = {
        "checked": case.expected is not None,
        "mismatches": _golden_mismatches(case, report, ell_max),
    }
    return report


def report_to_json(report: dict) -> str:
    """Canonical serialization (``write_json``): sorted keys, two-space indent."""
    return write_json(report)
