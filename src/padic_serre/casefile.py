"""Verification scenarios ("case files") and the pipeline that runs them.

A case file is a JSON document describing one scenario: the defining
sextic, the working prime p, ramification filtrations for the level, the
nebentype character, the tame inertia profile for the weights, per-ell
Frobenius inputs, optional eigenvalue records, and optional golden
expected values.  Twelve scenarios ship with the package: six carry golden
values (level, nebentype, weight set, and for the p=5 case one pinned
Frobenius class), six are data-only records of fields whose verification
was out of reach.

The pipeline: level -> nebentype validation -> predicted weights ->
per-ell Frobenius class and characteristic polynomial (the cover path for
p=5, the symmetric-square tables for p=3) -> attachment check when
eigenvalues are present -> comparison against the golden block.  Reports
are deterministic (sorted keys, fixed field models), so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
import os
from math import lcm
from typing import Optional

from .arith import Record, is_prime, quadratic_modulus
from .errors import InconsistencyError, SchemaError, json_int, json_list, read_json
from .galois_local import LevelDatum, level
from .hecke import EigenvalueRecord, check_attached
from .krasner import METHODS, certify_same_extension, parse_evidence
from .polynomial import IntPoly, cycle_type_mod_ell, discriminant
from .rep3a6 import (
    coarse_from_cycle_type,
    frob_charpoly,
    frobenius_class,
    mod3_charpoly_candidates,
    twist,
)
from .weights import DirichletCharacter, InertiaProfile, nebentype_factor, predicted_weights

DEFAULT_ELL_MAX = 47
FINE_ORDER5 = ("5a", "5b", "unknown")

BUNDLED = (
    "2-3-55", "2-3-57", "2-3-58", "3-7-3", "3-13-9", "5-17-1",
    "2-3-59", "2-5-17", "3-5-7", "3-5-8", "3-19-3", "13-19-1",
)
GOLDEN = BUNDLED[:6]
CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")


class CaseFile(Record):
    __slots__ = ("name", "data_only", "sextic", "p", "level_data", "nebentype", "nebentype_k",
                 "inertia_profile", "frobenius_inputs", "eigenvalues", "expected",
                 "certificates", "note", "skipped_ells")

    def __init__(self, name: str, data_only: bool, sextic: Optional[IntPoly], p: Optional[int],
                 level_data: list[LevelDatum], nebentype: Optional[DirichletCharacter],
                 nebentype_k: int, inertia_profile: Optional[InertiaProfile],
                 frobenius_inputs: list[dict], eigenvalues: Optional[list[EigenvalueRecord]],
                 expected: Optional[dict], certificates: Optional[list] = None,
                 note: str = "", skipped_ells: Optional[list[int]] = None):
        self._set(name, data_only, sextic, p, level_data, nebentype, nebentype_k,
                  inertia_profile, frobenius_inputs, eigenvalues, expected,
                  [] if certificates is None else certificates, note,
                  [] if skipped_ells is None else skipped_ells)

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseFile":
        try:
            name = payload["name"]
            if not isinstance(name, str):
                raise SchemaError(f"name {name!r} is not a string")
            data_only = payload.get("data_only", False)
            if not isinstance(data_only, bool):
                raise SchemaError(f"data_only {data_only!r} is not true or false")
            note = payload.get("note", "")
            if not isinstance(note, str):
                raise SchemaError(f"note {note!r} is not a string")
            skipped_ells = [json_int(ell) for ell in json_list(payload.get("skipped_ells", []))]
            sextic = IntPoly.from_json(payload["sextic"]) if "sextic" in payload else None
            if data_only:
                return cls(name, True, sextic, None, [], None, 0, None, [], None, None,
                           note=note, skipped_ells=skipped_ells)
            p = json_int(payload["p"])
            if not is_prime(p):
                raise SchemaError(f"p = {p} is not prime")
            neb = payload.get("nebentype", {"kinds": [], "k": 0})
            profile = InertiaProfile.from_json(payload["inertia_profile"])
            eigenvalues = payload.get("eigenvalues")  # null reads as absent
            return cls(
                name=name,
                data_only=False,
                sextic=sextic,
                p=p,
                level_data=[LevelDatum.from_json(d) for d in json_list(payload["level_data"])],
                nebentype=DirichletCharacter.from_json(neb.get("kinds", []), p),
                nebentype_k=json_int(neb.get("k", 0)),
                inertia_profile=profile,
                frobenius_inputs=[_frobenius_input(e)
                                  for e in json_list(payload.get("frobenius_inputs", []))],
                eigenvalues=[EigenvalueRecord.from_json(e, p)
                             for e in json_list([] if eigenvalues is None else eigenvalues)],
                expected=_expected(payload.get("expected")),
                certificates=[_certificate_request(req)
                              for req in json_list(payload.get("certificates", []))],
                note=note,
                skipped_ells=skipped_ells,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed case file: {exc}") from exc

    @classmethod
    def load(cls, path) -> "CaseFile":
        return cls.from_dict(read_json(path))


def _frobenius_input(entry: dict) -> dict:
    """A copy of the entry with ell, and the stored cycle type, Artin power
    and residue degree if any, read as integers, ell checked to be prime,
    and the order-5 class if any checked against FINE_ORDER5."""
    out = dict(entry, ell=json_int(entry["ell"]))
    if not is_prime(out["ell"]):
        raise SchemaError(f"frobenius_inputs row at ell {out['ell']}: ell is not prime")
    for key in ("artin_power", "residue_degree"):
        if key in entry:
            out[key] = json_int(entry[key])
    if "cycle_type" in entry:
        if not isinstance(entry["cycle_type"], list):
            raise SchemaError(f"cycle_type {entry['cycle_type']!r} is not a list")
        out["cycle_type"] = tuple(json_int(x) for x in entry["cycle_type"])
    if entry.get("fine_order5", "unknown") not in FINE_ORDER5:
        raise SchemaError(f"fine_order5 {entry['fine_order5']!r} is not one of {FINE_ORDER5}")
    return out


def _certificate_request(req: dict) -> dict:
    """A certificate request as the keyword arguments of
    ``certify_same_extension``, its p checked to be prime."""
    method = req.get("method", "prop1")
    if method not in METHODS:
        raise SchemaError(f"certificate method {method!r} is not one of {METHODS}")
    p = json_int(req["p"])
    if not is_prime(p):
        raise SchemaError(f"certificate p = {p} is not prime")
    return {
        "f": IntPoly.from_json(req["f"]),
        "g": IntPoly.from_json(req["g"]),
        "p": p,
        "evidence_f": parse_evidence(req["evidence_f"]),
        "evidence_g": parse_evidence(req["evidence_g"]),
        "method": method,
    }


def _expected(expected: Optional[dict]) -> Optional[dict]:
    """A copy of the golden block with the level primes and exponents, the
    weights and the primes of the Frobenius classes read as integers; a
    nebentype or class label that is not a string, or a weight that is not
    three values: SchemaError."""
    if expected is None:
        return None
    out = dict(expected)
    if "level" in expected:
        out["level"] = {str(json_int(q)): json_int(e) for q, e in expected["level"].items()}
    if not isinstance(expected.get("nebentype", ""), str):
        raise SchemaError(f"expected nebentype {expected['nebentype']!r} is not a string")
    if "weights" in expected:
        weights = [tuple(json_int(x) for x in json_list(w)) for w in json_list(expected["weights"])]
        if any(len(w) != 3 for w in weights):
            raise SchemaError(f"expected weights {weights} must each have three values")
        out["weights"] = sorted(weights)
    labels = expected.get("frobenius_classes")
    if labels is not None:
        if not all(isinstance(label, str) for label in labels.values()):
            raise SchemaError(f"expected Frobenius class labels {labels!r} must be strings")
        out["frobenius_classes"] = {json_int(ell): label for ell, label in labels.items()}
    return out


def bundled_case_names() -> tuple[str, ...]:
    return BUNDLED


def load_bundled_case(name: str) -> CaseFile:
    if name not in BUNDLED:
        raise SchemaError(f"unknown bundled case {name}")
    return CaseFile.load(os.path.join(CASES_DIR, f"{name}.json"))


def _cycle_type_checked(case: CaseFile, entry: dict, disc: Optional[int]) -> tuple[int, ...]:
    """Stored cycle type, cross-checked against the sextic mod ell whenever
    the reduction is squarefree; disc is the sextic's discriminant, None
    when the case has no sextic."""
    ell = entry["ell"]
    stored = entry.get("cycle_type", ())
    if disc is not None and disc % ell != 0:
        computed = cycle_type_mod_ell(case.sextic, ell)
        if stored and stored != computed:
            raise InconsistencyError(
                f"case {case.name}: stored cycle type {stored} at ell={ell}"
                f" disagrees with the recomputed {computed}"
            )
        return computed
    if not stored and disc is None:
        raise InconsistencyError(f"case {case.name}: ell={ell} has no stored cycle type"
                                 " and no sextic to compute it from")
    if not stored:
        raise InconsistencyError(
            f"case {case.name}: ell={ell} has non-squarefree reduction and no stored cycle type"
        )
    return stored


def _frobenius_entry(entry: dict, cycle_type, eps_sign: int, p: int) -> tuple[dict, list]:
    """The report entry at one ell: the mod-p class of Frobenius, from the
    cover table at p=5 and the symmetric-square table at p=3, and its
    charpolys twisted by the nebentype sign; returned with those twisted
    charpolys.  Two candidates mean an unresolved order-5 class."""
    if p == 5:
        label = frobenius_class(cycle_type, entry.get("artin_power", 0),
                                entry.get("residue_degree", lcm(*cycle_type)))
        candidates = [frob_charpoly(label, 1)]
    else:
        label = coarse_from_cycle_type(cycle_type)
        if label == "5ab" and entry.get("fine_order5") in ("5a", "5b"):
            label = entry["fine_order5"]
        candidates = mod3_charpoly_candidates(label)
    polys = [twist(poly, eps_sign) for poly in candidates]
    out = {
        "ell": entry["ell"],
        "cycle_type": list(cycle_type),
        "class": label,
        "charpolys": [[[c.c0, c.c1] for c in poly] for poly in polys],
    }
    if len(polys) > 1:
        out["note"] = "order-5 class unresolved: equal or conjugate"
    return out, polys


def _frobenius_section(case: CaseFile, n: int, ell_max: int) -> tuple[list[dict], dict]:
    """The Frobenius entries at the rows with ell <= ell_max, and their
    twisted charpolys by ell; n is the level.  Rows must have distinct ells
    prime to pN, where Frobenius is defined."""
    inputs = sorted(case.frobenius_inputs, key=lambda e: e["ell"])
    for a, b in zip(inputs, inputs[1:]):
        if a["ell"] == b["ell"]:
            raise InconsistencyError(f"duplicate ell {a['ell']} in frobenius_inputs")
    entries = [e for e in inputs if e["ell"] <= ell_max]
    if entries and case.p not in (3, 5):
        raise InconsistencyError(f"no frozen class data for p = {case.p};"
                                 " only p in (3, 5) is bundled")
    for e in inputs:
        if case.p * n % e["ell"] == 0:
            raise InconsistencyError(f"frobenius_inputs row at ell {e['ell']}: ell divides"
                                     f" pN = {case.p * n}, where Frobenius is not defined")
    disc = discriminant(case.sextic) if entries and case.sextic is not None else None
    section, frob_polys = [], {}
    for entry in entries:
        out, frob_polys[entry["ell"]] = _frobenius_entry(
            entry, _cycle_type_checked(case, entry, disc),
            case.nebentype.sign_at(entry["ell"]), case.p)
        section.append(out)
    return section, frob_polys


def _golden_mismatches(case: CaseFile, report: dict, ell_max: int) -> list[str]:
    """The golden values the report misses; a pinned Frobenius class above
    ell_max is out of the report's range, not missing."""
    expected = case.expected or {}
    mismatches = []
    if "level" in expected:
        want = expected["level"]
        got = report["level"]["exponents"]
        if want != got:
            mismatches.append(f"level: expected {want}, computed {got}")
    if "nebentype" in expected and expected["nebentype"] != report["nebentype"]["kind"]:
        mismatches.append(
            f"nebentype: expected {expected['nebentype']}, computed {report['nebentype']['kind']}"
        )
    if "weights" in expected:
        want_w = expected["weights"]
        got_w = sorted(tuple(w) for w in report["weights"])
        if want_w != got_w:
            mismatches.append(f"weights: expected {want_w}, computed {got_w}")
    for ell, label in (expected.get("frobenius_classes") or {}).items():
        if ell > ell_max:
            continue
        found = next((e for e in report["frobenius"] if e["ell"] == ell), None)
        if found is None or found.get("class") != label:
            mismatches.append(
                f"frobenius class at {ell}: expected {label}, "
                f"computed {found.get('class') if found else 'missing'}"
            )
    return mismatches


def _certificate_section(case: CaseFile) -> list[dict]:
    return [certify_same_extension(**req).to_json() for req in case.certificates]


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
    exponents, n = level(case.level_data, p=case.p)
    nebentype_factor(case.nebentype_k, case.nebentype, n)
    weights = predicted_weights(case.inertia_profile, case.p)
    frob_section, frob_polys = _frobenius_section(case, n, ell_max)
    attachment = (check_attached(case.eigenvalues, frob_polys).to_json()
                  if case.eigenvalues else None)
    b, c = quadratic_modulus(case.p)
    report = {
        "name": case.name,
        "p": case.p,
        "field_model": {"p": case.p, "quadratic_modulus": [c, b, 1]},
        "level": {
            "exponents": {str(q): e for q, e in sorted(exponents.items())},
            "N": str(n),
        },
        "nebentype": {"kind": case.nebentype.kind, "conductor": case.nebentype.conductor,
                      "k": case.nebentype_k},
        "weights": [list(w) for w in sorted(weights)],
        "weights_printed": [str(w) for w in sorted(weights)],
        "frobenius": frob_section,
        "attachment": attachment,
        "certificates": _certificate_section(case),
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
    """Canonical serialization: sorted keys, no trailing whitespace."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
