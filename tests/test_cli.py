import json
import pickle
import signal
import sys

import pytest

from padic_serre.casefile import (
    CASE,
    DATA_ONLY,
    CaseFile,
    GOLDEN,
    bundled_case_names,
    load_bundled_case,
    report_to_json,
    verify_case,
)
from padic_serre import cli
from padic_serre.cli import _evidence_flag, main
from padic_serre.errors import SchemaError
from padic_serre.krasner import METHODS, parse_evidence, precision_report
from padic_serre.polynomial import IntPoly

from bundled_json import case_json
from helpers import solve_record


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_polygon_command(tmp_path, capsys):
    poly = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    assert main(["polygon", poly, "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["segments"] == [{"slope": "1/3", "multiplicity": 3}]


def test_polygon_on_bundled_sextic(tmp_path, capsys):
    case = load_bundled_case("2-3-55")
    shifted = case.sextic.shift(1)
    poly = _write(tmp_path, "t.json", shifted.to_json())
    assert main(["polygon", poly, "--p", "2"]) == 0
    json.loads(capsys.readouterr().out)


def test_polygon_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["polygon", str(bad), "--p", "2"]) == 2


@pytest.mark.parametrize("coeffs", [[1.5, 0, 1], [True, 0, 1], ["1.5", 0, 1], [None, 0, 1]])
def test_polygon_rejects_non_integer_coefficients(tmp_path, capsys, coeffs):
    poly = _write(tmp_path, "f.json", coeffs)
    assert main(["polygon", poly, "--p", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_precision_command(tmp_path, capsys):
    poly = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    assert main(["precision", poly, "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d"] == "2" and out["a"] == "1"
    assert out["bound_prop1bis"] == "2/3" and out["k_prop1bis"] == 1
    poly2 = _write(tmp_path, "g.json", ["-2", "0", "1"])
    assert main(["precision", poly2, "--p", "2", "--method", "prop1bis"]) == 0
    assert json.loads(capsys.readouterr().out)["k_prop1bis"] == 3


def test_precision_rejects_non_monic(tmp_path, capsys):
    poly = _write(tmp_path, "f.json", ["-2", "0", "0", "2"])
    assert main(["precision", poly, "--p", "2"]) == 3


@pytest.mark.parametrize("method", METHODS)
def test_precision_rejects_repeated_root(tmp_path, capsys, method):
    # (x-1)^2 (x+2): monic with a nonzero constant term, but not squarefree
    poly = _write(tmp_path, "f.json", ["2", "-3", "0", "1"])
    assert main(["precision", poly, "--p", "2", "--method", method]) == 3
    assert "polynomial is not squarefree" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "0", "-3", "4"])
def test_non_prime_p_exits_2(tmp_path, capsys, p):
    poly = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    profile = _write(tmp_path, "w.json", {"niveau": 2, "k": 0, "m": 1})
    data = _write(tmp_path, "l.json", {"level_data": []})
    for argv in (["polygon", poly], ["precision", poly, "--method", "safe"],
                 ["certify", poly, poly, "--evidence-f", "single-slope",
                  "--evidence-g", "single-slope"],
                 ["weights", profile], ["level", data]):
        assert main(argv + [f"--p={p}"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"--p {p} is not prime" in captured.err


def test_certify_command(tmp_path, capsys):
    f = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    g = _write(tmp_path, "g.json", ["-2", "2", "0", "1"])
    rc = main(["certify", f, g, "--p", "2",
               "--evidence-f", "eisenstein-after-shift:0",
               "--evidence-g", "eisenstein-after-shift:0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "certified"


@pytest.mark.parametrize("evidence", ["eisenstein-after-shift:x", "irreducible-mod-q:x",
                                      "irreducible-mod-q:1.5"])
def test_certify_rejects_non_integer_evidence_argument(tmp_path, capsys, evidence):
    f = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    g = _write(tmp_path, "g.json", ["-2", "2", "0", "1"])
    rc = main(["certify", f, g, "--p", "2",
               "--evidence-f", evidence, "--evidence-g", "single-slope"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_certify_caveat_pair_rejected(tmp_path, capsys):
    f = _write(tmp_path, "f.json", ["-2", "0", "0", "1"])
    g = _write(tmp_path, "g.json", ["0", "0", "0", "1"])
    rc = main(["certify", f, g, "--p", "2",
               "--evidence-f", "eisenstein-after-shift:0",
               "--evidence-g", "eisenstein-after-shift:0"])
    assert rc == 3
    assert "g" in capsys.readouterr().err


def test_certify_under_precision_inconclusive(tmp_path, capsys):
    f = _write(tmp_path, "f.json", ["-2", "0", "1"])
    g = _write(tmp_path, "g.json", ["2", "0", "1"])
    rc = main(["certify", f, g, "--p", "2", "--method", "prop1bis",
               "--evidence-f", "eisenstein-after-shift:0",
               "--evidence-g", "eisenstein-after-shift:0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


def test_level_command(tmp_path, capsys):
    data = _write(tmp_path, "lvl.json", {
        "level_data": [{"q": 2, "filtration":
                        [{"order": 12, "fixed_dim": 0}] + [{"order": 4, "fixed_dim": 0}] * 5}]
    })
    assert main(["level", data]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"exponents": {"2": 8}, "N": "256"}


def test_weights_command(tmp_path, capsys):
    profile = _write(tmp_path, "prof.json",
                     {"niveau": 1, "triples": [[0, 0, 0]], "flags": ["none", "none"]})
    assert main(["weights", profile, "--p", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weights"] == [[6, 3, 0]] and out["printed"] == ["(6,3,0)"]


def test_frobenius_command(capsys):
    assert main(["frobenius", "5-17-1", "--ell-max", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    ells = [e["ell"] for e in out["frobenius"]]
    assert ells == [2, 3]
    frob2 = out["frobenius"][0]
    assert frob2["class"] == "15bd"


def test_verify_case_all_golden(capsys):
    for name in GOLDEN:
        assert main(["verify-case", name]) == 0, name
        report = json.loads(capsys.readouterr().out)
        assert report["golden"]["checked"] and not report["golden"]["mismatches"]


def test_verify_case_data_only(capsys):
    for name in bundled_case_names()[6:]:
        assert main(["verify-case", name]) == 0
        capsys.readouterr()


def test_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-case", "5-17-1", "--json-out", str(out1)]) == 0
    assert main(["verify-case", "5-17-1", "--json-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = verify_case(load_bundled_case("5-17-1"))
    assert report_to_json(report).encode() == out1.read_bytes()


@pytest.mark.parametrize("argv", [
    ["polygon", "{f}", "--p", "2"],
    ["precision", "{f}", "--p", "2"],
    ["certify", "{f}", "{g}", "--p", "2", "--evidence-f", "eisenstein-after-shift:0",
     "--evidence-g", "eisenstein-after-shift:0"],
    ["level", "{level}"],
    ["weights", "{profile}", "--p", "5"],
    ["frobenius", "5-17-1", "--ell-max", "3"],
    ["verify-case", "3-13-9"],
], ids=lambda argv: argv[0])
def test_json_out_holds_the_stdout_bytes_and_an_unwritable_one_exits_2(tmp_path, capsys, argv):
    paths = {"f": _write(tmp_path, "f.json", ["-2", "0", "0", "1"]),
             "g": _write(tmp_path, "g.json", ["-2", "2", "0", "1"]),
             "level": _write(tmp_path, "lvl.json", {"level_data": []}),
             "profile": _write(tmp_path, "prof.json", {"niveau": 1, "triples": [[0, 0, 0]]})}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--json-out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == stdout
    missing = tmp_path / "missing" / "out.json"
    assert main(argv + ["--json-out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {missing}: ")


@pytest.mark.parametrize("case,expected,mismatch", [
    ("3-13-9", {"level": {"13": 1}}, "level: "),
    ("3-13-9", {"nebentype": "eps13"}, "nebentype: "),
    ("5-17-1", {"frobenius_classes": {"2": "5a"}}, "frobenius class at 2: "),
    ("5-17-1", {"frobenius_classes": {"23": "15bd"}}, "frobenius class at 23: "),
], ids=["level", "nebentype", "frobenius-class", "frobenius-class-without-row"])
def test_golden_mismatch_exit_code(tmp_path, capsys, case, expected, mismatch):
    payload = case_json(case)
    payload["expected"] = dict(payload["expected"], **expected)
    path = _write(tmp_path, "tampered.json", payload)
    assert main(["verify-case", path]) == 1
    mismatches = json.loads(capsys.readouterr().out)["golden"]["mismatches"]
    assert len(mismatches) == 1 and mismatches[0].startswith(mismatch)
    assert main(["verify-case", path, "--json-out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("case,expected,mismatches", [
    ("3-13-9", {"weights": [[2, 1, 0]]}, ["weights: expected [(2, 1, 0)], computed [(5, 3, 1)]"]),
    ("3-13-9", {"weights": []}, ["weights: expected [], computed [(5, 3, 1)]"]),
    ("3-13-9", {"level": {}}, ["level: expected {}, computed {'13': 2}"]),
    ("5-17-1", {"level": {"17": 2}, "nebentype": "trivial", "weights": [[1, 1, 1], [0, 0, 0]],
                "frobenius_classes": {"2": "5a", "23": "x", "97": "y"}},
     ["level: expected {'17': 2}, computed {'17': 1}",
      "nebentype: expected trivial, computed eps17",
      "weights: expected [(0, 0, 0), (1, 1, 1)], computed [(6, 3, 0)]",
      "frobenius class at 2: expected 5a, computed 15bd",
      "frobenius class at 23: expected x, computed missing"]),
], ids=["weights", "weights-empty", "level-empty", "every-kind"])
def test_golden_mismatch_messages_in_full(tmp_path, capsys, case, expected, mismatches):
    """Every golden mismatch message in full, in order: level, nebentype,
    weights (sorted on both sides), then the pinned classes; the class
    pinned at 97 is above the default --ell-max 47, so it is not listed."""
    payload = case_json(case)
    payload["expected"] = dict(payload["expected"], **expected)
    assert main(["verify-case", _write(tmp_path, "tampered.json", payload)]) == 1
    assert json.loads(capsys.readouterr().out)["golden"]["mismatches"] == mismatches


def test_golden_class_above_ell_max_is_not_checked(capsys):
    # 5-17-1 pins the class at 2; with --ell-max 1 no Frobenius row is
    # computed, so the pin is out of range, not missing
    assert main(["verify-case", "5-17-1", "--ell-max", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] == [] and report["golden"]["mismatches"] == []
    assert main(["verify-case", "5-17-1", "--ell-max", "2"]) == 0
    assert [e["class"] for e in json.loads(capsys.readouterr().out)["frobenius"]] == ["15bd"]


def _with_solved_records(name: str) -> dict:
    """The case with one eigenvalue record per Frobenius row of its report,
    solved from the row's first candidate."""
    payload = case_json(name)
    report = verify_case(CaseFile.from_dict(payload))
    payload["eigenvalues"] = [solve_record(e["ell"], e["charpolys"][0], report["p"]).to_json()
                              for e in report["frobenius"]]
    return payload


def test_ell_max_scopes_the_eigenvalue_records(tmp_path, capsys):
    # the records of 5-17-1 at its 12 rows, 2 to 47: a record above
    # --ell-max is out of range, as a golden class is
    path = _write(tmp_path, "records.json", _with_solved_records("5-17-1"))
    for ell_max, top in (("47", 47), ("40", 37), ("2", 2)):
        assert main(["verify-case", path, "--ell-max", ell_max]) == 0
        attachment = json.loads(capsys.readouterr().out)["attachment"]
        assert attachment["overall"] == "attached"
        assert max(int(ell) for ell in attachment["per_ell"]) == top
    assert main(["verify-case", path, "--ell-max", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["attachment"] is None


@pytest.mark.parametrize("extra,message", [
    ({"ell": 53, "a": [[1, 0], [0, 0], [0, 0]]}, "no Frobenius polynomial supplied for ell = 53"),
    (None, "duplicate ell 43 in eigenvalue records"),
], ids=["record-without-row", "repeated-record"])
@pytest.mark.parametrize("ell_max", ["1", "40", "47", "60"])
def test_unmatched_records_are_inconsistent_at_any_ell_max(tmp_path, capsys, extra, message,
                                                           ell_max):
    payload = _with_solved_records("5-17-1")
    records = payload["eigenvalues"]
    records.append(extra or next(rec for rec in records if rec["ell"] == 43))
    path = _write(tmp_path, "records.json", payload)
    assert main(["verify-case", path, "--ell-max", ell_max]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_frobenius_runs_only_the_stages_its_payload_shows(tmp_path, capsys):
    """A record without a Frobenius row fails the attachment check, which
    frobenius does not run: it prints the case's own section."""
    payload = dict(case_json("5-17-1"), eigenvalues=[{"ell": 53, "a": [[1, 0], [0, 0], [0, 0]]}])
    path = _write(tmp_path, "record-at-53.json", payload)
    assert main(["frobenius", "5-17-1"]) == 0
    section = capsys.readouterr().out
    assert main(["frobenius", path]) == 0
    assert capsys.readouterr().out == section
    assert main(["verify-case", path]) == 3


def test_schema_error_exit_code(tmp_path):
    path = _write(tmp_path, "incomplete.json", {"name": "x", "sextic": ["1", "1"]})
    assert main(["verify-case", path]) == 2


def test_inconsistent_case_exit_code(tmp_path):
    payload = case_json("3-13-9")
    payload["frobenius_inputs"][0]["cycle_type"] = [6]
    path = _write(tmp_path, "inconsistent.json", payload)
    assert main(["verify-case", path]) == 3


def _drop(row, key):
    row.pop(key)


@pytest.mark.parametrize("section,edit", [
    ("frobenius_inputs", lambda row: _drop(row, "ell")),
    ("frobenius_inputs", lambda row: row.update(ell="x")),
    ("frobenius_inputs", lambda row: row.update(ell=1.5)),
    ("frobenius_inputs", lambda row: row.update(cycle_type=["a"])),
    ("level_data", lambda row: _drop(row["filtration"][0], "fixed_dim")),
], ids=["no-ell", "ell-x", "ell-float", "cycle-type-letter", "no-fixed-dim"])
def test_malformed_case_fields_exit_2(tmp_path, capsys, section, edit):
    payload = case_json("3-13-9")
    edit(payload[section][0])
    path = _write(tmp_path, "malformed.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


CERTIFICATE = {"f": ["-2", "0", "0", "1"], "g": ["-2", "2", "0", "1"], "p": 2,
               "evidence_f": ["eisenstein-after-shift", 0],
               "evidence_g": ["eisenstein-after-shift", 0]}


EIGENVALUES_AT_2 = {"ell": 2, "a": [[1, 0], [0, 1], [2, 3]]}


def _first_frobenius_row(payload, **fields):
    payload["frobenius_inputs"][0].update(fields)


def _floats(rows):
    return [[float(x) for x in row] for row in rows]


def _certificate(d, **fields):
    d["certificates"] = [dict(CERTIFICATE, **fields)]


def _certificate_without_f(d):
    _certificate(d)
    _drop(d["certificates"][0], "f")


# N = 2^15000, 4,516 digits: past the interpreter's limit for writing an integer
LEVEL_PAST_THE_DIGIT_LIMIT = [{"q": 2, "filtration": [{"order": 1, "fixed_dim": 0}] * 5000}]


# each value is a schema error, not something to coerce with int() or to
# report as a golden mismatch or an inconsistency; "artin_power" and
# "residue_degree" sit on a row of cycle type (5, 1) with residue degree 5
@pytest.mark.parametrize("case,edit", [
    ("5-17-1", lambda d: d.update(p=5.0)),
    ("5-17-1", lambda d: d.update(p=4)),
    ("5-17-1", lambda d: _first_frobenius_row(d, artin_power=1.5)),
    ("5-17-1", lambda d: _first_frobenius_row(d, residue_degree=5.0)),
    ("5-17-1", lambda d: _first_frobenius_row(d, cycle_type=5)),
    ("5-17-1", lambda d: d.update(nebentype=dict(d["nebentype"], k=True))),
    ("5-17-1", lambda d: d.update(certificates=[dict(CERTIFICATE, p=2.0)])),
    ("5-17-1", lambda d: d.update(certificates=[
        dict(CERTIFICATE, evidence_f=["irreducible-mod-q", 7.5])])),
    ("3-13-9", lambda d: d["expected"].update(level={"13": 1.0})),
    ("3-13-9", lambda d: d["expected"].update(level=[["13", 1]])),
    ("3-13-9", lambda d: d["expected"].update(weights=_floats(d["expected"]["weights"]))),
    ("5-17-1", lambda d: d["expected"].update(frobenius_classes={"2.0": "15bd"})),
    ("5-17-1", lambda d: d["inertia_profile"].update(niveau=1.0)),
    ("5-17-1", lambda d: d["inertia_profile"].update(triples=[[1.5, 0, 0]])),
    ("5-17-1", lambda d: d["inertia_profile"].update(flags="ab")),
    ("5-17-1", lambda d: d["inertia_profile"].update(flags=["none", "bogus"])),
    ("5-17-1", lambda d: d["inertia_profile"].update(provenance=7)),
    ("5-17-1", _certificate_without_f),
    ("5-17-1", lambda d: _certificate(d, evidence_f=None)),
    ("5-17-1", lambda d: _certificate(d, evidence_f="single-slope")),
    ("5-17-1", lambda d: _certificate(d, evidence_f=["bogus"])),
    ("5-17-1", lambda d: _certificate(d, evidence_f=["single-slope", 3])),
    ("5-17-1", lambda d: _certificate(d, method="nope")),
    ("5-17-1", lambda d: _certificate(d, f="x")),
    ("5-17-1", lambda d: d["nebentype"].update(kinds="eps17")),
    ("5-17-1", lambda d: d["nebentype"].update(kinds=[[]])),
    ("5-17-1", lambda d: d.update(data_only="false")),
    ("5-17-1", lambda d: d.update(data_only=0)),
    ("5-17-1", lambda d: _first_frobenius_row(d, fine_order5=5)),
    ("3-13-9", lambda d: _first_frobenius_row(d, fine_order5="5c")),
    ("5-17-1", lambda d: d.update(certificates={})),
    ("5-17-1", lambda d: d.update(certificates="")),
    ("5-17-1", lambda d: d.update(level_data={})),
    ("5-17-1", lambda d: d.update(frobenius_inputs={})),
    ("5-17-1", lambda d: d.update(eigenvalues={})),
    ("3-13-9", lambda d: d.update(skipped_ells={"a": 1})),
    ("3-13-9", lambda d: d.update(skipped_ells=["a"])),
    ("2-3-59", lambda d: d.update(note=1)),
    ("3-13-9", lambda d: d.update(name=["x"])),
    ("3-13-9", lambda d: d.update(name=1)),
    ("5-17-1", lambda d: d["frobenius_inputs"].append({"ell": 4, "cycle_type": [1] * 6})),
    ("5-17-1", lambda d: d["frobenius_inputs"].append({"ell": 0, "cycle_type": [1] * 6})),
    ("5-17-1", lambda d: d["frobenius_inputs"].append({"ell": 1, "cycle_type": [1] * 6})),
    ("5-17-1", lambda d: d["frobenius_inputs"].append({"ell": -3, "cycle_type": [1] * 6})),
    ("5-17-1", lambda d: d["level_data"][0].update(q=4)),
    ("5-17-1", lambda d: _certificate(d, p=4)),
    ("5-17-1", lambda d: _certificate(d, evidence_f=["irreducible-mod-q", 9])),
    ("5-17-1", lambda d: d["expected"].update(weights=["630"])),
    ("5-17-1", lambda d: d.update(eigenvalues=[{"ell": 2, "a": ["12", "34", "01"]}])),
    ("5-17-1", lambda d: d.update(eigenvalues=[{"ell": 2, "a": "123"}])),
    ("5-17-1", lambda d: d["inertia_profile"].update(triples=["000"])),
    ("5-17-1", lambda d: d["expected"].update(nebentype=5)),
    ("5-17-1", lambda d: d["expected"].update(frobenius_classes={"2": 5})),
    ("5-17-1", lambda d: d["expected"].update(level={"seventeen": 1})),
    ("5-17-1", lambda d: d["expected"].update(weights=[[6, 3]])),
    ("5-17-1", lambda d: d["expected"].update(weights=[[6, 3, 0, 0]])),
    ("5-17-1", lambda d: d.update(expected=[])),
    ("5-17-1", lambda d: d["expected"].update(frobenius_classes=[])),
    ("5-17-1", lambda d: d["expected"].update(source=1.5)),
    ("5-17-1", lambda d: _first_frobenius_row(d, provenance=[1])),
    ("5-17-1", lambda d: _first_frobenius_row(d, artin_provenance=7)),
    ("5-17-1", lambda d: d.update(data_only=True, expected=dict(d["expected"], level={"17": 5}))),
    ("5-17-1", lambda d: d["level_data"][0].update(filtration={})),
    ("3-7-3", lambda d: d["level_data"][0].update(filtration="")),
    ("5-17-1", lambda d: d.update(level_data=LEVEL_PAST_THE_DIGIT_LIMIT)),
], ids=["p-float", "p-not-prime", "artin-power-float", "residue-degree-float",
        "cycle-type-int", "nebentype-k-bool",
        "certificate-p-float", "evidence-q-float", "expected-level-float", "expected-level-list",
        "expected-weights-float", "expected-ell-float", "niveau-float", "triple-float",
        "flags-string", "flag-unknown", "provenance-int", "certificate-without-f", "evidence-null", "evidence-string",
        "evidence-unknown-kind", "evidence-extra-argument", "certificate-method-unknown",
        "certificate-f-string", "nebentype-kinds-string", "nebentype-kinds-nested",
        "data-only-string", "data-only-zero", "fine-order5-int", "fine-order5-unknown-label",
        "certificates-object", "certificates-string", "level-data-object",
        "frobenius-inputs-object", "eigenvalues-object", "skipped-ells-object",
        "skipped-ells-letter", "note-int", "name-list", "name-int", "frobenius-ell-4",
        "frobenius-ell-0", "frobenius-ell-1", "frobenius-ell-negative", "level-q-4",
        "certificate-p-4", "evidence-q-9", "expected-weight-string",
        "eigenvalue-pair-strings", "eigenvalues-string", "triple-string",
        "expected-nebentype-int", "expected-class-int", "expected-level-word",
        "expected-weight-short", "expected-weight-long", "expected-list",
        "expected-classes-list", "expected-source-float", "row-provenance-list",
        "row-artin-provenance-int", "data-only-golden-case", "filtration-object",
        "filtration-empty-string", "level-past-the-digit-limit"])
def test_case_values_outside_the_schema_exit_2(tmp_path, capsys, case, edit):
    payload = case_json(case)
    edit(payload)
    path = _write(tmp_path, "coerced.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("edit,path", [
    (lambda d: d["expected"].update(source=1.5), "expected.source"),
    (lambda d: _first_frobenius_row(d, provenance=[1]), "frobenius_inputs[0].provenance"),
    (lambda d: _first_frobenius_row(d, artin_provenance=7),
     "frobenius_inputs[0].artin_provenance"),
    (lambda d: d["level_data"][0].update(provenance=None), "level_data[0].provenance"),
    (lambda d: d.update(has_cover="yes"), "has_cover"),
    (lambda d: d.update(ramified=[5, 18]), "ramified[1]"),
    (lambda d: d.update(eigenvalues=[dict(EIGENVALUES_AT_2, ell=4)]), "eigenvalues[0].ell"),
], ids=["source", "provenance", "artin-provenance", "level-provenance", "has-cover",
        "ramified-not-prime", "eigenvalue-ell-not-prime"])
def test_non_string_annotation_names_its_key(tmp_path, capsys, edit, path):
    payload = case_json("5-17-1")
    edit(payload)
    file = _write(tmp_path, "annotation.json", payload)
    assert main(["verify-case", file]) == 2
    assert f"error: in {file}: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-case", "frobenius"])
def test_case_file_schema_error_names_the_file(tmp_path, capsys, command):
    """CaseFile.load prefixes the file, as the other subcommands' loader does."""
    payload = case_json("5-17-1")
    del payload["p"]
    path = _write(tmp_path, "no-p.json", payload)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: in {path}: p: required key missing\n"


def test_empty_filtration_list_is_inconsistent(tmp_path, capsys):
    """An empty list is a list: it passes the schema and fails the level rule."""
    payload = case_json("5-17-1")
    payload["level_data"][0]["filtration"] = []
    assert main(["verify-case", _write(tmp_path, "empty.json", payload)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "filtration needs at least the inertia entry" in captured.err


def _rename(d, key, new):
    d[new] = d.pop(key)


# a misspelt key used to be dropped silently, switching its check off
@pytest.mark.parametrize("argv,edit,path", [
    (["verify-case"], lambda d: _rename(d, "expected", "expectd"), "expectd"),
    (["verify-case"], lambda d: _rename(d["expected"], "weights", "weight"), "expected.weight"),
    (["verify-case"], lambda d: _rename(d, "frobenius_inputs", "frobenius_input"),
     "frobenius_input"),
    (["verify-case"], lambda d: _rename(d["frobenius_inputs"][3], "cycle_type", "cycle_typ"),
     "frobenius_inputs[3].cycle_typ"),
    (["verify-case"], lambda d: _rename(d["inertia_profile"], "flags", "flgs"),
     "inertia_profile.flgs"),
    (["verify-case"], lambda d: d.update(extra=1), "extra"),
    (["verify-case"], lambda d: d["level_data"][0].update(extra=1), "level_data[0].extra"),
    (["level"], lambda d: d.update(extra=1), "extra"),
    (["level"], lambda d: d["level_data"][0].update(extra=1), "level_data[0].extra"),
    (["weights", "--p", "3"], lambda d: _rename(d["inertia_profile"], "flags", "flgs"),
     "inertia_profile.flgs"),
], ids=["expected", "expected-weights", "frobenius-inputs", "cycle-type", "profile-flags",
        "top", "level-datum", "level-top", "level-level-datum", "weights-profile-flags"])
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, argv, edit, path):
    payload = case_json("3-13-9")
    edit(payload)
    assert main([argv[0], _write(tmp_path, "typo.json", payload), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f" {path}: unknown key\n")


def test_weights_on_a_profile_with_a_misspelt_flags_key_exits_2(tmp_path, capsys):
    """Dropping flgs silently read (5,3,1)'s profile with its très-ramifiée
    refinement switched off, four weights instead of one."""
    profile = case_json("3-13-9")["inertia_profile"]
    assert main(["weights", _write(tmp_path, "prof.json", profile), "--p", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["printed"] == ["(5,3,1)"]
    _rename(profile, "flags", "flgs")
    path = _write(tmp_path, "prof.json", profile)
    assert main(["weights", path, "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: in {path}: flgs: unknown key\n"


@pytest.mark.parametrize("text", [
    "[" + "1" * (sys.get_int_max_str_digits() + 700) + ", 0, 1]",
    "[" * 100_000 + "]" * 100_000,
], ids=["integer-past-the-digit-limit", "nested-100000-deep"])
def test_json_the_interpreter_cannot_parse_exits_2(tmp_path, capsys, text):
    path = tmp_path / "poly.json"
    path.write_text(text)
    assert main(["polygon", str(path), "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot parse {path}: ")


def test_evidence_flag_and_case_file_claim_parse_alike():
    assert _evidence_flag("irreducible-mod-q:7") == parse_evidence(["irreducible-mod-q", "7"])
    assert _evidence_flag("irreducible-mod-q:7") == ("irreducible-mod-q", 7)
    assert _evidence_flag("assert") == parse_evidence(["caller-assertion"])


def _scaled_sextic_without_cycle_type(d, ell):
    """The sextic f replaced by ell^6 f(x/ell), which is non-squarefree mod
    ell, and the stored cycle type at ell dropped."""
    d["sextic"] = [str(int(c) * ell ** (6 - i)) for i, c in enumerate(d["sextic"])]
    _drop(next(row for row in d["frobenius_inputs"] if row["ell"] == ell), "cycle_type")


def _stored_cycle_type(d, ell, cycle_type, sextic=True):
    """The cycle type stored at ell replaced (dropped for None), at a row
    that is not recomputed: the sextic is made non-squarefree mod ell, or
    dropped."""
    if sextic:
        _scaled_sextic_without_cycle_type(d, ell)
    else:
        _drop(d, "sextic")
    row = next(row for row in d["frobenius_inputs"] if row["ell"] == ell)
    row.pop("cycle_type", None)
    if cycle_type is not None:
        row["cycle_type"] = cycle_type


def _fine_order5(d, ell, fine, sextic=True):
    """The order-5 class at ell set to fine; without the sextic, the row's
    stored cycle type is the one read."""
    if not sextic:
        _drop(d, "sextic")
    next(row for row in d["frobenius_inputs"] if row["ell"] == ell)["fine_order5"] = fine


def _p_7_without_a_row_at_7(d):
    """p = 7, which has no class data, and the row at 7 dropped: a row at
    an ell dividing pN would be refused before its class is read."""
    d.update(p=7, frobenius_inputs=[row for row in d["frobenius_inputs"] if row["ell"] != 7])


def _leading_coefficient_7(d):
    """The sextic T replaced by T + 6x^6: the same mod 2 and mod 3, so the
    rows at 2 and 3 still agree, with 7 | lc but not disc = 5 mod 7."""
    d["sextic"][6] = str(int(d["sextic"][6]) + 6)


@pytest.mark.parametrize("case,edit,message", [
    ("5-17-1", lambda d: _certificate(d, evidence_f=["irreducible-mod-q", 3]),
     "f: reduction mod 3"),
    ("5-17-1", lambda d: d["nebentype"].update(kinds=["eps99"]), "unknown character kinds"),
    ("5-17-1", _p_7_without_a_row_at_7, "row at ell 2: no frozen class data for p = 7"),
    ("5-17-1", lambda d: d["frobenius_inputs"].append(
        dict(d["frobenius_inputs"][0], artin_power=2)), "duplicate ell 2 in frobenius_inputs"),
    ("5-17-1", lambda d: d.update(eigenvalues=[EIGENVALUES_AT_2] * 2),
     "duplicate ell 2 in eigenvalue records"),
    ("3-13-9", lambda d: d["frobenius_inputs"].append({"ell": 13, "cycle_type": [1] * 6}),
     "frobenius_inputs row at ell 13: ell divides pN"),
    ("5-17-1", lambda d: d["frobenius_inputs"].append({"ell": 5, "cycle_type": [5, 1]}),
     "frobenius_inputs row at ell 5: ell divides pN"),
    ("5-17-1", lambda d: _scaled_sextic_without_cycle_type(d, 7),
     "ell=7 has non-squarefree reduction and no stored cycle type"),
    ("5-17-1", lambda d: _stored_cycle_type(d, 2, None, sextic=False),
     "ell=2 has no stored cycle type and no sextic to compute it from"),
    ("5-17-1", lambda d: _stored_cycle_type(d, 2, [0, 6], sextic=False),
     "(6, 0) is not a partition of 6"),
    ("5-17-1", lambda d: _stored_cycle_type(d, 2, [6, 0], sextic=False),
     "(6, 0) is not a partition of 6"),
    ("5-17-1", lambda d: _stored_cycle_type(d, 2, [-1, 7], sextic=False),
     "(7, -1) is not a partition of 6"),
    ("3-13-9", lambda d: _stored_cycle_type(d, 2, [0, 6], sextic=False),
     "(6, 0) is not a partition of 6"),
    ("5-17-1", lambda d: _stored_cycle_type(d, 7, [-1, 7]),
     "(7, -1) is not a partition of 6"),
    ("3-13-9", lambda d: _stored_cycle_type(d, 7, [6, 0]),
     "(6, 0) is not a partition of 6"),
    ("5-17-1", _leading_coefficient_7, "leading coefficient vanishes mod ell"),
    ("3-13-9", lambda d: _fine_order5(d, 5, "5a"),
     "row at ell 5: fine_order5 5a contradicts the cycle type's class 3ab"),
    ("3-13-9", lambda d: _fine_order5(d, 5, "5a", sextic=False),
     "row at ell 5: fine_order5 5a contradicts the cycle type's class 3ab"),
    ("5-17-1", lambda d: _fine_order5(d, 29, "5b"),
     "row at ell 29: fine_order5 5b contradicts the cycle type's class 4a"),
    ("3-13-9", lambda d: d["frobenius_inputs"][0].update(residue_degree=7),
     "row at ell 2: residue degree 7 does not match element order 5"),
    ("5-17-1", lambda d: _fine_order5(d, 2, "5a"),
     "row at ell 2: fine_order5 5a splits 5ab only at p = 3, not at p = 5"),
    ("5-17-1", lambda d: d["inertia_profile"].update(niveau=4), "niveau must be 1, 2 or 3"),
    ("5-17-1", lambda d: d.update(inertia_profile={"niveau": 1}),
     "niveau 1 profile needs exponent triples"),
    ("5-17-1", lambda d: d.update(inertia_profile={"niveau": 3}), "niveau 3 profile needs m"),
    ("5-17-1", lambda d: d["level_data"][0]["filtration"][0].update(fixed_dim=4),
     "fixed dimension out of range"),
    ("5-17-1", lambda d: d["level_data"][0]["filtration"][0].update(fixed_dim=-1),
     "fixed dimension out of range"),
    ("5-17-1", lambda d: _certificate(d, f=["-4", "0", "1"], g=["-2", "0", "1"],
                                      evidence_f=["single-slope"]),
     "f: slope 1 does not have denominator 2"),
    ("2-3-57", lambda d: d["nebentype"].update(kinds=["psi8", "psi8"]),
     "duplicate kind psi8 in nebentype kinds"),
    ("2-3-57", lambda d: d["nebentype"].update(kinds=["omega4", "psi8", "omega4"]),
     "duplicate kind omega4 in nebentype kinds"),
    ("3-13-9", lambda d: _first_frobenius_row(d, artin_power=2),
     "row at ell 2: artin_power 2 twists the class only at p = 5, not at p = 3"),
], ids=["false-evidence", "unknown-nebentype-kind", "p-without-class-data",
        "repeated-frobenius-ell", "repeated-eigenvalue-ell", "frobenius-row-at-ell-dividing-N",
        "frobenius-row-at-p", "no-cycle-type-at-non-squarefree-ell", "no-cycle-type-no-sextic",
        "zero-part-no-sextic", "zero-part-last-no-sextic", "negative-part-no-sextic",
        "zero-part-no-sextic-p3", "negative-part-at-ell-dividing-disc",
        "zero-part-at-ell-dividing-disc-p3", "leading-coefficient-7",
        "fine-order5-on-3ab-row-p3", "fine-order5-on-stored-3ab-row-p3",
        "fine-order5-on-4a-row-p5", "residue-degree-at-p3", "fine-order5-at-p5", "niveau-4",
        "niveau-1-without-triples", "niveau-3-without-m", "fixed-dim-4", "fixed-dim-negative",
        "single-slope-denominator", "repeated-nebentype-kind",
        "repeated-nebentype-kind-among-others", "artin-power-at-p3"])
def test_well_formed_but_inconsistent_case_values_exit_3(tmp_path, capsys, case, edit, message):
    payload = case_json(case)
    edit(payload)
    assert main(["verify-case", _write(tmp_path, "inconsistent.json", payload)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_case_certificate_runs(tmp_path, capsys):
    """The certificate request above is valid as written, so the exit 2 for
    its float p or evidence argument comes from the schema alone."""
    payload = dict(case_json("5-17-1"), certificates=[CERTIFICATE])
    assert main(["verify-case", _write(tmp_path, "cert.json", payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["certificates"]] == ["certified"]


def test_niveau_2_string_exponent_is_an_integer(tmp_path, capsys):
    payload = case_json("5-17-1")
    outputs = []
    for k in (1, "1"):
        profile = {"niveau": 2, "k": k, "m": 1, "flags": ["none", "none"]}
        path = _write(tmp_path, "niveau2.json",
                      dict(payload, inertia_profile=profile, expected=None))
        assert main(["verify-case", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["weights"]


@pytest.mark.parametrize("profile", [
    {"niveau": 1.0, "triples": [[0, 0, 0]]},
    {"niveau": 1, "triples": [[0, 0]]},
    {"niveau": 1, "triples": [[0, 0, 0]], "flags": "ab"},
    {"niveau": 2, "k": 1, "m": 2, "flags": ["none", "bogus"]},
    {"niveau": 1, "triples": ["123"]},
    {"niveau": 1, "triples": "123"},
], ids=["niveau-float", "short-triple", "flags-string", "niveau-2-flag-unknown",
        "triple-string", "triples-string"])
def test_weights_rejects_malformed_profile(tmp_path, capsys, profile):
    assert main(["weights", _write(tmp_path, "prof.json", profile), "--p", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_level_rejects_non_integer_prime(tmp_path, capsys):
    data = _write(tmp_path, "lvl.json", {
        "level_data": [{"q": "x", "filtration": [{"order": 3, "fixed_dim": 1}]}]
    })
    assert main(["level", data]) == 2
    assert capsys.readouterr().out == ""


def test_level_rejects_non_prime_q(tmp_path, capsys):
    data = _write(tmp_path, "lvl.json", {
        "level_data": [{"q": 4, "filtration": [{"order": 3, "fixed_dim": 1}]}]
    })
    assert main(["level", data]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "level_data[0]: 4 is not prime" in captured.err


def test_level_reads_a_case_files_p_unless_p_is_given(tmp_path, capsys):
    """level checks a case file's level primes against the case's p, as
    verify-case does; a --p given on the command line wins."""
    payload = case_json("3-13-9")
    payload["level_data"][0]["q"] = 3
    path = _write(tmp_path, "q3.json", payload)
    for command in ("verify-case", "level"):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "level prime 3 equals the residue characteristic" in captured.err
    assert main(["level", path, "--p", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["exponents"] == {"3": 2}


@pytest.mark.parametrize("payload", [{}, {"level_data": {}}, {"level_data": "2"}],
                         ids=["object", "level-data-object", "level-data-string"])
def test_level_rejects_a_level_list_that_is_not_a_list(tmp_path, capsys, payload):
    assert main(["level", _write(tmp_path, "lvl.json", payload)]) == 2
    assert capsys.readouterr().out == ""


def test_null_eigenvalues_read_as_absent():
    payload = case_json("5-17-1")
    assert CaseFile.from_dict(dict(payload, eigenvalues=None)).eigenvalues == []


def test_case_file_fields_are_the_case_table():
    assert set(CASE) <= set(CaseFile.__slots__)
    assert load_bundled_case("5-17-1").ramified == (5, 17)
    data_only = load_bundled_case("2-3-59")
    assert all(getattr(data_only, key) is None for key in CASE.keys() - DATA_ONLY.keys())


def test_records_survive_a_pickle_round_trip():
    """Pickling rebuilds a record through Record's default constructor."""
    records = (CaseFile.from_dict(dict(case_json("5-17-1"), eigenvalues=[EIGENVALUES_AT_2])),
               load_bundled_case("2-3-59"),
               precision_report(IntPoly.from_json(["-2", "0", "0", "1"]), 2, "safe"))
    for record in records:
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_level_past_the_digit_limit_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "lvl.json", {"level_data": LEVEL_PAST_THE_DIGIT_LIMIT})
    assert main(["level", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"more than {sys.get_int_max_str_digits()} digits" in captured.err


def test_a_level_far_past_the_digit_limit_exits_2_within_2_s(tmp_path, capsys):
    """N = q^300000 at q = 10^16 + 61, about 16 million bits: a lower bound
    on N's bit length decides the digit limit before N is built."""
    def expire(signum, frame):
        raise TimeoutError("level with N = (10^16 + 61)^300000 ran past 2 s")

    steps = [{"order": 1, "fixed_dim": 0}] * 100_000
    path = _write(tmp_path, "lvl.json", {"level_data": [{"q": 10**16 + 61, "filtration": steps}]})
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert main(["level", path]) == 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert captured.out == "" and f"more than {sys.get_int_max_str_digits()} digits" in captured.err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert main(["verify-case", "2-3-59"]) == 0
        assert main(["verify-case", "5-17-1"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_eigenvalue_record_needs_three_values(tmp_path, capsys):
    payload = dict(case_json("5-17-1"), eigenvalues=[{"ell": 2, "a": [[1, 0]]}])
    path = _write(tmp_path, "short-record.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


def test_eigenvalue_records_are_parsed_at_load():
    payload = case_json("5-17-1")
    records = [{"ell": 2, "a": [[1, 0], [0, 1], [2, 3]]}]
    case = CaseFile.from_dict(dict(payload, eigenvalues=records))
    assert [r.to_json() for r in case.eigenvalues] == records
    with pytest.raises(SchemaError):
        CaseFile.from_dict(dict(payload, eigenvalues=[{"ell": 2.0, "a": records[0]["a"]}]))


def test_bundled_expected_blocks_cite_sources():
    for name in GOLDEN:
        case = load_bundled_case(name)
        assert case.expected.get("source")


def test_unknown_bundled_case():
    with pytest.raises(SchemaError):
        load_bundled_case("9-9-9")


@pytest.mark.parametrize("q,code", [(10**16 + 61, 3), (10**25 + 13, 2)],
                         ids=["prime-17-digits", "past-the-primality-limit"])
def test_large_level_prime_within_2_s(tmp_path, capsys, q, code):
    """A 17-digit prime q is tested in bounded time (the case is then
    inconsistent); a q past the proven range of the test is a schema error."""
    def expire(signum, frame):
        raise TimeoutError(f"verify-case with q = {q} ran past 2 s")

    payload = case_json("5-17-1")
    payload["level_data"][0]["q"] = q
    path = _write(tmp_path, "large-q.json", payload)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert main(["verify-case", path]) == code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code == 2:
        assert "3317044064679887385961981" in capsys.readouterr().err


def test_large_working_prime_within_2_s(tmp_path, capsys):
    """5-17-1 moved to a 13-digit p, with no Frobenius rows or golden block
    (there are no class tables at that p): the F_{p^2} modulus and the
    weights come out in bounded time."""
    def expire(signum, frame):
        raise TimeoutError("verify-case at p = 10^12 + 39 ran past 2 s")

    payload = case_json("5-17-1")
    payload["p"] = 10**12 + 39
    _drop(payload, "frobenius_inputs")
    _drop(payload, "expected")
    path = _write(tmp_path, "large-p.json", payload)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert main(["verify-case", path]) == 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    report = json.loads(capsys.readouterr().out)
    assert report["field_model"]["quadratic_modulus"] == [1, 0, 1]
