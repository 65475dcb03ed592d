import json
import signal

import pytest

from padic_serre.casefile import (
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
from padic_serre.krasner import METHODS, parse_evidence

from bundled_json import case_json


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


def test_golden_class_above_ell_max_is_not_checked(capsys):
    # 5-17-1 pins the class at 2; with --ell-max 1 no Frobenius row is
    # computed, so the pin is out of range, not missing
    assert main(["verify-case", "5-17-1", "--ell-max", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] == [] and report["golden"]["mismatches"] == []
    assert main(["verify-case", "5-17-1", "--ell-max", "2"]) == 0
    assert [e["class"] for e in json.loads(capsys.readouterr().out)["frobenius"]] == ["15bd"]


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
        "expected-classes-list"])
def test_case_values_outside_the_schema_exit_2(tmp_path, capsys, case, edit):
    payload = case_json(case)
    edit(payload)
    path = _write(tmp_path, "coerced.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("case,edit,message", [
    ("5-17-1", lambda d: _certificate(d, evidence_f=["irreducible-mod-q", 3]),
     "f: reduction mod 3"),
    ("5-17-1", lambda d: d["nebentype"].update(kinds=["eps99"]), "unknown character kinds"),
    ("5-17-1", lambda d: d.update(p=7), "no frozen class data for p = 7"),
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
], ids=["false-evidence", "unknown-nebentype-kind", "p-without-class-data",
        "repeated-frobenius-ell", "repeated-eigenvalue-ell", "frobenius-row-at-ell-dividing-N",
        "frobenius-row-at-p", "no-cycle-type-at-non-squarefree-ell", "no-cycle-type-no-sextic",
        "zero-part-no-sextic", "zero-part-last-no-sextic", "negative-part-no-sextic",
        "zero-part-no-sextic-p3", "negative-part-at-ell-dividing-disc",
        "zero-part-at-ell-dividing-disc-p3"])
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
    assert captured.out == "" and "q 4: q is not prime" in captured.err


@pytest.mark.parametrize("payload", [{}, {"level_data": {}}, {"level_data": "2"}],
                         ids=["object", "level-data-object", "level-data-string"])
def test_level_rejects_a_level_list_that_is_not_a_list(tmp_path, capsys, payload):
    assert main(["level", _write(tmp_path, "lvl.json", payload)]) == 2
    assert capsys.readouterr().out == ""


def test_null_eigenvalues_read_as_absent():
    payload = case_json("5-17-1")
    assert CaseFile.from_dict(dict(payload, eigenvalues=None)).eigenvalues == []


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
