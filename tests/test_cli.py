import json

import pytest

from padic_serre.casefile import (
    CaseFile,
    GOLDEN,
    bundled_case_names,
    load_bundled_case,
    report_to_json,
    verify_case,
)
from padic_serre.cli import _evidence_flag, main
from padic_serre.errors import SchemaError
from padic_serre.krasner import parse_evidence


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


def test_golden_mismatch_exit_code(tmp_path, capsys):
    case = load_bundled_case("3-13-9")
    payload = dict(case.raw)
    payload["expected"] = dict(payload["expected"], level={"13": 1})
    path = _write(tmp_path, "tampered.json", payload)
    assert main(["verify-case", path]) == 1


def test_schema_error_exit_code(tmp_path):
    path = _write(tmp_path, "incomplete.json", {"name": "x", "sextic": ["1", "1"]})
    assert main(["verify-case", path]) == 2


def test_inconsistent_case_exit_code(tmp_path):
    case = load_bundled_case("3-13-9")
    payload = dict(case.raw)
    rows = [dict(r) for r in payload["frobenius_inputs"]]
    rows[0]["cycle_type"] = [6]
    payload["frobenius_inputs"] = rows
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
    payload = json.loads(json.dumps(load_bundled_case("3-13-9").raw))
    edit(payload[section][0])
    path = _write(tmp_path, "malformed.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


CERTIFICATE = {"f": ["-2", "0", "0", "1"], "g": ["-2", "2", "0", "1"], "p": 2,
               "evidence_f": ["eisenstein-after-shift", 0],
               "evidence_g": ["eisenstein-after-shift", 0]}


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
    ("5-17-1", lambda d: _first_frobenius_row(d, artin_power=1.5)),
    ("5-17-1", lambda d: _first_frobenius_row(d, residue_degree=5.0)),
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
], ids=["p-float", "artin-power-float", "residue-degree-float", "nebentype-k-bool",
        "certificate-p-float", "evidence-q-float", "expected-level-float", "expected-level-list",
        "expected-weights-float", "expected-ell-float", "niveau-float", "triple-float",
        "flags-string", "certificate-without-f", "evidence-null", "evidence-string",
        "evidence-unknown-kind", "evidence-extra-argument", "certificate-method-unknown",
        "certificate-f-string", "nebentype-kinds-string", "nebentype-kinds-nested",
        "data-only-string", "data-only-zero", "fine-order5-int", "fine-order5-unknown-label"])
def test_case_values_outside_the_schema_exit_2(tmp_path, capsys, case, edit):
    payload = json.loads(json.dumps(load_bundled_case(case).raw))
    edit(payload)
    path = _write(tmp_path, "coerced.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


def test_evidence_flag_and_case_file_claim_parse_alike():
    assert _evidence_flag("irreducible-mod-q:7") == parse_evidence(["irreducible-mod-q", "7"])
    assert _evidence_flag("irreducible-mod-q:7") == ("irreducible-mod-q", 7)
    assert _evidence_flag("assert") == parse_evidence(["caller-assertion"])


@pytest.mark.parametrize("edit,message", [
    (lambda d: _certificate(d, evidence_f=["irreducible-mod-q", 3]), "f: reduction mod 3"),
    (lambda d: d["nebentype"].update(kinds=["eps99"]), "unknown character kinds"),
], ids=["false-evidence", "unknown-nebentype-kind"])
def test_well_formed_but_inconsistent_case_values_exit_3(tmp_path, capsys, edit, message):
    payload = json.loads(json.dumps(load_bundled_case("5-17-1").raw))
    edit(payload)
    assert main(["verify-case", _write(tmp_path, "inconsistent.json", payload)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_case_certificate_runs(tmp_path, capsys):
    """The certificate request above is valid as written, so the exit 2 for
    its float p or evidence argument comes from the schema alone."""
    payload = dict(load_bundled_case("5-17-1").raw, certificates=[CERTIFICATE])
    assert main(["verify-case", _write(tmp_path, "cert.json", payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["certificates"]] == ["certified"]


def test_niveau_2_string_exponent_is_an_integer(tmp_path, capsys):
    payload = load_bundled_case("5-17-1").raw
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
], ids=["niveau-float", "short-triple", "flags-string"])
def test_weights_rejects_malformed_profile(tmp_path, capsys, profile):
    assert main(["weights", _write(tmp_path, "prof.json", profile), "--p", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_level_rejects_non_integer_prime(tmp_path, capsys):
    data = _write(tmp_path, "lvl.json", {
        "level_data": [{"q": "x", "filtration": [{"order": 3, "fixed_dim": 1}]}]
    })
    assert main(["level", data]) == 2
    assert capsys.readouterr().out == ""


def test_eigenvalue_record_needs_three_values(tmp_path, capsys):
    payload = dict(load_bundled_case("5-17-1").raw, eigenvalues=[{"ell": 2, "a": [[1, 0]]}])
    path = _write(tmp_path, "short-record.json", payload)
    assert main(["verify-case", path]) == 2
    assert capsys.readouterr().out == ""


def test_eigenvalue_records_are_parsed_at_load():
    payload = load_bundled_case("5-17-1").raw
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
