"""Behaviour lock: the canonical verify-case report of every bundled case is
pinned by its SHA-256.  A refactor that changes any byte of any report fails
here; a deliberate change of output must update the digest and say why.

No bundled case carries eigenvalue records, so the attachment section is
pinned apart: each golden case with one record per Frobenius row, solved
from the row's first candidate, straight, Galois-conjugated, or with one
coefficient bumped."""

import hashlib

import pytest

from padic_serre.casefile import (GOLDEN, CaseFile, bundled_case_names, load_bundled_case,
                                  report_to_json, verify_case)
from padic_serre.hecke import EigenvalueRecord

from bundled_json import case_json
from helpers import solve_record

REPORT_SHA256 = {
    "2-3-55": "9d61802eafd98a9ef1dc531b383b2fe7c731ab284fa2bc15d92829a18e3bf653",
    "2-3-57": "9df0537c2473342f52c89cc4dae49bda747357f01acdb619e7e40164c33ccef0",
    "2-3-58": "cf9be9e5997fb09f6bbcb53ccf22798465c2f0a308c29034dab5669b43e93817",
    "3-7-3": "90d72b65a9b49954f0f93a75ac981fd7a30e77edfc7af2e57149418af0a455e0",
    "3-13-9": "93b6350fe71a9707d471b3bd57fcc7eb97b977cfb8c49f069012c1dea46e6877",
    "5-17-1": "27ee9f86b9ca4b87eb6c67f7089953aecb03da20e0eb5e28f4da90e557c1c5e6",
    "2-3-59": "f0624d0ee3ee699e67b2fcd61bf634801cd422c4f4473126dd9fb402baf4eaa4",
    "2-5-17": "7bf86e86fea8253aa78a836fcf9dac75fa9cd04994e52d7bc7ca3c6810d80001",
    "3-5-7": "e0c83d59614ff176e9a01da193e9c78e4fb4dfe833cff999370fb1c0346dee05",
    "3-5-8": "7acbd05f1dadf947e1d242798a5e1cbf747311bc24ec94a047e5a77c75c03c80",
    "3-19-3": "3bd9262ab407deae16d1d5dc67017adab079418a45a619d799619f9563f1ebf7",
    "13-19-1": "efb2ed4fbcdb3b66e16e0e791cbd8d0bcf8d39fdc041edef7cafa28bbb5d6595",
}

#: the golden reports with solved records (see _with_records), by case and variant
ATTACHMENT_SHA256 = {
    ("2-3-55", "straight"):
        "daf8e9996d77825a1c418c9f618a40f2c82ad91f31e16f099c261c92ad33615a",
    ("2-3-55", "conjugated"):
        "daf8e9996d77825a1c418c9f618a40f2c82ad91f31e16f099c261c92ad33615a",
    ("2-3-55", "bumped"):
        "b0c9cba5db44fe1686c4137ec3d72f2a3472915eb4d494438b2a3bb5e7f9c8a8",
    ("2-3-57", "straight"):
        "5540a8e4aac6de31695babf9bde064f2acbbb89b7747e4e909cbe0f21eb536da",
    ("2-3-57", "conjugated"):
        "5540a8e4aac6de31695babf9bde064f2acbbb89b7747e4e909cbe0f21eb536da",
    ("2-3-57", "bumped"):
        "d5b7ae8c3f26ed0bdc1913ffcda96c04e6a4ffb13ecc7ee287b59f25633439e5",
    ("2-3-58", "straight"):
        "75d26658edf39dc053ee26ea1518f0dc8534e1c8287f1a04b9ec37c6e5b22aa9",
    ("2-3-58", "conjugated"):
        "75d26658edf39dc053ee26ea1518f0dc8534e1c8287f1a04b9ec37c6e5b22aa9",
    ("2-3-58", "bumped"):
        "0006c86ac15aa8687857f4def2da17bdd8497a4ece2ea8760928a1f393092acb",
    ("3-7-3", "straight"):
        "ca8062bdf23278a68a7a778459f194cc950791fdb79d2efce6845a2f30c5a4e6",
    ("3-7-3", "conjugated"):
        "ca8062bdf23278a68a7a778459f194cc950791fdb79d2efce6845a2f30c5a4e6",
    ("3-7-3", "bumped"):
        "8bbc48920b924529c26da2f0e3144a03b4cf3b016b1fa7fab63ce07a13f1abc0",
    ("3-13-9", "straight"):
        "83e7dcd9564f55725c3eddac65d10d704eef1df53772ccb2f1684e31828d3add",
    ("3-13-9", "conjugated"):
        "83e7dcd9564f55725c3eddac65d10d704eef1df53772ccb2f1684e31828d3add",
    ("3-13-9", "bumped"):
        "2a39c318fbb7ff46e3549846913d796e51f92ac167d257dc3c532c12ec59c22d",
    ("5-17-1", "straight"):
        "9e1c66f454a57f7a9f7f459e4615db0c3ae499bb360bbff4df32dcf58d14907e",
    ("5-17-1", "conjugated"):
        "a2f8c881ed52fa462170e790b054d25a092dcc7d17facecd13a9de66549b7093",
    ("5-17-1", "bumped"):
        "ffb5bbcf7c92bb02122a8918dadfae6703f70e71c59bec2c3b6a5a0ee0b98609",
}


def test_every_bundled_case_is_pinned():
    assert sorted(bundled_case_names()) == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_is_byte_identical(name):
    text = report_to_json(verify_case(load_bundled_case(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


def _with_records(name: str, variant: str) -> str:
    """The report of the golden case with solved records; "bumped" adds 1
    to a2 of the middle record."""
    payload = case_json(name)
    report = verify_case(CaseFile.from_dict(payload))
    records = [solve_record(e["ell"], e["charpolys"][0], report["p"])
               for e in report["frobenius"]]
    if variant == "conjugated":
        records = [rec.conjugate() for rec in records]
    elif variant == "bumped":
        rec = records[len(records) // 2]
        records[len(records) // 2] = EigenvalueRecord(rec.ell, rec.a1, (rec.a2[0] + 1, rec.a2[1]),
                                                      rec.a3, rec.p)
    payload["eigenvalues"] = [rec.to_json() for rec in records]
    return report_to_json(verify_case(CaseFile.from_dict(payload)))


@pytest.mark.parametrize("variant", ("straight", "conjugated", "bumped"))
@pytest.mark.parametrize("name", GOLDEN)
def test_attachment_report_is_byte_identical(name, variant):
    text = _with_records(name, variant)
    assert hashlib.sha256(text.encode()).hexdigest() == ATTACHMENT_SHA256[name, variant]
