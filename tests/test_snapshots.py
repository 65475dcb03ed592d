"""Behaviour lock: the canonical verify-case report of every bundled case is
pinned by its SHA-256.  A refactor that changes any byte of any report fails
here; a deliberate change of output must update the digest and say why."""

import hashlib

import pytest

from padic_serre.casefile import bundled_case_names, load_bundled_case, report_to_json, verify_case

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


def test_every_bundled_case_is_pinned():
    assert sorted(bundled_case_names()) == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_is_byte_identical(name):
    text = report_to_json(verify_case(load_bundled_case(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
