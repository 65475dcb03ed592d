"""Seeded metamorphic test over the six golden cases: a rewrite of a case
file that keeps its meaning must give a byte-identical report.

The rewrites reverse or shuffle ``level_data``, ``frobenius_inputs`` and the
eigenvalue records, write every integer as a decimal string, and shuffle the
keys of every JSON object; each runs alone and all of them together.  One
more multiplies the sextic's roots by the first Frobenius row's ell, which
leaves the reduction non-squarefree there, so that row's stored cycle type
is used.  The
golden cases carry no eigenvalue records, so each gets synthetic ones,
solved with ``solve_record`` from the charpolys of its own report, and they
carry one level datum each, so each gets a second one (the first datum's
filtration at another prime) for the reordering to act on.  Both change the
report, so the reference is the report of the augmented file, not the
pinned golden one.

A bundled case rewritten the same way, written to a file with other
whitespace and loaded from its path, must give the report of its bundled
name."""

import json
import random

import pytest

from padic_serre.casefile import GOLDEN, CaseFile, load_bundled_case, report_to_json, verify_case

from bundled_json import case_json
from helpers import solve_record

SEED = 20041018
SHUFFLES = 3
LISTS = ("level_data", "frobenius_inputs", "eigenvalues")
EXTRA_LEVEL_PRIME = 101


def _augmented(name: str) -> dict:
    """The case file with a second level datum and one eigenvalue record per
    ell prime to p, whose Hecke cubic is the first Frobenius candidate."""
    payload = case_json(name)
    payload["level_data"].append(dict(payload["level_data"][0], q=EXTRA_LEVEL_PRIME))
    report = verify_case(CaseFile.from_dict(payload))
    p = report["p"]
    payload["eigenvalues"] = [
        solve_record(e["ell"], e["charpolys"][0], p).to_json()
        for e in report["frobenius"] if e["ell"] % p
    ]
    return payload


def _report(payload) -> str:
    return report_to_json(verify_case(CaseFile.from_dict(json.loads(json.dumps(payload)))))


def _reversed(payload, rng):
    return dict(payload, **{key: payload[key][::-1] for key in LISTS})


def _shuffled(payload, rng):
    return dict(payload, **{key: rng.sample(payload[key], len(payload[key])) for key in LISTS})


def _decimal_strings(node, rng=None):
    if isinstance(node, dict):
        return {key: _decimal_strings(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_decimal_strings(value) for value in node]
    if isinstance(node, int) and not isinstance(node, bool):
        return str(node)
    return node


def _shuffled_keys(node, rng):
    if isinstance(node, dict):
        keys = rng.sample(list(node), len(node))
        return {key: _shuffled_keys(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled_keys(value, rng) for value in node]
    return node


def _scaled_sextic(payload, rng=None):
    """The sextic f replaced by ell^6 f(x/ell), ell the first Frobenius
    row's: the same field, and the same cycle type mod every other ell."""
    ell = payload["frobenius_inputs"][0]["ell"]
    return dict(payload, sextic=[str(int(c) * ell ** (6 - i))
                                 for i, c in enumerate(payload["sextic"])])


def _all_at_once(payload, rng):
    return _shuffled_keys(_decimal_strings(_shuffled(payload, rng)), rng)


REWRITES = {
    "reversed": _reversed,
    "shuffled": _shuffled,
    "decimal-strings": _decimal_strings,
    "shuffled-keys": _shuffled_keys,
    "all-at-once": _all_at_once,
    "scaled-sextic": _scaled_sextic,
}


@pytest.mark.parametrize("name", GOLDEN)
def test_meaning_preserving_rewrites_keep_the_report(name):
    payload = _augmented(name)
    reference = _report(payload)
    attachment = json.loads(reference)["attachment"]
    assert attachment["overall"] == "attached"
    rng = random.Random(f"{SEED}-{name}")
    for label, rewrite in REWRITES.items():
        shuffles = SHUFFLES if label in ("shuffled", "shuffled-keys", "all-at-once") else 1
        for _ in range(shuffles):
            assert _report(rewrite(payload, rng)) == reference, f"{name}: {label}"


def test_rewrites_reach_order_sensitive_fields():
    """The rewrites are not vacuous: some augmented case has several
    indeterminate ells, and every one has several Frobenius rows and
    eigenvalue records and two level data."""
    payloads = {name: _augmented(name) for name in GOLDEN}
    for payload in payloads.values():
        assert all(len(payload[key]) > 1 for key in LISTS)
    indeterminate = [json.loads(_report(payload))["attachment"]["indeterminate_ells"]
                     for payload in payloads.values()]
    assert max(len(ells) for ells in indeterminate) > 1


@pytest.mark.parametrize("name", GOLDEN)
def test_a_rewritten_copy_loaded_from_a_path_keeps_the_report(tmp_path, name):
    rng = random.Random(f"{SEED}-path-{name}")
    payload = _shuffled_keys(_decimal_strings(case_json(name)), rng)
    path = tmp_path / "copy.json"
    indent = rng.choice((None, 1, 4))
    path.write_text(json.dumps(payload, indent=indent, separators=(" , ", " :\t")))
    expected = report_to_json(verify_case(load_bundled_case(name)))
    assert report_to_json(verify_case(CaseFile.load(path))) == expected
