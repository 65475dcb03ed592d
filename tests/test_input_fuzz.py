"""Seeded mutation fuzzer over the inputs the CLI reads from files.

Each mutation takes one valid input (a bundled case file, a level file, an
inertia profile or a polynomial), replaces one of its nodes by a float, a
bool, a string, null, a list or an object, drops it, renames its key (a
letter appended) or adds a key to it if it is an object, and runs
``cli.main`` in-process.  The exit-code contract must hold: no exception
escapes, the code is 0, 1, 2 or 3, stdout is empty on 2 and 3, and exit 1
comes with a parseable report whose ``golden.mismatches`` is not empty.
Exit 1 is legitimate after mutations outside ``expected`` too (deleting a
level datum changes the level), so the oracle reads the report rather than
the mutated path.

Every mutation of one golden case's certificate request runs; the rest are
sampled, a few per input, with a fixed seed to keep the suite fast.  Every
mutation of that case's golden block runs as well, on top of the sample:
a golden value of the wrong type exits 2, and exit 1 is reached only by a
well-typed value that differs.  A renamed or added key exits 2 wherever it
is: every object of every input is read by a closed field table.
``all_mutations`` is the full set; CI runs it exhaustively.
"""

import contextlib
import io
import json
import random

from padic_serre.casefile import GOLDEN, bundled_case_names
from padic_serre.cli import main

from bundled_json import case_json

SEED = 20041
PER_INPUT = 8

CERTIFICATE = {"f": ["-2", "0", "0", "1"], "g": ["-2", "2", "0", "1"], "p": 2,
               "evidence_f": ["eisenstein-after-shift", 0],
               "evidence_g": ["irreducible-mod-q", "11"], "method": "safe"}
CERTIFIED_CASE = "5-17-1"

REPLACEMENTS = {
    "float": (1.5, 2.0, -0.0),
    "bool": (True, False),
    "string": ("x", "", "7", "0", "-1"),
    "null": (None,),
    "list": ([], [1], ["x"], [[0]]),
    "dict": ({}, {"a": 1}),
}

X3M2 = ["-2", "0", "0", "1"]


def _inputs() -> list[tuple[str, object, list[str]]]:
    """(label, valid payload, argv with {} where the payload's path goes)."""
    out = []
    for name in bundled_case_names():
        payload = case_json(name)
        if name in GOLDEN:
            payload["certificates"] = [CERTIFICATE]
        out.append((name, payload, ["verify-case", "{}"]))
    case = case_json("3-13-9")
    out.append(("level", {"level_data": case["level_data"]}, ["level", "{}"]))
    out.append(("profile", case["inertia_profile"], ["weights", "{}", "--p", "3"]))
    out.append(("niveau-2", {"niveau": 2, "k": 1, "m": 2}, ["weights", "{}", "--p", "5"]))
    out.append(("polygon", case_json("5-17-1")["sextic"],
                ["polygon", "{}", "--p", "5"]))
    out.append(("precision", X3M2, ["precision", "{}", "--p", "2", "--method", "safe"]))
    out.append(("certify", ["-2", "2", "0", "1"],
                ["certify", "X3M2", "{}", "--p", "2", "--evidence-f", "single-slope",
                 "--evidence-g", "eisenstein-after-shift:0"]))
    return out


ADDED_KEY = "added"


def _nodes(node, prefix=()):
    """Every (path, node) from the root down, parents before children."""
    yield prefix, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, prefix + (key,))


def _mutated(payload, path, kind, value):
    out = json.loads(json.dumps(payload))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if kind == "add":
        (parent[path[-1]] if path else out)[ADDED_KEY] = value
    elif kind == "rename":
        parent[path[-1] + "x"] = parent.pop(path[-1])
    elif kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def all_mutations(rng: random.Random) -> list[tuple]:
    """(label, payload, argv, path, kind, value) for every node below the
    root of every input and every kind of replacement, values drawn from
    rng; a rename of every object key; and an added key, with value 0, on
    every object, the root included."""
    out = []
    for label, payload, argv in _inputs():
        for path, node in _nodes(payload):
            if path:
                for kind, pool in [*REPLACEMENTS.items(), ("drop", (None,))]:
                    out.append((label, payload, argv, path, kind, rng.choice(pool)))
                if isinstance(path[-1], str):
                    out.append((label, payload, argv, path, "rename", None))
            if isinstance(node, dict):
                out.append((label, payload, argv, path, "add", 0))
    return out


def _is_certificate_node(mutation) -> bool:
    label, _, _, path, _, _ = mutation
    return label == CERTIFIED_CASE and path[:1] == ("certificates",)


def sampled_mutations() -> list[tuple]:
    """Every mutation of the certificate request, PER_INPUT others of each
    input, and every mutation of the certified case's golden block."""
    rng = random.Random(SEED)
    out, rest = [], {}
    for m in all_mutations(rng):
        if _is_certificate_node(m):
            out.append(m)
        else:
            rest.setdefault(m[0], []).append(m)
    for group in rest.values():
        out += rng.sample(group, PER_INPUT)
    return out + [m for m in rest[CERTIFIED_CASE] if m[3][:1] == ("expected",)]


def run_cli(tmp_path, label, payload, argv) -> tuple[int, str]:
    """Write payload, run the CLI on it and check the exit-code contract;
    returns (exit code, stdout)."""
    target = tmp_path / "input.json"
    target.write_text(json.dumps(payload))
    x3m2 = tmp_path / "x3m2.json"
    x3m2.write_text(json.dumps(X3M2))
    args = [str(target) if a == "{}" else str(x3m2) if a == "X3M2" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    except Exception as exc:
        raise AssertionError(f"{label}: {exc!r} escaped") from exc
    where = f"{label}: exit {code}, {stderr.getvalue()!r}"
    assert code in (0, 1, 2, 3), where
    out = stdout.getvalue()
    if code == 1:
        assert json.loads(out)["golden"]["mismatches"], where
    if code in (2, 3):
        assert out == "", where
    return code, out


def run_mutation(tmp_path, mutation) -> int:
    label, payload, argv, path, kind, value = mutation
    if _is_certificate_node(mutation):
        argv = argv + ["--ell-max", "3"]  # the certificate does not depend on Frobenius rows
    where = f"{label} {list(path)} -> {kind} {value!r}"
    return run_cli(tmp_path, where, _mutated(payload, path, kind, value), argv)[0]


def test_unmutated_inputs_are_valid(tmp_path):
    for label, payload, argv in _inputs():
        code, out = run_cli(tmp_path, label, payload, argv)
        assert code == 0, label
        if label in GOLDEN:
            assert json.loads(out)["certificates"][0]["verdict"] in ("certified", "inconclusive")


def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path):
    sample = sampled_mutations()
    codes = [run_mutation(tmp_path, m) for m in sample]
    # the sample reaches every outcome of the contract, and every kind
    assert set(codes) == {0, 1, 2, 3}
    assert {m[4] for m in sample} == {*REPLACEMENTS, "drop", "rename", "add"}
    for m, code in zip(sample, codes):
        if m[4] in ("rename", "add"):
            assert code == 2, m[:5]


def test_every_renamed_or_added_key_exits_2(tmp_path):
    """The closed schema on its own: no input holds a key that its reader
    ignores, at any depth."""
    for m in all_mutations(random.Random(SEED)):
        if m[4] in ("rename", "add"):
            assert run_mutation(tmp_path, m) == 2, m[:5]
