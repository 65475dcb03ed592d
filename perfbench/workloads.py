"""Seeded inputs, one operation and its correctness check, for each workload.

Inputs are built as JSON payloads and results are read back from the
library's JSON (``to_json()`` or the canonical report), so the library's
internals can change without touching this file.  Nothing here calls a
private name or clears a cache; cold state comes from fresh interpreters
(see child.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

DEFAULT_SEED = 0

PINS_FILE = "pins.json"


def canonical(obj) -> str:
    """The report's canonical serialization: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(bench_dir) -> dict:
    with open(bench_dir / PINS_FILE) as fh:
        return json.load(fh)


def fp2_pair(x) -> list[int]:
    """An F_{p^2} value as [c0, c1], from an element object or a pair."""
    if hasattr(x, "c0"):
        return [x.c0, x.c1]
    if isinstance(x, int):
        return [x, 0]
    return [int(x[0]), int(x[1])]


# ---------------------------------------------------------------------------
# F_{p^2} in plain integers, for expected verdicts.  An element is (c0, c1)
# meaning c0 + c1*w with w^2 + b*w + c = 0; the modulus comes from the
# report's field_model block.


def _conj(x, p, b):
    # w + w^p = -b, so w^p = -b - w
    c0, c1 = x
    return ((c0 - b * c1) % p, (-c1) % p)


def _scale(x, s, p):
    return ((x[0] * s) % p, (x[1] * s) % p)


def _add(x, y, p):
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def _hecke_cubic(rec, p):
    """[1, -a1, ell*a2, -ell^3*a3] over F_{p^2}, as tuples of pairs."""
    ell = rec["ell"] % p
    a1, a2, a3 = (tuple(x) for x in rec["a"])
    return ((1, 0), _scale(a1, -1, p), _scale(a2, ell, p), _scale(a3, -(ell**3), p))


def expected_verdict(records, charpolys, p, b) -> str:
    """Attachment verdict by its definition: every Hecke cubic equals one
    of the Frobenius candidates ("attached"), or every conjugated cubic
    does ("attached-up-to-conjugacy"), else "not-attached"."""
    all_direct = all_conj = True
    for rec in records:
        cands = {tuple(tuple(c) for c in poly) for poly in charpolys[rec["ell"]]}
        h = _hecke_cubic(rec, p)
        all_direct &= h in cands
        all_conj &= tuple(_conj(c, p, b) for c in h) in cands
    if all_direct:
        return "attached"
    if all_conj:
        return "attached-up-to-conjugacy"
    return "not-attached"


def solve_records(report: dict) -> tuple[list[dict], dict, int, int]:
    """Eigenvalue records whose Hecke cubics are the first Frobenius
    candidate at each ell: a1 = -c1, a2 = c2/ell, a3 = -c3/ell^3 over F_p."""
    p = report["p"]
    b = report["field_model"]["quadratic_modulus"][1]
    records, charpolys = [], {}
    for entry in report["frobenius"]:
        ell = entry["ell"]
        if ell % p == 0:
            continue
        charpolys[ell] = entry["charpolys"]
        c1, c2, c3 = (tuple(c) for c in entry["charpolys"][0][1:])
        inv = pow(ell, -1, p)
        a = [_scale(c1, -1, p), _scale(c2, inv, p), _scale(c3, -(inv**3), p)]
        records.append({"ell": ell, "a": [list(x) for x in a]})
    return records, charpolys, p, b


# ---------------------------------------------------------------------------
# case-sweep


class CaseSweep:
    """One operation: verify_case + report_to_json over all 12 bundled
    cases, in a seeded order.  Golden cases carry seeded synthetic
    eigenvalue records (straight, Galois-conjugated or perturbed), so the
    attachment check runs with a known expected verdict."""

    MODES = ("straight", "conjugated", "perturbed")

    def __init__(self, seed: int, pins: dict):
        from padic_serre import casefile
        from padic_serre.casefile import (
            CaseFile, bundled_case_names, load_bundled_case, report_to_json, verify_case,
        )

        self.seed = seed
        self.pins = pins
        # looked up at call time, so a tracer installed later sees the calls
        self._casefile = casefile
        rng = random.Random(f"case-sweep/{seed}")
        names = list(bundled_case_names())
        payloads = {
            n: json.loads(resources.files("padic_serre").joinpath(f"cases/{n}.json").read_text())
            for n in names
        }
        golden = [n for n in names if not payloads[n].get("data_only", False)]
        plain = {n: json.loads(report_to_json(verify_case(load_bundled_case(n)))) for n in golden}
        solved = {n: solve_records(plain[n]) for n in golden}
        modes = self._assign_modes(golden, solved, rng)
        self.expected = {}
        self.cases = []
        for n in names:
            payload = payloads[n]
            if n in solved:
                records, charpolys, p, b = solved[n]
                records = self._apply_mode(modes[n], records, p, b, rng)
                self.expected[n] = expected_verdict(records, charpolys, p, b)
                payload = dict(payload, eigenvalues=records)
            self.cases.append((n, CaseFile.from_dict(payload)))
        rng.shuffle(self.cases)
        verdicts = set(self.expected.values())
        if verdicts != {"attached", "attached-up-to-conjugacy", "not-attached"}:
            raise RuntimeError(f"seed {seed} does not cover every verdict: {verdicts}")

    def _assign_modes(self, golden, solved, rng) -> dict:
        """A seeded mode per golden case, with at least one case per mode.
        Conjugation only changes the verdict where some cubic is not
        F_p-rational, so the conjugated slot goes to such a case."""
        def conj_visible(n):
            records, charpolys, p, b = solved[n]
            conj = self._apply_mode("conjugated", records, p, b, rng=None)
            return expected_verdict(conj, charpolys, p, b) == "attached-up-to-conjugacy"

        order = list(golden)
        rng.shuffle(order)
        capable = [n for n in order if conj_visible(n)]
        if not capable:
            raise RuntimeError("no golden case shows a conjugated verdict")
        modes = {capable[0]: "conjugated"}
        rest = [n for n in order if n not in modes]
        modes[rest[0]] = "straight"
        modes[rest[1]] = "perturbed"
        for n in rest[2:]:
            modes[n] = rng.choice(self.MODES)
        return modes

    @staticmethod
    def _apply_mode(mode, records, p, b, rng):
        if mode == "straight":
            return records
        if mode == "conjugated":
            return [{"ell": r["ell"], "a": [list(_conj(tuple(x), p, b)) for x in r["a"]]}
                    for r in records]
        out = [{"ell": r["ell"], "a": [list(x) for x in r["a"]]} for r in records]
        share = rng.sample(range(len(out)), max(1, len(out) // 3))
        for i in share:
            slot = rng.randrange(3)
            bump = (rng.randrange(1, p), rng.randrange(p))
            out[i]["a"][slot] = list(_add(tuple(out[i]["a"][slot]), bump, p))
        return out

    def op(self):
        cf = self._casefile
        return {name: cf.report_to_json(cf.verify_case(case)) for name, case in self.cases}

    def check(self, out: dict) -> list[str]:
        errors = []
        plain = self.pins["case_reports"]
        seeded = self.pins["case_sweep_default_seed"] if self.seed == DEFAULT_SEED else None
        if sorted(out) != sorted(plain):
            return [f"case-sweep: reports for {sorted(out)}"]
        for name, text in out.items():
            if seeded is not None and sha256(text) != seeded[name]:
                errors.append(f"{name}: report digest differs from the default-seed pin")
            report = json.loads(text)
            if report["golden"]["mismatches"]:
                errors.append(f"{name}: golden mismatches {report['golden']['mismatches']}")
            if name in self.expected:
                got = (report.get("attachment") or {}).get("overall")
                if got != self.expected[name]:
                    errors.append(f"{name}: attachment {got}, expected {self.expected[name]}")
                report["attachment"] = None
                text = canonical(report)
            if sha256(text) != plain[name]:
                errors.append(f"{name}: report differs from the pinned bundled report")
        return errors


def check_cli_report(name: str, stdout: bytes, returncode: int, pins: dict) -> list[str]:
    errors = []
    if returncode != 0:
        errors.append(f"cli verify-case {name}: exit {returncode}")
    if hashlib.sha256(stdout).hexdigest() != pins["case_reports"].get(name):
        errors.append(f"cli verify-case {name}: report differs from the pinned bundled report")
    return errors


# ---------------------------------------------------------------------------
# sextic-certify

# Irreducible sextics mod q, as ascending coefficients.  x^6 - c is
# irreducible over F_q when c generates F_q^* and 6 | q - 1 (every prime
# factor of 6 divides ord(c) = q - 1, and none divides (q - 1)/ord(c) = 1):
# 3 is a primitive root mod 7, 2 one mod 13.
IRREDUCIBLE_MOD_Q = ((7, (-3, 0, 0, 0, 0, 0, 1)), (13, (-2, 0, 0, 0, 0, 0, 1)))

EVIDENCE_KINDS = ("eisenstein-after-shift", "single-slope", "irreducible-mod-q")


def _taylor_shift(cs, a):
    """Coefficients of f(x + a)."""
    cs = list(cs)
    n = len(cs)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            cs[i] += a * cs[i + 1]
    return cs


def _crt(r1, m1, r2, m2):
    x = (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)
    return x - m1 * m2 if 2 * x > m1 * m2 else x


class SexticStream:
    """Seeded stream of distinct certificate inputs.

    f is monic of degree 6, Eisenstein at p after the shift x -> x + s, and
    congruent mod q to a translate of a fixed irreducible sextic (so it is
    irreducible mod q too); the two conditions are joined by CRT mod p^2 q.
    The partner is g = f + p^j q h with some coefficient of h a unit mod p,
    so ord_p(g - f) = j exactly, and g keeps f's residue mod q.  Evidence
    for f is a seeded kind; g reuses it while j >= 2 keeps g Eisenstein,
    and otherwise cites its irreducibility mod q.
    """

    PRIMES = (2, 3, 5)
    # j ranges around the typical k_prop1 at each prime, so both verdicts occur
    J_RANGE = {2: (1, 4), 3: (1, 3), 5: (0, 2)}

    def __init__(self, seed: int):
        self.rng = random.Random(f"sextic-certify/{seed}")
        self.seen = set()
        self.index = 0

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        rng = self.rng
        # every run cycles through the same (p, evidence) mix; the seed
        # picks the polynomials
        p = self.PRIMES[self.index % 3]
        kind = EVIDENCE_KINDS[self.index // 3 % 3]
        self.index += 1
        while True:
            s = 0 if kind == "single-slope" else rng.randint(-3, 3)
            q, base = rng.choice(IRREDUCIBLE_MOD_Q)
            t = rng.randrange(q)
            eis = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(5)] + [1]
            f_p2 = [c % (p * p) for c in _taylor_shift(eis, -s)]
            f_q = [c % q for c in _taylor_shift(base, -t)]
            f = [_crt(a, p * p, b, q) for a, b in zip(f_p2, f_q)]
            if (p, tuple(f)) not in self.seen:
                break
        self.seen.add((p, tuple(f)))
        j = rng.randint(*self.J_RANGE[p])
        h = [rng.randrange(-p + 1, p) for _ in range(6)]
        h[rng.randrange(6)] = rng.choice((-1, 1))
        g = [c + p**j * q * d for c, d in zip(f, h)] + [1]
        ev_f = {"eisenstein-after-shift": ["eisenstein-after-shift", s],
                "single-slope": ["single-slope"],
                "irreducible-mod-q": ["irreducible-mod-q", q]}[kind]
        ev_g = ev_f if kind != "irreducible-mod-q" and j >= 2 else ["irreducible-mod-q", q]
        return {
            "f": [str(c) for c in f], "g": [str(c) for c in g], "p": p,
            "evidence_f": ev_f, "evidence_g": ev_g, "j": j,
        }


class SexticCertify:
    """One operation: precision_report(f, p, "safe") plus
    certify_same_extension(f, g, p, ev_f, ev_g, "prop1") on a fresh pair."""

    PINNED_OPS = 32

    def __init__(self, seed: int, pins: dict):
        from padic_serre import krasner, polynomial

        self.seed = seed
        self.pins = pins
        # looked up at call time, so a tracer installed later sees the calls
        self._krasner = krasner
        self._polynomial = polynomial

    def inputs(self):
        return SexticStream(self.seed)

    def op(self, inp):
        kr = self._krasner
        f = self._polynomial.IntPoly.from_json(inp["f"])
        g = self._polynomial.IntPoly.from_json(inp["g"])
        p = inp["p"]
        rep = kr.precision_report(f, p, "safe").to_json()
        cert = kr.certify_same_extension(f, g, p, tuple(inp["evidence_f"]),
                                         tuple(inp["evidence_g"]), "prop1").to_json()
        return rep, cert

    def check(self, index: int, inp: dict, out) -> list[str]:
        rep, cert = out
        errors = []
        n, d, a = rep["n"], int(rep["d"]), int(rep["a"])
        lam = Fraction(rep["lambda"])
        k1, k_safe = rep["k_prop1"], rep["k_safe"]
        j = inp["j"]
        if n != 6:
            errors.append(f"degree {n}")
        if lam > Fraction(d - (n - 2) * a, n):
            errors.append(f"lambda {lam} above (d-(n-2)a)/n")
        bound = lam + Fraction(d - a, n)
        if k1 != bound.numerator // bound.denominator + 1:
            errors.append(f"k_prop1 {k1} does not beat bound {bound} strictly and minimally")
        if k_safe < k1:
            errors.append(f"k_safe {k_safe} < k_prop1 {k1}")
        if cert["k"] != k1 or cert["congruence_order"] != j:
            errors.append(f"certificate k={cert['k']} cong={cert['congruence_order']},"
                          f" expected k={k1} cong={j}")
        want = "certified" if j >= k1 else "inconclusive"
        if cert["verdict"] != want or cert["caller_assertions"]:
            errors.append(f"verdict {cert['verdict']}, expected {want}")
        pinned = self.pins["sextic_certify_default_seed"]
        if self.seed == DEFAULT_SEED and index < len(pinned):
            if sha256(canonical([rep, cert]))[:16] != pinned[index]:
                errors.append(f"op {index}: output differs from the default-seed pin")
        return [f"sextic-certify op {index}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# oracle-rebuild

COVER_CLASS_SIZES = {
    "1a": 1, "3a": 1, "3b": 1, "2a": 45, "6a": 45, "6b": 45, "3cd": 240,
    "4a": 90, "12a": 90, "12b": 90, "5ab": 144, "15ac": 144, "15bd": 144,
}


def oracle_dump(order: list[str]) -> dict:
    """Rebuild the cover and the mod-3 tables, and dump everything the
    check compares.  Runs inside a fresh interpreter."""
    from padic_serre.arith import quadratic_modulus
    from padic_serre.matrix_oracle import classified_cover, oracle_charpoly
    from padic_serre.rep3a6 import a6_mod3_class_polys, char_value, frob_charpoly, inverse_class

    def poly(cs):
        return [fp2_pair(c) for c in cs]

    cover = classified_cover()
    table, conjugate = a6_mod3_class_polys()
    classes = {}
    for label in order:
        info = cover.get(label)
        classes[label] = {
            "frozen": {
                "trace": fp2_pair(char_value(label)),
                "inverse": inverse_class(label),
                "charpoly+": poly(frob_charpoly(label, 1)),
                "charpoly-": poly(frob_charpoly(label, -1)),
            },
            "oracle": None if info is None else {
                "size": info["size"],
                "trace": fp2_pair(info["trace"]),
                "inverse": info["inverse_label"],
                "charpoly+": poly(info["charpoly"]),
                "charpoly-": poly(oracle_charpoly(label, -1)),
            },
        }
    return {
        "classes": classes,
        "oracle_labels": sorted(cover),
        "mod3": {k: poly(v) for k, v in table.items()},
        "mod3_conjugate": {k: poly(v) for k, v in conjugate.items()},
        "f9_modulus": list(quadratic_modulus(3)),
    }


def _fp2_pow(x, e, p, b, c):
    r = (1, 0)
    for _ in range(e):
        # (r0 + r1 w)(x0 + x1 w), w^2 = -b w - c
        hi = r[1] * x[1]
        r = ((r[0] * x[0] - hi * c) % p, (r[0] * x[1] + r[1] * x[0] - hi * b) % p)
    return r


def check_oracle(dump: dict) -> list[str]:
    errors = []
    if dump["oracle_labels"] != sorted(COVER_CLASS_SIZES):
        errors.append(f"oracle classes {dump['oracle_labels']}")
    for label, entry in dump["classes"].items():
        frozen, oracle = entry["frozen"], entry["oracle"]
        if oracle is None:
            errors.append(f"{label}: missing from the oracle")
            continue
        if oracle["size"] != COVER_CLASS_SIZES[label]:
            errors.append(f"{label}: size {oracle['size']}")
        for key in ("trace", "inverse", "charpoly+", "charpoly-"):
            if oracle[key] != frozen[key]:
                errors.append(f"{label}: oracle {key} {oracle[key]} != frozen {frozen[key]}")
    if sum(COVER_CLASS_SIZES.values()) != 1080:
        errors.append("class sizes do not sum to 1080")
    b, c = dump["f9_modulus"]
    table, conj = dump["mod3"], dump["mod3_conjugate"]
    if sorted(table) != ["1a", "2a", "3ab", "4a", "5a", "5b"] or sorted(conj) != sorted(table):
        errors.append(f"mod-3 classes {sorted(table)} / {sorted(conj)}")
    else:
        for k, poly in table.items():
            want = [list(_fp2_pow(tuple(x), 3, 3, b, c)) for x in poly]
            if conj[k] != want:
                errors.append(f"mod-3 {k}: twin {conj[k]} is not the conjugate {want}")
        if table["5a"] == table["5b"] or conj["5a"] != table["5b"]:
            errors.append("mod-3 tables: 5a/5b are not exchanged by conjugation")
    return [f"oracle-rebuild: {e}" for e in errors]
