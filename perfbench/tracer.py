"""Layer tracing from outside the library.

``Tracer.install()`` wraps each public function in SPAN_LAYERS and
COUNT_LAYERS at every ``padic_serre.*`` module attribute bound to it (most
call sites use ``from .x import y``), and at every class attribute for
methods.  A span
records (layer, start, end, parent span, operation id, note); spans stay in
memory until the run writes them out.  The two hottest leaves, the F_{p^2}
multiply and ord_p, are only counted: a span per call would cost more than
the call, and their time shows up as self time of the layer that calls
them.  A function that no longer exists is reported absent, not an error.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import pkgutil
import statistics
import sys
import time

PACKAGE = "padic_serre"

# layers, named by module and function, that get a span per call
SPAN_LAYERS = (
    "polynomial.resultant",
    "polynomial.root_diff_poly",
    "polynomial.discriminant",
    "polynomial.cycle_type_mod_ell",
    "polynomial.newton_polygon",
    "krasner.precision_report",
    "krasner.certify_same_extension",
    "krasner.validate_evidence",
    "krasner.lambda_exact",
    "matrices.mat_mul",
    "matrices.closure",
    "matrices.mat_order",
    "matrices.mat_inverse",
    "matrix_oracle.triple_cover_group",
    "matrix_oracle.classified_cover",
    "rep3a6.a6_mod3_class_polys",
    "rep3a6.frob_charpoly",
    "rep3a6.mod3_charpoly_candidates",
    "galois_local.level",
    "weights.predicted_weights",
    "hecke.check_attached",
    "casefile.verify_case",
    "casefile.report_to_json",
    "casefile.load_bundled_case",
)
# the hottest leaves: counted only, their time is self time of the caller
COUNT_LAYERS = ("arith.fp2_mul", "arith.ord_p")

# layers whose function has another attribute path
PATHS = {"arith.fp2_mul": "arith.Fp2Elem.__mul__"}


def _poly_key(args):
    f = args[0]
    return repr(getattr(f, "coeffs", f))


# layer -> note recorded on each span: a digest of the arguments (for
# redundancy = calls / distinct arguments) or the size of the result
NOTES = {
    "polynomial.discriminant": lambda args, result: _digest(_poly_key(args)),
    "krasner.lambda_exact": lambda args, result: _digest(_poly_key(args) + repr(args[1:2])),
    "matrices.closure": lambda args, result: len(result),
}


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _resolve(path: str):
    """(owner, object) for a dotted path below the package, or None."""
    obj = sys.modules.get(f"{PACKAGE}.{path.split('.')[0]}")
    if obj is None:
        return None
    owner = None
    for part in path.split(".")[1:]:
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None
    return owner, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.op_counts: dict[int, dict[str, int]] = {}
        self.absent: list[str] = []
        self._patched: list = []
        self._snapshot: dict[str, int] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
            importlib.import_module(info.name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.absent = []
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            found = _resolve(PATHS.get(layer, layer))
            if found is None:
                self.absent.append(layer)
                continue
            owner, target = found
            wrapper = (self._counter(layer, target) if layer in COUNT_LAYERS
                       else self._spanner(layer, target))
            owners = [owner] if isinstance(owner, type) else modules
            for holder in owners:
                for name, value in list(vars(holder).items()):
                    if value is target:
                        setattr(holder, name, wrapper)
                        self._patched.append((holder, name, target))

    def uninstall(self) -> None:
        for holder, name, target in reversed(self._patched):
            setattr(holder, name, target)
        self._patched.clear()

    def _spanner(self, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note_of = NOTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            note = "raised"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, result)
                else:
                    note = None
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer, start, end, parent, self.op, note)

        return wrapper

    def _counter(self, layer, fn):
        counts = self.counts
        counts.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._snapshot = dict(self.counts)

    def end_op(self) -> None:
        self.op_counts[self.op] = {k: v - self._snapshot.get(k, 0) for k, v in self.counts.items()}
        self.op = -1

    def export(self) -> dict:
        return {"spans": self.spans, "op_counts": self.op_counts, "absent": self.absent}

    def merge(self, exported: dict) -> None:
        """Append spans from another process, renumbering parent links."""
        offset = len(self.spans)
        for layer, start, end, parent, op, note in exported["spans"]:
            self.spans.append((layer, start, end, parent + offset if parent >= 0 else -1, op, note))
        for op, counts in exported["op_counts"].items():
            self.op_counts[int(op)] = counts
        for layer in exported["absent"]:
            if layer not in self.absent:
                self.absent.append(layer)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

# one-time costs, measured in fresh interpreters: self time, and total time
# including the layers it calls
ONE_TIME = (
    ("rep3a6.a6_mod3_class_polys", "self_ms"),
    ("rep3a6.a6_mod3_class_polys", "total_ms"),
    ("casefile.load_bundled_case", "self_ms"),
)


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover (children of one
    span run one after another, so their durations add up)."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, op, note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def count_metrics(spans, op_counts, ops) -> dict[str, float]:
    """Metrics that repeat exactly for the same inputs: calls per operation,
    redundancy (calls / distinct arguments, averaged over operations that
    make the call) and the useful share of closures in the cover build."""
    ops = sorted(ops)
    n = len(ops)
    opset = set(ops)
    calls = {layer: 0 for layer in SPAN_LAYERS}
    notes: dict[tuple, list] = {}
    for layer, start, end, parent, op, note in spans:
        if op in opset:
            calls[layer] += 1
            if layer in NOTES:
                notes.setdefault((layer, op), []).append(note)
    out = {f"{layer}.calls_per_op": calls[layer] / n for layer in SPAN_LAYERS}
    for layer in COUNT_LAYERS:
        out[f"{layer}.calls_per_op"] = sum(op_counts.get(op, {}).get(layer, 0) for op in ops) / n
    for layer in ("polynomial.discriminant", "krasner.lambda_exact"):
        ratios = [len(v) / len(set(v)) for (lay, _), v in sorted(notes.items()) if lay == layer]
        out[f"{layer}.redundancy"] = sum(ratios) / len(ratios) if ratios else 0.0
    attempts = [s for s in spans
                if s[0] == "matrices.closure" and s[4] in opset and s[3] >= 0
                and spans[s[3]][0] == "matrix_oracle.triple_cover_group"]
    useful = sum(1 for s in attempts if s[5] == 1080)
    out["matrix_oracle.closure.useful_ratio"] = useful / len(attempts) if attempts else 0.0
    return out


def time_metrics(spans, ops, op_walls, cold_ops) -> dict[str, float]:
    """Self time per operation over `ops`, one-time self time (median over
    the fresh interpreters in `cold_ops` that make the call), and coverage:
    the share of operation wall time spent inside some top-level span."""
    selfs = self_times(spans)
    opset, coldset = set(ops), set(cold_ops)
    per_op = {layer: 0.0 for layer in SPAN_LAYERS}
    per_cold: dict[tuple, dict[int, float]] = {}
    covered = 0.0
    for i, (layer, start, end, parent, op, note) in enumerate(spans):
        if op in opset:
            per_op[layer] += selfs[i]
            if parent < 0:
                covered += end - start
        if op in coldset:
            for kind, t in (("self_ms", selfs[i]), ("total_ms", end - start)):
                per_cold.setdefault((layer, kind), {}).setdefault(op, 0.0)
                per_cold[layer, kind][op] += t
    out = {f"{layer}.self_ms_per_op": 1000 * t / len(ops) for layer, t in per_op.items()}
    for layer, kind in ONE_TIME:
        samples = list(per_cold.get((layer, kind), {}).values())
        out[f"{layer}.{kind}"] = 1000 * statistics.median(samples) if samples else 0.0
    wall = sum(op_walls[op] for op in ops)
    out["trace.coverage"] = covered / wall if wall else 0.0
    return out
