"""padic-serre benchmark.

    python3 perfbench/run.py --workload case-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
--trace 0 measures the end-to-end metrics with tracing off; --trace 1
measures the per-layer metrics from a traced run (see README.md).  Human
readable lines come first; the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  A result file with
provenance goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("case-sweep", "sextic-certify", "oracle-rebuild")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
# operations per traced pass; each traced run makes two passes
TRACED_OPS = {"case-sweep": 20, "sextic-certify": 16, "oracle-rebuild": 1}
COLD_OP_BASE = 1_000_000
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_sweep_cold_s": "s",
}


def per_layer_units() -> dict[str, str]:
    from tracer import COUNT_LAYERS, ONE_TIME, SPAN_LAYERS

    units = {}
    for layer in SPAN_LAYERS + COUNT_LAYERS:
        units[f"{layer}.calls_per_op"] = "count"
    for layer in SPAN_LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
    for name in ("polynomial.discriminant.redundancy", "krasner.lambda_exact.redundancy",
                 "matrix_oracle.closure.useful_ratio", "trace.coverage", "trace.overhead"):
        units[name] = "ratio"
    for layer, kind in ONE_TIME:
        units[f"{layer}.{kind}"] = "ms"
    units["cli.import_ms"] = "ms"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def block_throughput(walls: list[float], blocks: int = 10) -> float:
    """Median over consecutive blocks of operations of ops / busy seconds,
    so one stall moves one block rather than the whole figure."""
    if not walls:
        return 0.0
    size = max(1, len(walls) // blocks)
    rates = [len(walls[i:i + size]) / sum(walls[i:i + size])
             for i in range(0, len(walls) - size + 1, size)]
    return statistics.median(rates)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        import workloads

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.pins = workloads.load_pins(BENCH_DIR)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.absent: list[str] = []
        self.env = child_env()

    # -- bookkeeping -------------------------------------------------------

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors

    def child(self, *args: str) -> tuple[float, dict | None, str]:
        """Run one child.py step; returns (wall seconds, parsed result, error)."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, f"{args[0]}: timed out"
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return wall, None, f"{' '.join(args)}: exit {proc.returncode} {tail}"
        try:
            return wall, json.loads(proc.stdout.decode().splitlines()[-1]), ""
        except (IndexError, ValueError):
            return wall, None, f"{' '.join(args)}: no result line"

    # -- the three kinds of operation ----------------------------------------

    def make_bench(self):
        import workloads

        if self.workload == "case-sweep":
            return workloads.CaseSweep(self.seed, self.pins)
        if self.workload == "sextic-certify":
            return workloads.SexticCertify(self.seed, self.pins)
        return None

    def operations(self, bench):
        """An endless sequence of operations; calling one runs it and
        returns (wall seconds, errors, child trace or None)."""
        import workloads

        if self.workload == "case-sweep":
            def sweep(op_id):
                start = time.perf_counter()
                out = bench.op()
                wall = time.perf_counter() - start
                return wall, bench.check(out), None
            while True:
                yield sweep
        elif self.workload == "sextic-certify":
            for index, inp in enumerate(bench.inputs()):
                def certify(op_id, index=index, inp=inp):
                    start = time.perf_counter()
                    out = bench.op(inp)
                    wall = time.perf_counter() - start
                    return wall, bench.check(index, inp, out), None
                yield certify
        else:
            def rebuild(op_id):
                args = ["oracle", str(self.seed)] + ([str(op_id)] if op_id is not None else [])
                wall, result, err = self.child(*args)
                if result is None:
                    return wall, [f"oracle-rebuild: {err}"], None
                return wall, workloads.check_oracle(result["dump"]), result.get("trace")
            while True:
                yield rebuild

    def run_ops(self, ops, seconds=None, count=None, tracer=None, op_base=0):
        """Run operations until `seconds` of wall time or `count` of them;
        returns {op id: wall seconds} of the successful ones."""
        walls = {}
        begin = time.perf_counter()
        for i, operation in enumerate(ops):
            if count is not None and i >= count:
                break
            if seconds is not None and i and time.perf_counter() - begin >= seconds:
                break
            op_id = op_base + i
            if tracer is not None:
                tracer.begin_op(op_id)
            try:
                wall, errors, child_trace = operation(op_id if tracer is not None else None)
            except Exception as exc:  # a crashing operation is a failed one
                wall, errors, child_trace = 0.0, [f"{self.workload}: {exc!r}"], None
            if tracer is not None:
                tracer.end_op()
                if child_trace is not None:
                    tracer.merge(child_trace)
            if self.record(errors):
                walls[op_id] = wall
        return walls

    def cli_sweep(self, tracer=None) -> dict[str, float]:
        """Every bundled case through the CLI, one fresh process after
        another; returns the wall time of each call."""
        import workloads

        names = sorted(self.pins["case_reports"])
        walls = {}
        for k, name in enumerate(names):
            if tracer is None:
                cmd = [sys.executable, "-m", "padic_serre.cli", "verify-case", name]
                start = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                          timeout=CHILD_TIMEOUT)
                    errors = workloads.check_cli_report(name, proc.stdout, proc.returncode,
                                                        self.pins)
                except subprocess.TimeoutExpired:
                    errors = [f"cli verify-case {name}: timed out"]
                walls[name] = time.perf_counter() - start
            else:
                walls[name], result, err = self.child("cli", str(COLD_OP_BASE + k),
                                                      "verify-case", name)
                if result is None:
                    errors = [err]
                else:
                    tracer.merge(result["trace"])
                    errors = []
                    if result["exit"] != 0 or result["sha256"] != self.pins["case_reports"][name]:
                        errors = [f"traced cli verify-case {name}: exit {result['exit']},"
                                  " or report differs from the pin"]
            self.record(errors)
        return walls

    def median_child(self, args: list[str], samples: int, key=None) -> float:
        values = []
        for _ in range(samples):
            wall, result, err = self.child(*args)
            if result is None or result.get("ok") is False:
                self.errors.append(err or f"{' '.join(args)}: warm-up check failed")
                continue
            values.append(wall if key is None else result[key])
        return statistics.median(values) if values else 0.0

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        setup_s = self.median_child(["setup", self.workload, str(self.seed)], SETUP_SAMPLES)
        bench = self.make_bench()
        ops = self.operations(bench)
        # the cold sweeps go before, between and after two halves of the
        # operations, so both sample the whole run
        sweeps = [self.cli_sweep()]
        walls = []
        for _ in range(2):
            walls.extend(self.run_ops(ops, seconds=self.seconds / 2).values())
            sweeps.append(self.cli_sweep())
        cold = sum(statistics.median(s[name] for s in sweeps) for name in sweeps[0])
        lat = sorted(walls) or [0.0]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "throughput_ops_s": block_throughput(walls),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * percentile(lat, 90),
            "setup_s": setup_s,
            "peak_rss_mb": (own + children) / 1024,
            "cli_sweep_cold_s": cold,
        }

    def traced(self) -> tuple[dict[str, float], list]:
        from tracer import Tracer, count_metrics, time_metrics

        bench = self.make_bench()
        plain = self.run_ops(self.operations(bench), seconds=self.seconds / 2)
        tracer = Tracer()
        n = TRACED_OPS[self.workload]
        in_process = self.workload != "oracle-rebuild"
        if in_process:
            tracer.install()
        try:
            pass_a = self.run_ops(self.operations(bench), count=n, tracer=tracer)
            pass_b = self.run_ops(self.operations(bench), count=n, tracer=tracer, op_base=n)
        finally:
            tracer.uninstall()
        cold_ops = [] if in_process else list(pass_a) + list(pass_b)
        if self.workload == "case-sweep":
            self.cli_sweep(tracer)
            cold_ops = [COLD_OP_BASE + k for k in range(len(self.pins["case_reports"]))]
        self.absent = tracer.absent
        if not (plain and pass_a and pass_b):
            self.errors.append("traced run: a phase completed no operation")
            return {}, tracer.spans
        counts_a = count_metrics(tracer.spans, tracer.op_counts, list(pass_a))
        counts_b = count_metrics(tracer.spans, tracer.op_counts, list(pass_b))
        if counts_a != counts_b:
            diff = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
            self.errors.append(f"traced run: counts differ between two traced passes: {diff}")
        walls = {**pass_a, **pass_b}
        metrics = dict(counts_a)
        metrics.update(time_metrics(tracer.spans, list(walls), walls, cold_ops))
        untraced_rate = len(plain) / sum(plain.values())
        metrics["trace.overhead"] = (len(walls) / sum(walls.values())) / untraced_rate
        metrics["cli.import_ms"] = self.median_child(["import"], IMPORT_SAMPLES, key="import_ms")
        return metrics, tracer.spans


# ---------------------------------------------------------------------------
# provenance and output


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "padic_serre").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("# layer, start_s, end_s, parent_span, op, note\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padic_serre" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'padic_serre'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    import padic_serre

    if not Path(padic_serre.__file__).resolve().is_relative_to(SRC):
        print(f"error: padic_serre imported from {padic_serre.__file__}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    spans = None
    if args.trace:
        values, spans = run.traced()
        units = per_layer_units()
    else:
        values = run.end_to_end()
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    correct = not run.errors and run.attempted > 0
    error_rate = run.failed / run.attempted if run.attempted else 1.0

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "error_rate": error_rate, "metrics": metrics, "absent_layers": run.absent,
        "errors": run.errors[:50], "provenance": provenance(args.seed),
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if spans is not None:
        write_spans(RESULTS / f"{stem}.spans.jsonl.gz", spans)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {error_rate:.6g} ratio ({run.failed}/{run.attempted})")
    for layer in run.absent:
        print(f"  absent: {layer} (no such function; its metrics read 0)")
    for err in run.errors[:10]:
        print(f"  error: {err}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
