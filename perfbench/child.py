"""Fresh-interpreter steps of the benchmark, started by run.py.

    child.py setup <workload> <seed>       import, input generation, warm-up
    child.py oracle <seed> [<op>]          rebuild the cover and mod-3 tables
    child.py cli <op> <args...>            the CLI, traced
    child.py import                        time `import padic_serre.cli`

With an <op> the library is traced and the spans go out with the result.
Each step prints one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def _traced(op):
    if op is None:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op)
    return tracer


def _finish(tracer, payload: dict) -> None:
    if tracer is not None:
        tracer.end_op()
        payload["trace"] = tracer.export()
    sys.stdout.write(json.dumps(payload) + "\n")


def setup(workload: str, seed: int) -> None:
    import workloads

    pins = workloads.load_pins(BENCH_DIR)
    if workload == "case-sweep":
        sweep = workloads.CaseSweep(seed, pins)
        ok = not sweep.check(sweep.op())
    elif workload == "sextic-certify":
        bench = workloads.SexticCertify(seed, pins)
        inp = next(bench.inputs())
        ok = not bench.check(0, inp, bench.op(inp))
    else:
        import padic_serre.matrix_oracle  # noqa: F401  (the cover build itself is the operation)
        import padic_serre.rep3a6  # noqa: F401

        ok = True
    _finish(None, {"ok": ok})


def oracle(seed: int, op) -> None:
    import workloads

    order = sorted(workloads.COVER_CLASS_SIZES)
    random.Random(f"oracle-rebuild/{seed}").shuffle(order)
    tracer = _traced(op)
    dump = workloads.oracle_dump(order)
    _finish(tracer, {"dump": dump})


def cli(op: int, args: list[str]) -> None:
    tracer = _traced(op)
    from padic_serre.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    _finish(tracer, {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})


def import_time() -> None:
    start = time.perf_counter()
    import padic_serre.cli  # noqa: F401

    _finish(None, {"import_ms": 1000 * (time.perf_counter() - start)})


def main(argv: list[str]) -> None:
    step = argv[0]
    if step == "setup":
        setup(argv[1], int(argv[2]))
    elif step == "oracle":
        oracle(int(argv[1]), int(argv[2]) if len(argv) > 2 else None)
    elif step == "cli":
        cli(int(argv[1]), argv[2:])
    elif step == "import":
        import_time()
    else:
        raise SystemExit(f"unknown step {step!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
