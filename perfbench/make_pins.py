"""Write pins.json: digests of the library's outputs at the default seed.

    PYTHONPATH=src python3 perfbench/make_pins.py

The pins freeze today's behaviour (the bundled verify-case reports must
stay byte-identical), so rerun this only for a change that is meant to
alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    from padic_serre.casefile import (
        bundled_case_names, load_bundled_case, report_to_json, verify_case,
    )

    pins = {
        "default_seed": workloads.DEFAULT_SEED,
        "case_reports": {
            n: workloads.sha256(report_to_json(verify_case(load_bundled_case(n))))
            for n in bundled_case_names()
        },
    }
    sweep = workloads.CaseSweep(workloads.DEFAULT_SEED, pins)
    pins["case_sweep_default_seed"] = {n: workloads.sha256(t) for n, t in sweep.op().items()}
    bench = workloads.SexticCertify(workloads.DEFAULT_SEED, pins)
    stream = bench.inputs()
    pins["sextic_certify_default_seed"] = [
        workloads.sha256(workloads.canonical(list(bench.op(next(stream)))))[:16]
        for _ in range(bench.PINNED_OPS)
    ]
    with open(BENCH_DIR / workloads.PINS_FILE, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
