#!/usr/bin/env python3
"""Record the test error each seed reaches: the reference the benchmark's gate checks.

    python3 perfbench/record_reference.py --workload desk-full --seeds 40

Merges the workload's entry into ``perfbench/reference.json``: the test
error of seeds ``0 .. n-1``.  A run maps its ``--seed`` onto these
recorded seeds modulo ``n``.
Re-record only when the inputs or a workload change on purpose, and say
so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True

from run import OUT_DIR, WORKLOADS, use_blas_threads  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seeds", required=True, type=int, help="how many seeds to record, from 0")
    args = p.parse_args()
    wl = WORKLOADS[args.workload]
    use_blas_threads(wl)
    import pipeline
    from stepbcd.metrics import evaluate

    workdir = OUT_DIR / f"record-{wl.name}-{os.getpid()}"
    errors = {}
    try:
        for seed in range(args.seeds):
            s = pipeline.setup(pipeline.write_inputs(workdir, seed), wl, seed)
            trained = pipeline.train_once(s, wl, seed)
            errors[str(seed)] = round(evaluate(trained.state.W, s.test).error_rate, 6)
            k0 = evaluate(s.init_w, s.test).error_rate
            print(f"{wl.name} seed {seed}: test error {errors[str(seed)]:.4f} (untrained {k0:.4f})", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = pipeline.load_reference() if pipeline.REFERENCE_PATH.is_file() else {}
    reference[wl.name] = {"seeds": errors}
    with open(pipeline.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
