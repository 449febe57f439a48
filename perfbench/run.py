#!/usr/bin/env python3
"""Benchmark of stepbcd's train -> checkpoint -> evaluate pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload desk-full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One workload prints its host facts, each metric with its unit, and as the
last line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics from untraced passes; ``--trace 1`` reports the
per-module metrics of traced passes and writes their spans under
``.perfbench-out/``.  ``--workload all`` runs every workload in its own
process and then writes ``BENCHMARK.json`` from the metric tables.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import END_TO_END, REPORTED, RUN_SECONDS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _openblas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts(wl):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": wl.blas_threads,
        "blas_threads": _openblas_threads(),
    }


def use_blas_threads(wl):
    """Fix the workload's BLAS thread count; effective only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(wl.blas_threads)


def run_one(args):
    wl = WORKLOADS[args.workload]
    use_blas_threads(wl)
    try:
        import pipeline
        import tracer
    except ImportError as e:
        print(f"error: cannot load stepbcd from this checkout: {e}", file=sys.stderr)
        return 2
    if not pipeline.REFERENCE_PATH.is_file():
        print(f"error: missing {pipeline.REFERENCE_PATH}", file=sys.stderr)
        return 2

    reference = pipeline.load_reference()
    seed = pipeline.recorded_seed(wl, args.seed, reference)
    workdir = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    try:
        result = pipeline.run_workload(wl, seed, args.seconds, bool(args.trace), workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: unit for name, unit, *_ in (tracer.PER_LAYER if args.trace else END_TO_END)}
    print("host " + json.dumps(host_facts(wl), sort_keys=True))
    print(f"seed {args.seed} runs the inputs of recorded seed {seed}")
    if result.spans is not None:
        span_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(span_file, "w") as f:
            for span in result.spans:
                f.write(json.dumps(span.record()) + "\n")
        print(f"spans {len(result.spans)} written to {span_file.relative_to(ROOT)}")
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(result.failures)
    shown = dict(result.metrics, fail_frac=failed / max(result.attempted, 1))
    for name, unit in (*units.items(), *(() if args.trace else REPORTED)):
        value = shown.get(name)
        print(f"{wl.name} {name} {'missing' if value is None else f'{value:.6g}'} {unit}")
    print(f"{wl.name} operations attempted {result.attempted} failed {failed}")
    complete = all(result.metrics.get(name) is not None for name in units)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items() if result.metrics.get(name) is not None},
    }))
    return 0 if complete else 1


def benchmark_spec():
    import tracer

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in tracer.PER_LAYER],
    }


def run_all(args):
    """Every workload in a fresh process (each fixes its own BLAS threads), then BENCHMARK.json."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    with open(ROOT / "BENCHMARK.json", "w") as f:
        json.dump(benchmark_spec(), f, indent=2)
        f.write("\n")
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Turn a termination request into SystemExit so work files and child
    # processes are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT_DIR.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
