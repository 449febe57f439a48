"""The benchmark's workloads and metric definitions.

Importing this module imports no numpy, so the launcher can fix the BLAS
thread count of a workload before numpy loads.  ``BENCHMARK.json`` at the
repository root is written from these tables (``run.py --workload all``).
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 15
# Passes of the timed pipeline per run, whatever ``--seconds`` says, so a
# workload whose pass outlasts the run still reports a median of two.
MIN_PASSES = 2
# In full-batch mode outer iterations 1 and 2 carry warm-up (init, first CG
# solves); iter_s is the median over iterations from this one on.
STEADY_FROM = 3

CLASSES = 10
N_TRAIN = 2000
N_TEST = 1000
# The IDX files hold more samples than are used, so set-up includes the
# seeded subsample a user's ``--train-n`` / ``--test-n`` performs.
FILE_TRAIN = 2400
FILE_TEST = 1200
INIT_SCALE = 0.01
SIGMAS = (0.0, 0.1, 0.2, 0.4)

# Penalty constants of the paper's reference experiments (the CLI defaults).
REFERENCE_HP = {"tau": 1e-6, "pi": 1e-7, "gamma": 1e-8, "lam": 0.052, "beta": 0.00072, "L": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    arch: tuple[int, ...]
    hp: dict
    batch_size: int | None = None
    derive_beta: bool = False
    blas_threads: int = 1
    setup_reps: int = 9
    # Checkpoint round trips and evaluations per timed pass.
    reps: int = 5
    # First outer iteration that iter_s counts.
    steady_from: int = STEADY_FROM
    # When set, test_error must be at most the untrained (K=0) error of the
    # same seed minus this margin: the learning witness.
    learning_margin: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-full",
            "small full-batch net: Python and call overhead, objective_f and the b-products weigh most",
            (784, 200, 200, 10),
            {**REFERENCE_HP, "K": 8},
        ),
        Workload(
            "wide-full",
            "BLAS-bound full-batch net: the 2000x2000 V solve dominates and a 173 MB checkpoint loads dataio I/O",
            (784, 2000, 2000, 10),
            {**REFERENCE_HP, "K": 4},
            blas_threads=2,
            setup_reps=7,
            reps=3,
        ),
        Workload(
            "desk-minibatch",
            "the regime that learns: 20 small sweeps per epoch, a forward pass per batch and spectral_norm",
            (784, 200, 200, 10),
            {"tau": 1.0, "pi": 0.5, "gamma": 1e-8, "lam": 0.0, "beta": 0.00072, "L": 5, "K": 3},
            batch_size=100,
            derive_beta=True,
            # Mini-batch epochs show no warm-up, so iter_s counts from epoch 2,
            # the first that two log records bracket.
            steady_from=2,
            learning_margin=0.1,
        ),
    )
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("iter_s", "s", "lower", 0.25),
    ("ckpt_bytes", "B", "lower", 0.05),
    ("eval_samples_per_s", "1/s", "higher", 0.25),
    ("peak_mem_mib", "MiB", "lower", 0.1),
)

# Printed beside the end-to-end metrics but not bounded by a share of the
# parent's median.  The checkpoint timings are memory-bandwidth bound and
# their quartile spread over ten runs on the desk workloads reached 0.14
# (save) and 0.21 (load) of the median on a shared 2-core host, too close
# to the largest bound of 0.25; the traced run still splits them out as
# dataio.save_checkpoint.s and dataio.load_checkpoint.s.  test_error is
# gated per seed against the recorded reference instead (see
# pipeline.REFERENCE_TOL): on desk-minibatch its quartile spread over seeds
# is about a quarter of its median.  fail_frac is 0 when the program is
# right, and the result line carries it as ``failed`` / ``attempted``.
REPORTED = (
    ("ckpt_save_s", "s"),
    ("ckpt_load_s", "s"),
    ("test_error", "fraction"),
    ("fail_frac", "fraction"),
)
