"""The measured pipeline: set-up, train, checkpoint round trip, evaluation.

Every step goes through stepbcd's public API the way ``stepbcd train``
followed by ``stepbcd robustness`` does, so the timings are what a user of
the command line pays.  Each step is one checked operation: it fails when
it raises a numerical or format error or when its correctness check does
not hold, and ``Gate`` counts both.

Importing this module puts the repository's ``src`` directory first on
``sys.path`` and refuses any other copy of stepbcd.
"""

from __future__ import annotations

import json
import logging
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import stepbcd  # noqa: E402

if Path(stepbcd.__file__).resolve().parent != SRC / "stepbcd":
    raise ImportError(f"stepbcd was imported from {stepbcd.__file__}, not from {SRC}")

from stepbcd.core import STAGE_INIT, STAGE_NOISE, STAGE_SHUFFLE, Hyperparams, NetworkShape, init_gaussian, make_rng  # noqa: E402
from stepbcd.dataio import (  # noqa: E402
    CheckpointError,
    add_gaussian_noise,
    load_checkpoint,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
)
from stepbcd.metrics import evaluate  # noqa: E402
from stepbcd.solvers import CgError  # noqa: E402
from stepbcd.trainer import train  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLASSES,
    FILE_TEST,
    FILE_TRAIN,
    INIT_SCALE,
    MIN_PASSES,
    N_TEST,
    N_TRAIN,
    SIGMAS,
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# A recorded test error matches when within this many test samples' share.
REFERENCE_TOL = 0.02

# Shuffle sub-streams of the train and test subsample, as in the CLI.
TRAIN_SPLIT = 0
TEST_SPLIT = 1
TRAIN_SHUFFLE = 2


class CheckFailed(Exception):
    """A pipeline output is wrong."""


class Gate:
    """Counts checked operations and keeps a line for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, what, fn, *args):
        """Call ``fn(*args)`` as one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except (CheckFailed, CgError, FloatingPointError, CheckpointError) as e:
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            return None


@dataclass
class Files:
    train_images: Path
    train_labels: Path
    test_images: Path
    test_labels: Path
    checkpoint: Path


def write_inputs(workdir, seed):
    """Generate the seed's corpus and write it as four IDX files under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    _, (tr_img, tr_lab), (te_img, te_lab) = inputs.make_corpus(seed, FILE_TRAIN, FILE_TEST)
    files = Files(*(workdir / n for n in ("train-images", "train-labels", "test-images", "test-labels", "checkpoint.bin")))
    inputs.write_idx_images(files.train_images, tr_img)
    inputs.write_idx_labels(files.train_labels, tr_lab)
    inputs.write_idx_images(files.test_images, te_img)
    inputs.write_idx_labels(files.test_labels, te_lab)
    return files


def hyperparams(wl):
    return Hyperparams(**wl.hp)


def _subsample(data, n, seed, split):
    perm = make_rng(seed, STAGE_SHUFFLE, split).permutation(data.n)
    return data.subset(np.sort(perm[:n]))


@dataclass
class Setup:
    train: object
    test: object
    init_w: list
    seconds: float


def setup(files, wl, seed):
    """IDX parse, ``to_dataset``, seeded subsample, ``init_gaussian``."""
    shape = NetworkShape(wl.arch)
    t0 = time.perf_counter()
    tr = to_dataset(load_idx_images(files.train_images), load_idx_labels(files.train_labels), CLASSES)
    tr = _subsample(tr, N_TRAIN, seed, TRAIN_SPLIT)
    te = to_dataset(load_idx_images(files.test_images), load_idx_labels(files.test_labels), CLASSES)
    te = _subsample(te, N_TEST, seed, TEST_SPLIT)
    init = init_gaussian(shape, INIT_SCALE, make_rng(seed, STAGE_INIT), tr.X)
    seconds = time.perf_counter() - t0
    if (tr.n, te.n) != (N_TRAIN, N_TEST):
        raise CheckFailed(f"splits have {tr.n}/{te.n} samples, expected {N_TRAIN}/{N_TEST}")
    init.check_consistent(shape, tr.n)
    return Setup(tr, te, init.W, seconds)


class _IterationClock(logging.Handler):
    """Time stamps of the trainer's per-iteration debug record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.stamps = []

    def emit(self, record):
        if str(record.msg).startswith("iteration"):
            self.stamps.append(time.perf_counter())


@dataclass
class Trained:
    state: object
    seconds: float
    iteration_seconds: list
    peak_bytes: int | None = None


def train_once(s, wl, seed, reference_w=None, trace_memory=False):
    """One ``trainer.train`` call as ``stepbcd train`` makes it.

    Checks that the objective stays finite and, given ``reference_w``, that
    the weights equal an earlier run's bit for bit.
    """
    hp = hyperparams(wl)
    log = logging.getLogger("stepbcd.trainer")
    clock = _IterationClock()
    old_level = log.level
    log.setLevel(logging.DEBUG)
    log.addHandler(clock)
    if trace_memory:
        tracemalloc.start()
    try:
        t0 = time.perf_counter()
        state, report = train(
            s.train, NetworkShape(wl.arch), hp, make_rng(seed, STAGE_INIT),
            init_scale=INIT_SCALE, derive_beta=wl.derive_beta, batch_size=wl.batch_size,
            shuffle_rng=make_rng(seed, STAGE_SHUFFLE, TRAIN_SHUFFLE),
        )
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] if trace_memory else None
    finally:
        if trace_memory:
            tracemalloc.stop()
        log.removeHandler(clock)
        log.setLevel(old_level)
    stamps = clock.stamps
    if len(stamps) != hp.K:
        raise CheckFailed(f"saw {len(stamps)} iteration records, expected K={hp.K}")
    if not all(np.isfinite(report.f_values)):
        raise CheckFailed("objective F is not finite")
    if reference_w is not None and not all(_same_bits(a, b) for a, b in zip(state.W, reference_w)):
        raise CheckFailed("trained weights differ from the first training run of this seed")
    steady = [stamps[k] - stamps[k - 1] for k in range(wl.steady_from - 1, hp.K)]
    return Trained(state, seconds, steady, peak)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@dataclass
class RoundTrip:
    weights: list
    save_seconds: list
    load_seconds: list
    nbytes: int


def checkpoint_round_trip(state, wl, path, reps, test_x):
    """``save_checkpoint`` then ``load_checkpoint``, ``reps`` times.

    Checks that every block comes back bit for bit with the same shape and
    hyperparameters, and that the loaded weights predict the same classes.
    """
    shape, hp = NetworkShape(wl.arch), hyperparams(wl)
    saves, loads = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        save_checkpoint(state, shape, hp, path)
        saves.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        loaded, shape2, hp2 = load_checkpoint(path)
        loads.append(time.perf_counter() - t0)
    return RoundTrip(verify_round_trip(state, wl, loaded, shape2, hp2, test_x), saves, loads, path.stat().st_size)


def verify_round_trip(state, wl, loaded, shape, hp, test_x):
    if shape != NetworkShape(wl.arch) or hp != hyperparams(wl):
        raise CheckFailed(f"checkpoint header changed: {shape}, {hp}")
    for name in ("W", "U", "V"):
        ours, theirs = getattr(state, name), getattr(loaded, name)
        if len(ours) != len(theirs) or not all(_same_bits(a, b) for a, b in zip(ours, theirs)):
            raise CheckFailed(f"checkpoint {name} blocks are not bit-exact")
    if not np.array_equal(_predict(state.W, test_x), _predict(loaded.W, test_x)):
        raise CheckFailed("loaded weights predict different classes")
    return loaded.W


def _predict(w_list, x):
    """Classes of the 0/1 forward pass, written here so checks add no traced calls."""
    z = x
    for i, w in enumerate(w_list):
        z = w @ (z if i == 0 else (z > 0.0).astype(np.float64))
    return np.argmax(z, axis=0)


def evaluate_all(w, s, seed):
    """``evaluate`` over train, test and the noisy test copies; returns (samples/s, test error).

    Checks that the sigma=0 copy scores exactly the clean test error.
    """
    t0 = time.perf_counter()
    results = [evaluate(w, s.train), evaluate(w, s.test)]
    for i, sigma in enumerate(SIGMAS):
        results.append(evaluate(w, add_gaussian_noise(s.test, sigma, make_rng(seed, STAGE_NOISE, i))))
    seconds = time.perf_counter() - t0
    test_error = results[1].error_rate
    if SIGMAS[0] == 0.0 and results[2].error_rate != test_error:
        raise CheckFailed(f"sigma=0 copy scores {results[2].error_rate}, clean test {test_error}")
    return sum(r.total for r in results) / seconds, test_error


def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def recorded_seed(wl, seed, reference):
    """The recorded seed whose inputs, init and shuffles a run with ``seed`` uses.

    The reference holds seeds ``0 .. n-1`` of each workload, so ``seed mod n``
    gives every ``--seed`` a corpus whose test error is on record.
    """
    ref = reference.get(wl.name)
    if not ref or sorted(map(int, ref["seeds"])) != list(range(len(ref["seeds"]))):
        raise ValueError(f"reference for {wl.name} must record seeds 0..n-1")
    return seed % len(ref["seeds"])


def check_test_error(wl, seed, test_error, k0_error, reference):
    """Compare with the recorded error of this seed and, if the workload has one, apply the learning witness."""
    recorded = reference.get(wl.name, {}).get("seeds", {}).get(str(seed))
    if recorded is None:
        raise CheckFailed(f"no recorded test error for {wl.name} seed {seed}")
    if abs(test_error - recorded) > REFERENCE_TOL:
        raise CheckFailed(f"test error {test_error} differs from the recorded {recorded} for seed {seed}")
    if wl.learning_margin is not None and test_error > k0_error - wl.learning_margin:
        raise CheckFailed(f"test error {test_error} is not {wl.learning_margin} below the untrained {k0_error}")
    return test_error


@dataclass
class Result:
    attempted: int
    failures: list
    metrics: dict
    spans: list | None = None


def _median(values):
    return statistics.median(values) if values else None


def run_workload(wl, seed, seconds, trace, workdir, reference):
    """Run one workload for about ``seconds`` seconds; return its metrics.

    Without ``trace`` the metrics are the end-to-end ones, from untraced
    passes.  With ``trace`` they are the per-module ones of traced passes,
    each paired with an untraced train call that gives the tracing overhead.
    """
    gate = Gate()
    files = write_inputs(workdir, seed)
    setups = [gate.run("setup", setup, files, wl, seed) for _ in range(1 if trace else wl.setup_reps)]
    s = next((x for x in reversed(setups) if x is not None), None)
    if s is None:
        return Result(gate.attempted, gate.failures, {})
    k0_error = evaluate(s.init_w, s.test).error_rate

    first = gate.run("train", train_once, s, wl, seed, None, not trace)
    reference_w = first.state.W if first is not None else None

    def full_pass(tracing):
        trained = gate.run("train", train_once, s, wl, seed, reference_w)
        if trained is None:
            return None, None, []
        reps = 1 if tracing else wl.reps
        rt = gate.run("checkpoint", checkpoint_round_trip, trained.state, wl, files.checkpoint, reps, s.test.X)
        if rt is None:
            return trained, None, []
        evals = [ev for ev in (gate.run("evaluate", evaluate_all, rt.weights, s, seed) for _ in range(reps))
                 if ev is not None]
        if evals:
            gate.run("test_error", check_test_error, wl, seed, evals[0][1], k0_error, reference)
        return trained, rt, evals

    start = time.perf_counter()
    passes = []
    while len(passes) < (1 if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        if not trace:
            passes.append(full_pass(False))
            continue
        untraced = first if not passes else gate.run("train", train_once, s, wl, seed, reference_w)
        with tracer.Tracer(wl.arch) as t:
            gate.run("setup", setup, files, wl, seed)
            trained, _, _ = full_pass(True)
        summary = tracer.summarize(t.spans)
        summary["trace.untraced_train_s"] = untraced.seconds if untraced else None
        summary["trace.train_s"] = trained.seconds if trained else None
        passes.append((summary, t.spans))

    if trace:
        metrics = {name: _median([p[0][name] for p in passes if p[0].get(name) is not None])
                   for name, _, _ in tracer.PER_LAYER if name != "trace.overhead_s"}
        if metrics["trace.train_s"] is not None and metrics["trace.untraced_train_s"] is not None:
            metrics["trace.overhead_s"] = metrics["trace.train_s"] - metrics["trace.untraced_train_s"]
        return Result(gate.attempted, gate.failures, metrics, passes[-1][1])

    trained = [p[0] for p in passes if p[0] is not None]
    trips = [p[1] for p in passes if p[1] is not None]
    evals = [ev for p in passes for ev in p[2]]
    metrics = {
        "setup_s": _median([x.seconds for x in setups if x is not None]),
        "train_s": _median([t.seconds for t in trained]),
        "iter_s": _median([d for t in trained for d in t.iteration_seconds]),
        "ckpt_save_s": _median([d for r in trips for d in r.save_seconds]),
        "ckpt_load_s": _median([d for r in trips for d in r.load_seconds]),
        "ckpt_bytes": trips[-1].nbytes if trips else None,
        "eval_samples_per_s": _median([e[0] for e in evals]),
        "peak_mem_mib": first.peak_bytes / 2**20 if first is not None else None,
        "test_error": evals[-1][1] if evals else None,
    }
    return Result(gate.attempted, gate.failures, metrics)
