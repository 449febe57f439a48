"""Tests of the benchmark itself: output schema, inputs, correctness gate, tracer.

Run from the repository root:

    python -m pytest perfbench/test_perfbench.py

The CLI comparison trains every workload twice, wide-full included, so the
module takes about a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import pipeline
import run
import tracer
from workloads import END_TO_END, INIT_SCALE, N_TEST, N_TRAIN, WORKLOADS

from stepbcd import cli
from stepbcd.core import NetworkShape, init_gaussian, make_rng
from stepbcd.dataio import Dataset, load_checkpoint, save_checkpoint
from stepbcd.prox import prox_step_matrix
from stepbcd.trainer import bcd_iteration

DESK = WORKLOADS["desk-full"]


def _last_json(args):
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, spec", [(0, END_TO_END), (1, tracer.PER_LAYER)])
def test_output_schema(trace, spec):
    out = _last_json(["--workload", "desk-full", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [name for name, *_ in spec]
    for name, unit, *_ in spec:
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(out["metrics"][name]["value"], (int, float))


def test_benchmark_json_is_written_from_the_tables():
    with open(run.ROOT / "BENCHMARK.json") as f:
        assert json.load(f) == run.benchmark_spec()


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*"):
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-full", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corpus_is_seed_deterministic():
    a = inputs.make_corpus(5, 40, 20)
    b = inputs.make_corpus(5, 40, 20)
    c = inputs.make_corpus(6, 40, 20)
    for x, y in zip((a[0], *a[1], *a[2]), (b[0], *b[1], *b[2])):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[1][0], c[1][0])


def test_train_and_test_share_prototypes():
    """Class means of the train split classify the test split almost perfectly."""
    _, (tr_img, tr_lab), (te_img, te_lab) = inputs.make_corpus(7, 600, 300)
    tr = tr_img.reshape(len(tr_img), -1).astype(np.float64)
    te = te_img.reshape(len(te_img), -1).astype(np.float64)
    means = np.stack([tr[tr_lab == c].mean(axis=0) for c in range(inputs.CLASSES)])
    dist = ((te[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (np.argmin(dist, axis=1) == te_lab).mean() > 0.99


def test_idx_files_parse_back(tmp_path):
    files = pipeline.write_inputs(tmp_path, 2)
    s = pipeline.setup(files, DESK, 2)
    assert (s.train.n, s.test.n) == (N_TRAIN, N_TEST)
    assert s.train.X.min() >= 0.0 and s.train.X.max() <= 1.0


def _reference(wl, seed, error):
    return {wl.name: {"seeds": {str(seed): error}}}


def test_gate_reports_a_wrong_reference_as_a_failure(tmp_path):
    wrong = _reference(DESK, 4, 0.25)
    result = pipeline.run_workload(DESK, 4, 0, False, tmp_path, wrong)
    assert result.attempted > 0
    assert result.failures and all(f.startswith("test_error:") for f in result.failures)


def test_gate_checks_the_record_and_learning_witness():
    wl = WORKLOADS["desk-minibatch"]
    gate = pipeline.Gate()
    gate.run("test_error", pipeline.check_test_error, wl, 9, 0.5, 0.9, _reference(wl, 9, 0.5))
    assert not gate.failures
    # A seed with no recorded error.
    gate.run("test_error", pipeline.check_test_error, wl, 10, 0.5, 0.9, _reference(wl, 9, 0.5))
    # Matches the record but has not learned: no better than the untrained net.
    gate.run("test_error", pipeline.check_test_error, wl, 9, 0.5, 0.55, _reference(wl, 9, 0.5))
    assert gate.attempted == 3 and len(gate.failures) == 2


def test_every_seed_maps_onto_a_recorded_one():
    reference = pipeline.load_reference()
    for wl in WORKLOADS.values():
        n = len(reference[wl.name]["seeds"])
        for seed in (0, n - 1, n, 1736365112, 2**63 - 1):
            assert str(pipeline.recorded_seed(wl, seed, reference)) in reference[wl.name]["seeds"]
    with pytest.raises(ValueError):
        pipeline.recorded_seed(DESK, 1, {DESK.name: {"seeds": {"1": 0.5}}})


def _init_state(wl, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((wl.arch[0], 50))
    return init_gaussian(NetworkShape(wl.arch), INIT_SCALE, make_rng(seed, 0), x), x


def test_gate_reports_a_corrupted_checkpoint(tmp_path):
    state, x = _init_state(DESK, 1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, NetworkShape(DESK.arch), pipeline.hyperparams(DESK), path)
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0x01
    path.write_bytes(bytes(raw))
    gate = pipeline.Gate()
    assert gate.run("checkpoint", lambda: pipeline.verify_round_trip(state, DESK, *load_checkpoint(path), x)) is None
    assert len(gate.failures) == 1 and "ChecksumError" in gate.failures[0]


def test_gate_reports_a_checkpoint_that_is_not_bit_exact(tmp_path):
    state, x = _init_state(DESK, 1)
    other = state.copy()
    other.W[1][3, 4] = np.nextafter(other.W[1][3, 4], np.inf)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(other, NetworkShape(DESK.arch), pipeline.hyperparams(DESK), path)
    gate = pipeline.Gate()
    gate.run("checkpoint", lambda: pipeline.verify_round_trip(state, DESK, *load_checkpoint(path), x))
    assert len(gate.failures) == 1 and "not bit-exact" in gate.failures[0]


def test_tracer_links_parents_and_splits_layers():
    wl = WORKLOADS["desk-minibatch"]
    state, x = _init_state(wl, 2)
    y = np.zeros((wl.arch[-1], x.shape[1]))
    y[np.arange(x.shape[1]) % wl.arch[-1], np.arange(x.shape[1])] = 1.0
    with tracer.Tracer(wl.arch) as t:
        bcd_iteration(state, Dataset(x, y), pipeline.hyperparams(wl))
    spans = {s.id: s for s in t.spans}
    names = {s.name for s in t.spans}
    assert {"trainer.bcd_iteration", "solvers.solve_v", "solvers.cg_solve", "solvers.pgm",
            "prox.prox_step_matrix", "prox.prox_hardmax_matrix"} <= names
    for s in t.spans:
        if s.name == "solvers.cg_solve":
            assert spans[s.parent].name == "solvers.solve_v"
        if s.name in ("solvers.solve_v", "prox.prox_step_matrix"):
            assert spans[s.parent].name == "trainer.bcd_iteration"
    assert sorted(s.layer for s in t.spans if s.name == "solvers.pgm") == [0, 1, 2]
    for fn in ("solvers.solve_v", "prox.prox_step_matrix"):
        assert [s.layer for s in t.spans if s.name == fn] == [1, 0]  # the sweep runs inward
    m = tracer.summarize(t.spans)
    # Self times partition the root spans' time among the modules.
    roots = sum(s.end - s.start for s in t.spans if s.parent is None)
    assert sum(m[f"{mod}.self_s"] for mod in tracer.TRACED_MODULES) == pytest.approx(roots)
    n = x.shape[1]
    assert m["trainer.bcd_iteration.computed_flops"] == sum(2 * a * b * n for a, b in zip(wl.arch[1:], wl.arch[:-1]))
    assert m["solvers.grad_psi.calls"] == 3 * wl.hp["L"]


def test_tracer_counts_changed_entries():
    with tracer.Tracer(DESK.arch) as t:
        prox_step_matrix(np.array([[0.0, 1.0]]), np.array([[0.1, -0.1]]), 1.0, 1.0)
    m = tracer.summarize(t.spans)
    assert m["prox.prox_step_matrix.changed_frac"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cli_train_writes_the_benchmark_checkpoint(name, tmp_path):
    """``stepbcd train`` with the workload's flags writes the benchmark's checkpoint, byte for byte."""
    wl, seed = WORKLOADS[name], 5
    files = pipeline.write_inputs(tmp_path, seed)
    hp = wl.hp
    argv = ["train",
            "--train-images", str(files.train_images), "--train-labels", str(files.train_labels),
            "--test-images", str(files.test_images), "--test-labels", str(files.test_labels),
            "--arch", ",".join(map(str, wl.arch)), "--train-n", str(N_TRAIN), "--test-n", str(N_TEST),
            "--tau", str(hp["tau"]), "--pi", str(hp["pi"]), "--gamma", str(hp["gamma"]),
            "--lambda", str(hp["lam"]), "--beta", str(hp["beta"]), "--l", str(hp["L"]), "--k", str(hp["K"]),
            "--scale", str(INIT_SCALE), "--seed", str(seed),
            "--out-dir", str(tmp_path / "cli"), "--checkpoint", str(tmp_path / "cli.bin")]
    if wl.derive_beta:
        argv.append("--derive-beta")
    if wl.batch_size is not None:
        argv += ["--batch-size", str(wl.batch_size)]
    assert cli.main(argv) == 0

    trained = pipeline.train_once(pipeline.setup(files, wl, seed), wl, seed)
    save_checkpoint(trained.state, NetworkShape(wl.arch), pipeline.hyperparams(wl), tmp_path / "bench.bin")
    assert (tmp_path / "cli.bin").read_bytes() == (tmp_path / "bench.bin").read_bytes()
