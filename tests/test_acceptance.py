"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.

The desk-scale quantitative runs (criteria 6-8) use real MNIST when the
environment variable ``MNIST_DIR`` points at the four canonical
uncompressed IDX files; otherwise they use a deterministic synthetic
28x28 ten-class corpus generated into the test temp directory (this
sandbox has no network access and no local MNIST copy).  The error
threshold for the synthetic path is the recorded implementer baseline
plus two percentage points, per the acceptance protocol; see README.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stepbcd.cli import main
from stepbcd.core import Hyperparams, NetworkShape, forward_blocks, init_gaussian, make_rng
from stepbcd.dataio import (
    CheckpointError,
    IdxFormatError,
    load_checkpoint,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
)
from stepbcd.metrics import evaluate, filter_count, flops_estimate
from stepbcd.prox import prox_l20_rows, step
from stepbcd import solvers, trainer
from stepbcd.solvers import cg_solve, pgm, solve_v
from stepbcd.trainer import train

from datagen import make_cluster_dataset, make_synthetic_images, write_idx_images, write_idx_labels
from oracles import (
    check_descent,
    composite_objective,
    hardmax_objective,
    hardmax_oracle_min,
    p_stationarity_residual,
    packed_pattern,
    prox_hardmax_column,
    prox_step_scalar,
    step_grid_min,
    step_grid_min_brute,
    step_objective,
    step_oracle_min,
)

# Implementer baseline for the synthetic desk-scale run (seed 11, reference
# hyperparameters), recorded on the single-draw 6000/1200 corpus of
# ``desk_corpus``: test error 0.884.  The acceptance bound is baseline + 2
# percentage points.  See README for why this sits near chance level at
# desk scale.
SYNTHETIC_BASELINE_TEST_ERROR = 0.884
DESK_SEED = 11


@contextlib.contextmanager
def criterion(num, name, limit_seconds=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit_seconds is not None and elapsed >= limit_seconds:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {limit_seconds}s limit")
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# criterion 1: prox oracle suite


def test_criterion_1_prox_oracles():
    with criterion(1, "prox oracle suite", limit_seconds=10):
        rng = make_rng(101)

        # the fast grid oracle must agree with the brute-force grid scan
        for _ in range(200):
            a = float(rng.uniform(0, 1))
            b = float(rng.uniform(-3, 3))
            rho = float(rng.uniform(1e-3, 10))
            assert abs(step_grid_min(a, b, rho) - step_grid_min_brute(a, b, rho)) < 1e-12

        # scalar step prox vs 1-D grid oracle (plus the 0+ limit candidate)
        n = 10**4
        a_draws = np.where(rng.random(n) < 0.5, rng.integers(0, 2, n).astype(float), rng.random(n))
        b_draws = rng.uniform(-3.0, 3.0, n)
        rho_draws = rng.uniform(1e-3, 10.0, n)
        for a, b, rho in zip(a_draws, b_draws, rho_draws):
            out = prox_step_scalar(a, b, rho)
            assert step_objective(out, a, b, rho) <= step_oracle_min(a, b, rho) + 1e-6

        # hardmax prox vs the two-candidate analytic oracle
        for _ in range(10**4):
            m = int(rng.integers(1, 9))
            b = rng.uniform(-2.0, 2.0, m)
            y_index = int(rng.integers(0, m))
            mu = float(rng.uniform(0.05, 1.0))
            out = prox_hardmax_column(y_index, b, mu)
            assert hardmax_objective(out, y_index, b, mu) <= hardmax_oracle_min(y_index, b, mu) + 1e-9

        # rowwise hard thresholding vs the per-row two-candidate oracle, exact
        for _ in range(10**4):
            h = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 6))))
            beta = float(rng.uniform(0.01, 2.0))
            lam = float(rng.uniform(0.0, 2.0))
            out = prox_l20_rows(h.copy(), beta, lam)
            expect = h.copy()
            zero_rows = (h * h).sum(axis=1) / (2.0 * beta) < lam * np.any(h != 0.0, axis=1)
            expect[zero_rows] = 0.0
            assert np.array_equal(out, expect)


# --------------------------------------------------------------------------
# criteria 2 and 3: PGM certification and quadratic growth


def pgm_instances():
    rng = make_rng(202)
    tau, gamma, lam = 1.0, 1.0, 0.1
    out = []
    for _ in range(50):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(2, 21))
        q = int(rng.integers(2, 21))
        v = rng.standard_normal((n, p)) / np.sqrt(n)
        u = rng.standard_normal((n, q))
        w0 = rng.standard_normal((p, q))
        beta = 0.9 / (tau * np.linalg.norm(v, 2) ** 2 + gamma)
        out.append((u, v, w0, tau, gamma, lam, beta))
    return out


_certified_cache = []


def certified_points():
    """Run the 50 certifications once; every inner iteration must descend."""
    if _certified_cache:
        return _certified_cache
    for u, v, w0, tau, gamma, lam, beta in pgm_instances():
        w = w0
        obj = composite_objective(w, u, v, tau, gamma, lam)
        for _ in range(500):
            w = pgm(u, v, w, tau, gamma, lam, L=1, beta=beta)
            cur = composite_objective(w, u, v, tau, gamma, lam)
            assert cur <= obj + 1e-12 * max(1.0, abs(obj)), "inner objective increased"
            obj = cur
        res = p_stationarity_residual(w, u, v, tau, gamma, lam, beta)
        _certified_cache.append((w, u, v, tau, gamma, lam, beta, res))
    return _certified_cache


def test_criterion_2_pgm_certification():
    with criterion(2, "PGM certification", limit_seconds=30):
        for *_, res in certified_points():
            assert res <= 1e-6


def test_criterion_3_quadratic_growth():
    with criterion(3, "quadratic growth at stationary points", limit_seconds=30):
        rng = make_rng(303)
        for w, u, v, tau, gamma, lam, beta, _ in certified_points():
            base = composite_objective(w, u, v, tau, gamma, lam)
            m = w.shape[0]
            radius = np.sqrt(beta * lam / (2.0 * m * m))
            for _ in range(100):
                d = rng.standard_normal(w.shape)
                d *= rng.uniform(0.0, 1.0) * 0.999 * radius / np.linalg.norm(d)
                grown = composite_objective(w + d, u, v, tau, gamma, lam)
                assert grown - base >= 0.5 * gamma * float((d * d).sum()) - 1e-9


# --------------------------------------------------------------------------
# criterion 4: CG solver vs dense factorization


def test_criterion_4_cg_solver(monkeypatch):
    with criterion(4, "state solvers (CG and Woodbury) vs dense factorization", limit_seconds=30):
        rng = make_rng(404)
        tau, pi = 1.0, 0.5
        for _ in range(100):
            d = int(rng.integers(5, 201))
            ncols = int(rng.integers(1, 9))
            w = rng.standard_normal((d + 2, d)) / np.sqrt(d)
            a = tau * (w.T @ w) + pi * np.eye(d)
            b = rng.standard_normal((d, ncols))
            ref = np.linalg.solve(a, b)
            iterates = []
            x, _ = cg_solve(w, tau, pi, b, np.zeros_like(b), tol=1e-10, max_iters=10 * d,
                            callback=iterates.append)
            assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-8
            prev = ((0.0 - ref) * (a @ (0.0 - ref))).sum(axis=0)
            for xk in iterates:
                e = xk - ref
                cur = (e * (a @ e)).sum(axis=0)
                assert np.all(cur <= prev * (1 + 1e-10) + 1e-14)
                prev = cur

        # solve_v starts CG from the Woodbury iterate below a narrower layer
        # (m < d) and from v_init otherwise; both must match the dense d x d
        # factorization and meet the tolerance column by column.
        tol = 1e-10
        monkeypatch.setattr(solvers, "V_TOL", tol)
        paths = set()
        for _ in range(60):
            d = int(rng.integers(2, 121))
            m = int(rng.integers(1, 2 * d + 1))
            ncols = int(rng.integers(1, 9))
            tau, pi = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 1.0))
            w = rng.standard_normal((m, d)) / np.sqrt(d)
            u_next = rng.standard_normal((m, ncols))
            u_cur = rng.standard_normal((d, ncols))
            a = tau * (w.T @ w) + pi * np.eye(d)
            b = tau * (w.T @ u_next) + pi * step(u_cur)
            ref = np.linalg.solve(a, b)
            v, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
            assert np.linalg.norm(v - ref) / np.linalg.norm(ref) <= 1e-8
            col_res = np.linalg.norm(b - a @ v, axis=0) / np.linalg.norm(b, axis=0)
            # CG stops on its recursive residual, which rounding moves
            # slightly away from the true one computed here.
            assert np.all(col_res <= tol * (1 + 1e-3))
            paths.add(m < d)
        assert paths == {True, False}


# --------------------------------------------------------------------------
# criterion 5: BCD descent on tiny networks


def test_criterion_5_bcd_descent(monkeypatch):
    with criterion(5, "BCD descent inequality and vanishing gaps", limit_seconds=60):
        beta = 0.003
        hp = Hyperparams(tau=1.0, pi=0.5, gamma=1.01 / beta, lam=0.01, beta=beta, L=30, K=50)
        shape = NetworkShape((4, 8, 3))
        monkeypatch.setattr(solvers, "V_TOL", 1e-12)
        for run in range(20):
            data = make_cluster_dataset(4, 3, 32, make_rng(500 + run))
            _, report = train(data, shape, hp, rng=make_rng(900 + run))
            ok, worst = check_descent(report, hp, tol=1e-9)
            assert ok, f"run {run}: descent inequality violated by {worst:.3e}"
            assert report.records[-1].dw < 1e-8, f"run {run}: dW did not vanish"
            assert report.records[-1].dv < 1e-8, f"run {run}: dV did not vanish"


# --------------------------------------------------------------------------
# criteria 6-8: desk-scale quantitative run, sparsification, robustness


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    mnist_dir = os.environ.get("MNIST_DIR")
    if mnist_dir:
        root = Path(mnist_dir)
        paths = {
            "train_images": root / "train-images-idx3-ubyte",
            "train_labels": root / "train-labels-idx1-ubyte",
            "test_images": root / "t10k-images-idx3-ubyte",
            "test_labels": root / "t10k-labels-idx1-ubyte",
            "source": "mnist",
        }
        for key, p in paths.items():
            if key != "source" and not Path(p).exists():
                pytest.skip(f"MNIST_DIR is set but {p} is missing")
        return paths
    root = tmp_path_factory.mktemp("desk_corpus")
    # One draw shares the class prototypes between the two splits.
    images, labels = make_synthetic_images(7200, 10, make_rng(606))
    tr_imgs, tr_labels = images[:6000], labels[:6000]
    te_imgs, te_labels = images[6000:], labels[6000:]
    paths = {
        "train_images": root / "train-images.idx",
        "train_labels": root / "train-labels.idx",
        "test_images": root / "t10k-images.idx",
        "test_labels": root / "t10k-labels.idx",
        "source": "synthetic",
    }
    write_idx_images(paths["train_images"], tr_imgs)
    write_idx_labels(paths["train_labels"], tr_labels)
    write_idx_images(paths["test_images"], te_imgs)
    write_idx_labels(paths["test_labels"], te_labels)
    return paths


def desk_train_args(corpus, out_dir, lam=None):
    args = [
        "train",
        "--train-images", str(corpus["train_images"]),
        "--train-labels", str(corpus["train_labels"]),
        "--test-images", str(corpus["test_images"]),
        "--test-labels", str(corpus["test_labels"]),
        "--arch", "784,200,200,10",
        "--train-n", "2000",
        "--test-n", "1000",
        "--seed", str(DESK_SEED),
        "--out-dir", str(out_dir),
    ]
    if lam is not None:
        args += ["--lambda", str(lam)]
    return args


def read_metrics(path):
    rows = {}
    for line in Path(path).read_text().splitlines()[1:]:
        split, error, fil, par, flops = line.split(",")
        rows[split] = {"error": float(error), "fil": int(fil), "par": int(par), "flops": float(flops)}
    return rows


@pytest.fixture(scope="module")
def desk_run(desk_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    assert main(desk_train_args(desk_corpus, out)) == 0
    return out


def test_criterion_6_desk_scale_run(desk_corpus, desk_run, tmp_path):
    with criterion(6, f"desk-scale run ({desk_corpus['source']})", limit_seconds=600):
        # the CLI defaults must be the reference hyperparameters
        from stepbcd.cli import build_parser

        args = build_parser().parse_args(["train"])
        assert (args.tau, args.pi, args.gamma, args.lam, args.beta, args.l, args.k) == (
            1e-6, 1e-7, 1e-8, 0.052, 0.00072, 1, 35,
        )

        metrics = read_metrics(desk_run / "metrics.csv")
        test_error = metrics["test"]["error"]
        print(f"\n[acceptance] desk-scale test error: {test_error:.4f} ({desk_corpus['source']})")
        if desk_corpus["source"] == "synthetic":
            assert SYNTHETIC_BASELINE_TEST_ERROR is not None, "baseline not recorded"
            assert test_error <= SYNTHETIC_BASELINE_TEST_ERROR + 0.02
        else:
            # no implementer baseline exists for real MNIST in this sandbox
            # (no network, no local copy); completion and reproducibility are
            # still enforced, and the measured error is printed above.
            assert test_error <= 0.95

        # seed reproducibility, bit-exact checkpoint
        rerun = tmp_path / "rerun"
        assert main(desk_train_args(desk_corpus, rerun)) == 0
        assert (rerun / "checkpoint.bin").read_bytes() == (desk_run / "checkpoint.bin").read_bytes()
        report = (desk_run / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 36  # header + initial record + 35 iterations


def test_criterion_7_sparsification_direction(desk_corpus, tmp_path):
    with criterion(7, "sparsification direction under 50x lambda"):
        out_zero = tmp_path / "lam0"
        out_high = tmp_path / "lam50"
        assert main(desk_train_args(desk_corpus, out_zero, lam=0.0)) == 0
        assert main(desk_train_args(desk_corpus, out_high, lam=0.052 * 50)) == 0
        state0, *_ = load_checkpoint(out_zero / "checkpoint.bin")
        state1, *_ = load_checkpoint(out_high / "checkpoint.bin")
        assert filter_count(state1.W) < filter_count(state0.W)
        assert flops_estimate(state1.W) < flops_estimate(state0.W)


def test_criterion_8_robustness_protocol(desk_corpus, desk_run, tmp_path):
    with criterion(8, "robustness protocol"):
        def rob(out):
            return main([
                "robustness",
                "--checkpoint", str(desk_run / "checkpoint.bin"),
                "--test-images", str(desk_corpus["test_images"]),
                "--test-labels", str(desk_corpus["test_labels"]),
                "--test-n", "1000",
                "--sigmas", "0,0.1,0.2,0.4",
                "--seed", str(DESK_SEED),
                "--out", str(out),
            ])

        out_a, out_b = tmp_path / "rob_a.csv", tmp_path / "rob_b.csv"
        assert rob(out_a) == 0
        lines = out_a.read_text().splitlines()
        assert lines[0] == "sigma,error"
        sigmas = [float(l.split(",")[0]) for l in lines[1:]]
        assert sigmas == [0.0, 0.1, 0.2, 0.4]

        # the sigma=0 row must equal the clean test error exactly
        clean = read_metrics(desk_run / "metrics.csv")["test"]["error"]
        assert float(lines[1].split(",")[1]) == clean

        # empirical sanity bound: noise essentially never helps
        errors = [float(l.split(",")[1]) for l in lines[1:]]
        assert errors[-1] >= errors[0] - 0.02

        assert rob(out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


# --------------------------------------------------------------------------
# learning witnesses: the readout learns; do the hidden layers?


def witness_split():
    """The witness corpus: one 3000-image draw split 2000 train / 1000 test."""
    images, labels = make_synthetic_images(3000, 10, make_rng(606))
    return to_dataset(images[:2000], labels[:2000], 10), to_dataset(images[2000:], labels[2000:], 10)


def test_mini_batch_readout_learns():
    # The desk-minibatch regime (the benchmark's learning workload) on the
    # witness corpus: three epochs cut the test error well below that of
    # the untrained network of the same seed.  Only the output layer
    # learns here (see test_hidden_layers_learn); with L = 0 the weights
    # hold and the error stays at the untrained one.
    train_set, test_set = witness_split()
    shape = NetworkShape((784, 200, 200, 10))
    flags = dict(tau=1.0, pi=0.5, gamma=1e-8, lam=0.0, beta=0.00072, L=5)
    errors = {}
    for k in (0, 3):
        state, _ = train(train_set, shape, Hyperparams(**flags, K=k), rng=make_rng(17),
                         batch_size=100, derive_beta=True)
        errors[k] = evaluate(state.W, test_set).error_rate
    print(f"\n[acceptance] readout witness: test error {errors[3]:.3f} after 3 epochs, "
          f"{errors[0]:.3f} untrained")
    assert errors[3] <= errors[0] - 0.1


def test_witness_run_takes_the_learning_path(monkeypatch):
    # No benchmark workload iterates CG, takes the step prox's entrywise
    # path or changes a U entry: every start and every U block there is
    # kept.  The regime of test_hidden_layers_learn takes all three, so this
    # run is the end-to-end witness that those paths are reached, and that
    # they replay bit for bit.
    train_set, _ = witness_split()
    shape = NetworkShape((784, 20, 20, 10))
    hp = Hyperparams(tau=1.0, pi=1e-3, gamma=1e-8, lam=0.0, beta=0.00072, L=5, K=3)
    cg_iters, changed = [], []  # over both runs
    prox_step = trainer.prox_step_matrix

    def spy_cg(*args):
        x, iters = cg_solve(*args)
        cg_iters.append(iters)
        return x, iters

    def spy_prox(v, b, tau, pi):
        out = prox_step(v, b, tau, pi)
        changed.append(int((out != b).sum()))
        return out

    monkeypatch.setattr(solvers, "cg_solve", spy_cg)
    monkeypatch.setattr(trainer, "prox_step_matrix", spy_prox)
    runs = [train(train_set, shape, hp, rng=make_rng(17), batch_size=100, derive_beta=True)[0] for _ in range(2)]
    init = init_gaussian(shape, 0.01, make_rng(17), train_set.X)
    # A mini-batch run's final U is the forward pass of its trained weights.
    final_u, _ = forward_blocks(runs[0].W, train_set.X)
    flips = sum(int((step(u) != step(u0)).sum()) for u, u0 in zip(final_u[:-1], init.U[:-1]))
    iterating = sum(i > 0 for i in cg_iters) // 2
    changing = sum(c > 0 for c in changed) // 2
    print(f"\n[acceptance] learning path: {iterating} of {len(cg_iters) // 2} state solves iterate, "
          f"{changing} of {len(changed) // 2} step-prox calls change {sum(changed) // 2} entries, "
          f"hidden U flips {flips}")
    assert iterating > 0
    assert changing > 0
    assert flips > 0
    assert all(run.U == run.V == [] for run in runs)
    for a, b in zip(runs[0].W, runs[1].W, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.xfail(strict=True, reason=(
    "the hidden layers do not learn in any measured regime (ROADMAP.md, finding 'the hidden layers "
    "never learn'): the V solve moves a column by at most sqrt(tau/pi)/2 times its downstream "
    "residual, too little to flip a unit, and W_0 moves only by its gamma decay"))
def test_hidden_layers_learn():
    # The mini-batch regime that learns its output layer, with pi = 1e-3 and
    # two 20-unit hidden layers, on 2000 train and 1000 test images.  "Reset"
    # sets every hidden W_i back to its init and keeps the trained output
    # layer.  A PGM step that only decays multiplies W_0 by 1 - beta gamma,
    # and the derived step is beta = 0.9 / (tau sigma^2 + gamma) with sigma
    # at least the smallest input column norm, so decay alone moves W_0 by
    # at most ``decay`` relative to its init.
    train_set, test_set = witness_split()
    shape = NetworkShape((784, 20, 20, 10))
    hp = Hyperparams(tau=1.0, pi=1e-3, gamma=1e-8, lam=0.0, beta=0.00072, L=5, K=3)
    batch_size, seed = 100, 17
    state, _ = train(train_set, shape, hp, rng=make_rng(seed), batch_size=batch_size, derive_beta=True)
    init = init_gaussian(shape, 0.01, make_rng(seed), train_set.X)

    final_u, _ = forward_blocks(state.W, train_set.X)
    flips = sum(int((step(u) != step(u0)).sum()) for u, u0 in zip(final_u[:-1], init.U[:-1]))
    moved = np.linalg.norm(state.W[0] - init.W[0]) / np.linalg.norm(init.W[0])
    steps = hp.K * (train_set.n // batch_size) * hp.L
    min_sq_norm = float((train_set.X * train_set.X).sum(axis=0).min())
    decay = steps * 0.9 * hp.gamma / (hp.tau * min_sq_norm + hp.gamma)
    trained = evaluate(state.W, test_set).error_rate
    reset = evaluate(init.W[:-1] + state.W[-1:], test_set).error_rate
    print(f"\n[acceptance] learning witness: hidden U flips {flips}, W_0 moved {moved:.3g} "
          f"(decay at most {decay:.3g}), test error {trained:.3f} vs reset {reset:.3f}")
    assert flips > 0
    assert moved > 1e3 * decay
    assert trained <= reset - 0.02


# --------------------------------------------------------------------------
# criterion 9: format suite


def test_criterion_9_format_suite(tmp_path, capsys):
    with criterion(9, "IDX and checkpoint format suite"):
        # exact IDX fixture parse
        import struct

        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes([0, 64, 128, 255, 1, 2, 3, 4]))
        imgs = load_idx_images(img_path)
        assert np.array_equal(imgs, np.array([[[0, 64], [128, 255]], [[1, 2], [3, 4]]], dtype=np.uint8))
        lbl_path = tmp_path / "labels.idx"
        lbl_path.write_bytes(struct.pack(">II", 2049, 3) + bytes([0, 5, 9]))
        assert np.array_equal(load_idx_labels(lbl_path), [0, 5, 9])
        with pytest.raises(IdxFormatError):
            load_idx_images(lbl_path)

        # checkpoint round trip, bit exact
        shape = NetworkShape((6, 5, 4))
        state = init_gaussian(shape, 0.2, make_rng(909), make_rng(910).random((6, 7)))
        hp = Hyperparams()
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(state, shape, hp, ckpt)
        loaded, lshape, lhp = load_checkpoint(ckpt)
        assert lshape == shape and lhp == hp and loaded.n_samples == 7
        assert loaded.U == loaded.V == []  # the file holds the weights alone
        for a, b in zip(loaded.W, state.W, strict=True):
            assert np.array_equal(a, b)

        # corrupted inputs surface the documented exit codes through the CLI
        raw = bytearray(ckpt.read_bytes())
        raw[-10] ^= 0x01
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["inspect", "--checkpoint", str(bad)]) == 2
        assert main(["train", "--train-images", str(tmp_path / "absent.idx"),
                     "--train-labels", str(lbl_path), "--arch", "4,3",
                     "--out-dir", str(tmp_path / "o")]) == 2
        capsys.readouterr()
