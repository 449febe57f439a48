import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stepbcd.cli import build_parser, main
from stepbcd.core import make_rng
from stepbcd.dataio import load_checkpoint, save_checkpoint

from datagen import make_synthetic_images, write_idx_images, write_idx_labels


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small synthetic IDX corpus: 8x8 images, 10 classes."""
    root = tmp_path_factory.mktemp("corpus")
    rng = make_rng(2024)
    tr_imgs, tr_labels = make_synthetic_images(80, 10, rng, rows=8, cols=8, block=4)
    te_imgs, te_labels = make_synthetic_images(40, 10, rng, rows=8, cols=8, block=4)
    paths = {
        "train_images": root / "train-images.idx",
        "train_labels": root / "train-labels.idx",
        "test_images": root / "test-images.idx",
        "test_labels": root / "test-labels.idx",
    }
    write_idx_images(paths["train_images"], tr_imgs)
    write_idx_labels(paths["train_labels"], tr_labels)
    write_idx_images(paths["test_images"], te_imgs)
    write_idx_labels(paths["test_labels"], te_labels)
    return paths


def train_args(corpus, out_dir, extra=()):
    return [
        "train",
        "--train-images", str(corpus["train_images"]),
        "--train-labels", str(corpus["train_labels"]),
        "--test-images", str(corpus["test_images"]),
        "--test-labels", str(corpus["test_labels"]),
        "--arch", "64,12,10",
        "--k", "2",
        "--seed", "7",
        "--out-dir", str(out_dir),
        *extra,
    ]


def write_empty_split(root):
    """An IDX image/label pair of 8x8 images holding no samples."""
    images, labels = root / "empty-images.idx", root / "empty-labels.idx"
    write_idx_images(images, np.zeros((0, 8, 8), dtype=np.uint8))
    write_idx_labels(labels, np.zeros(0, dtype=np.uint8))
    return str(images), str(labels)


@pytest.fixture(scope="session")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("run")
    assert main(train_args(corpus, out)) == 0
    return out


class TestTrainCommand:
    def test_produces_artifacts(self, trained):
        assert (trained / "checkpoint.bin").exists()
        report = (trained / "report.csv").read_text().splitlines()
        assert report[0] == "k,F,loss,l20,frob,upen,vpen,dW,dV,seconds"
        assert len(report) == 1 + 3  # header + initial row + 2 iterations
        metrics = (trained / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "split,error,fil_num,par_num,flops"
        assert len(metrics) == 3  # train and test rows

    def test_missing_data_file_exits_2(self, corpus, tmp_path, capsys):
        args = train_args(corpus, tmp_path)
        args[2] = str(tmp_path / "nope.idx")
        assert main(args) == 2
        assert "nope.idx" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_exits_2(self, corpus, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(train_args(corpus, taken)) == 2
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_incomplete_data_flags_exit_2(self, corpus, tmp_path, capsys):
        code = main(["train", "--train-images", str(corpus["train_images"]),
                     "--arch", "64,12,10", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_csv_and_idx_for_one_split_exit_2(self, corpus, tmp_path, capsys):
        rng = make_rng(3)
        rows = np.column_stack([rng.random((20, 64)), np.arange(20) % 10])
        np.savetxt(tmp_path / "train.csv", rows, delimiter=",")
        out = tmp_path / "out"
        assert main(train_args(corpus, out, extra=["--train-csv", str(tmp_path / "train.csv")])) == 2
        err = capsys.readouterr().err
        assert "--train-csv" in err and "--train-images" in err
        assert not (out / "checkpoint.bin").exists()

    def test_misfit_test_split_exits_2_before_training(self, corpus, tmp_path, capsys):
        imgs, labels = make_synthetic_images(20, 10, make_rng(5), rows=4, cols=4, block=4)
        write_idx_images(tmp_path / "small-images.idx", imgs)
        write_idx_labels(tmp_path / "small-labels.idx", labels)
        out = tmp_path / "out"
        args = train_args(corpus, out)
        args[args.index("--test-images") + 1] = str(tmp_path / "small-images.idx")
        args[args.index("--test-labels") + 1] = str(tmp_path / "small-labels.idx")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "does not fit" in err and "test" in err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "report.csv").exists()

    def test_defaults_are_reference_hyperparameters(self):
        parser = build_parser()
        args = parser.parse_args(["train"])
        assert (args.tau, args.pi, args.gamma, args.lam) == (1e-6, 1e-7, 1e-8, 0.052)
        assert (args.beta, args.l, args.k) == (0.00072, 1, 35)
        assert args.arch == "784,2000,2000,10"

    def test_deterministic_rerun(self, corpus, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(train_args(corpus, out1)) == 0
        assert main(train_args(corpus, out2)) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        # the report is identical except for the wall-time column
        rows1 = [l.split(",")[:-1] for l in (out1 / "report.csv").read_text().splitlines()]
        rows2 = [l.split(",")[:-1] for l in (out2 / "report.csv").read_text().splitlines()]
        assert rows1 == rows2

    def test_config_replay_reproduces_run(self, corpus, trained, tmp_path):
        replay = tmp_path / "replay"
        code = main(["train", "--config", str(trained / "run_config.json"), "--out-dir", str(replay)])
        assert code == 0
        assert (replay / "checkpoint.bin").read_bytes() == (trained / "checkpoint.bin").read_bytes()

    def test_config_holds_the_train_flags(self, trained):
        stored = json.loads((trained / "run_config.json").read_text())
        assert set(stored) == {
            "train_images", "train_labels", "train_csv", "train_n",
            "test_images", "test_labels", "test_csv", "test_n", "seed",
            "arch", "tau", "pi", "gamma", "lam", "beta", "l", "k", "scale",
            "derive_beta", "early_stop_tol", "batch_size", "warmup_epochs", "warmup_batch",
            "train_noise_sigma", "out_dir", "checkpoint",
        }

    def test_older_config_keys_are_ignored_on_replay(self, trained, tmp_path):
        # Keys that are not train flags, such as the global flags and the
        # eps_tiny, cg_max_iters, classes and cg_tol of older configs, are skipped on replay.
        stored = json.loads((trained / "run_config.json").read_text())
        stored.update(eps_tiny=1e-10, cg_max_iters=None, classes=10, cg_tol=1e-8, command="train", verbose=0)
        old = tmp_path / "old_config.json"
        old.write_text(json.dumps(stored))
        replay = tmp_path / "replay"
        assert main(["train", "--config", str(old), "--out-dir", str(replay)]) == 0
        assert (replay / "checkpoint.bin").read_bytes() == (trained / "checkpoint.bin").read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--train-n", "0"), ("--train-n", "-3"), ("--test-n", "0"), ("--batch-size", "0"),
        ("--batch-size", "-5"), ("--warmup-batch", "-1"), ("--train-noise-sigma", "-1"),
        ("--warmup-epochs", "-3"), ("--early-stop-tol", "-1"), ("--early-stop-tol", "nan"),
        ("--seed", "-1"), ("--scale", "0"), ("--scale", "-1"), ("--scale", "nan"), ("--scale", "inf"),
    ])
    def test_non_positive_size_exits_2_before_output(self, corpus, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(train_args(corpus, out, extra=[flag, value]))
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--tau", "nan"), ("--pi", "inf"), ("--gamma", "nan"), ("--beta", "inf"),
    ])
    def test_non_finite_hyperparameter_exits_2_before_output(self, corpus, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(train_args(corpus, out, extra=[flag, value])) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--l", "4294967296"), ("--k", "4294967296"), ("--l", "-1"), ("--k", "-1"),
    ])
    def test_iteration_count_outside_32_bits_exits_2_before_output(self, corpus, tmp_path, capsys, flag, value):
        # The checkpoint stores L and K as 32-bit unsigned integers.
        out = tmp_path / "out"
        assert main(train_args(corpus, out, extra=[flag, value])) == 2
        assert "32-bit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_exits_2_before_output(self, corpus, tmp_path, capsys, split):
        images, labels = write_empty_split(tmp_path)
        out = tmp_path / "out"
        empty = [f"--{split}-images", images, f"--{split}-labels", labels]
        assert main(train_args(corpus, out, extra=empty)) == 2
        assert f"empty split: the {split} data holds no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_idx_label_outside_the_output_width_names_the_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = train_args(corpus, out)
        args[args.index("--arch") + 1] = "64,12,3"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(corpus["train_labels"]) in err and "is not a class in [0, 3)" in err
        assert not out.exists()

    @pytest.mark.parametrize("feature, label", [("nan", "1"), ("0.5", "2.7")], ids=["nan-feature", "fractional-label"])
    def test_bad_csv_row_exits_2(self, tmp_path, capsys, feature, label):
        csv_path = tmp_path / "train.csv"
        csv_path.write_text("0.25,0.5,0\n" + f"{feature},0.5,{label}\n")
        out = tmp_path / "out"
        assert main(["train", "--train-csv", str(csv_path), "--arch", "2,4,10", "--k", "1",
                     "--out-dir", str(out)]) == 2
        assert str(csv_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_iterate_exits_3(self, tmp_path, capsys):
        rng = make_rng(3)
        csv_path = tmp_path / "train.csv"
        np.savetxt(csv_path, np.column_stack([rng.random((20, 4)), np.arange(20) % 3]), delimiter=",")
        code = main(["train", "--train-csv", str(csv_path), "--arch", "4,5,3", "--k", "30", "--tau", "1",
                     "--pi", "1", "--beta", "1e200", "--lambda", "0", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_subsampling(self, corpus, tmp_path):
        out = tmp_path / "sub"
        assert main(train_args(corpus, out, extra=["--train-n", "30"])) == 0
        _, shape, _ = load_checkpoint(out / "checkpoint.bin")
        state, _, _ = load_checkpoint(out / "checkpoint.bin")
        assert state.U[0].shape[1] == 30

    def test_subsample_of_the_whole_split_runs(self, corpus, trained, tmp_path):
        out = tmp_path / "all"
        assert main(train_args(corpus, out, extra=["--train-n", "80", "--test-n", "40"])) == 0
        assert (out / "checkpoint.bin").read_bytes() == (trained / "checkpoint.bin").read_bytes()

    @pytest.mark.parametrize("flag,n,size", [("--train-n", "81", 80), ("--test-n", "41", 40)])
    def test_subsample_above_the_split_exits_2_before_output(self, corpus, tmp_path, capsys, flag, n, size):
        out = tmp_path / "over"
        assert main(train_args(corpus, out, extra=[flag, n])) == 2
        captured = capsys.readouterr()
        assert f"{flag} {n} exceeds the {size} samples" in captured.err and captured.out == ""
        assert not out.exists()

    def test_train_noise_flag_changes_run(self, corpus, trained, tmp_path):
        noisy = tmp_path / "noisy"
        assert main(train_args(corpus, noisy, extra=["--train-noise-sigma", "0.3"])) == 0
        assert (noisy / "checkpoint.bin").read_bytes() != (trained / "checkpoint.bin").read_bytes()


class TestEvalCommand:
    def test_matches_training_metrics(self, corpus, trained, capsys, tmp_path):
        out_csv = tmp_path / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--train-images", str(corpus["train_images"]),
            "--train-labels", str(corpus["train_labels"]),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--split", "both", "--seed", "7", "--out", str(out_csv),
        ])
        assert code == 0
        eval_rows = out_csv.read_text().splitlines()[1:]
        train_rows = (trained / "metrics.csv").read_text().splitlines()[1:]
        assert eval_rows == train_rows

    def test_checkpoint_under_a_file_exits_2(self, corpus, tmp_path, capsys):
        (tmp_path / "file.txt").write_text("")
        out_csv = tmp_path / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(tmp_path / "file.txt" / "x"),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--out", str(out_csv),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_wrong_architecture_exits_2(self, corpus, tmp_path, capsys):
        from stepbcd.core import Hyperparams, NetworkShape, init_gaussian

        shape = NetworkShape((16, 6, 10))
        state = init_gaussian(shape, 0.1, make_rng(0), np.zeros((16, 4)))
        ckpt = tmp_path / "wrong.bin"
        save_checkpoint(state, shape, Hyperparams(), ckpt)
        code = main([
            "eval", "--checkpoint", str(ckpt),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
        ])
        assert code == 2
        assert "does not fit" in capsys.readouterr().err

    def test_empty_split_exits_2(self, trained, tmp_path, capsys):
        images, labels = write_empty_split(tmp_path)
        code = main([
            "eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--test-images", images, "--test-labels", labels,
        ])
        assert code == 2
        assert "empty split" in capsys.readouterr().err

    def test_empty_train_split_exits_2_before_output(self, trained, corpus, tmp_path, capsys):
        images, labels = write_empty_split(tmp_path)
        out_csv = tmp_path / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--train-images", images, "--train-labels", labels,
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--split", "both", "--out", str(out_csv),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "empty split: the train data holds no samples" in captured.err and captured.out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_subsample_above_the_split_exits_2_before_output(self, corpus, trained, tmp_path, capsys, split):
        out_csv = tmp_path / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--train-images", str(corpus["train_images"]),
            "--train-labels", str(corpus["train_labels"]),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--split", "both", f"--{split}-n", "200", "--out", str(out_csv),
        ])
        assert code == 2
        captured = capsys.readouterr()
        size = {"train": 80, "test": 40}[split]
        assert f"--{split}-n 200 exceeds the {size} samples" in captured.err and captured.out == ""
        assert not out_csv.exists()


class TestRobustnessCommand:
    def rob_args(self, corpus, trained, out, sigmas="0,0.1,0.2"):
        return [
            "robustness", "--checkpoint", str(trained / "checkpoint.bin"),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--sigmas", sigmas, "--seed", "5", "--out", str(out),
        ]

    def test_sigma_zero_equals_clean_error(self, corpus, trained, tmp_path, capsys):
        out = tmp_path / "rob.csv"
        assert main(self.rob_args(corpus, trained, out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.1, 0.2]
        code = main([
            "eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--test-images", str(corpus["test_images"]),
            "--test-labels", str(corpus["test_labels"]),
            "--out", str(tmp_path / "clean.csv"),
        ])
        assert code == 0
        clean_error = (tmp_path / "clean.csv").read_text().splitlines()[1].split(",")[1]
        assert rows[0][1] == clean_error

    def test_csv_deterministic(self, corpus, trained, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.rob_args(corpus, trained, a)) == 0
        assert main(self.rob_args(corpus, trained, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_split_exits_2_before_output(self, trained, tmp_path, capsys):
        images, labels = write_empty_split(tmp_path)
        out = tmp_path / "rob.csv"
        empty = {"test_images": images, "test_labels": labels}
        assert main(self.rob_args(empty, trained, out)) == 2
        captured = capsys.readouterr()
        assert "empty split: the test data holds no samples" in captured.err and captured.out == ""
        assert not out.exists()

    def test_subsample_above_the_split_exits_2_before_output(self, corpus, trained, tmp_path, capsys):
        out = tmp_path / "rob.csv"
        assert main(self.rob_args(corpus, trained, out) + ["--test-n", "41"]) == 2
        captured = capsys.readouterr()
        assert "--test-n 41 exceeds the 40 samples" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["nan", "inf", "0,-0.1", "0,,0.1", "abc", "0.1,nan"])
    def test_bad_sigma_exits_2_before_output(self, corpus, trained, tmp_path, capsys, sigmas):
        out = tmp_path / "rob.csv"
        with pytest.raises(SystemExit) as exited:
            main(self.rob_args(corpus, trained, out, sigmas=sigmas))
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--sigmas" in captured.err and captured.out == ""
        assert not out.exists()


# The desk-minibatch benchmark workload's train flags.
DESK_MINIBATCH_FLAGS = [
    "--arch", "784,200,200,10", "--tau", "1", "--pi", "0.5", "--gamma", "1e-8", "--lambda", "0",
    "--beta", "0.00072", "--l", "5", "--k", "3", "--batch-size", "100", "--derive-beta", "--scale", "0.01",
]


class TestBlasThreadReplay:
    def test_metrics_and_report_do_not_depend_on_the_thread_count(self, tmp_path):
        # Only the CSVs are promised.  The W bytes may differ in the last bit:
        # an OpenBLAS product splits its sums by thread count, and how depends on the CPU.
        images, labels = make_synthetic_images(600, 10, make_rng(707))
        paths = [tmp_path / name for name in ("tri", "trl", "tei", "tel")]
        write_idx_images(paths[0], images[:400])
        write_idx_labels(paths[1], labels[:400])
        write_idx_images(paths[2], images[400:])
        write_idx_labels(paths[3], labels[400:])
        data = ["--train-images", paths[0], "--train-labels", paths[1], "--test-images", paths[2],
                "--test-labels", paths[3], "--seed", "1"]
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "stepbcd.cli", "train", *map(str, data), *DESK_MINIBATCH_FLAGS,
                 "--out-dir", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}, capture_output=True, check=True,
            )
            runs.append(out)
        a, b = runs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

        def without_seconds(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert without_seconds(a / "report.csv") == without_seconds(b / "report.csv")
        assert len(without_seconds(a / "report.csv")) == 1 + 1 + 3  # header, init row, 3 epochs


class TestInspectCommand:
    def test_fresh_checkpoint_has_no_pruned_columns(self, trained, capsys):
        assert main(["inspect", "--checkpoint", str(trained / "checkpoint.bin")]) == 0
        out = capsys.readouterr().out
        assert "0 pruned columns" in out
        assert "filter_count" in out and "flops_estimate" in out

    def test_hand_zeroed_column_is_reported(self, trained, tmp_path, capsys):
        state, shape, hp = load_checkpoint(trained / "checkpoint.bin")
        state.W[1][:, 3] = 0.0
        ckpt = tmp_path / "zeroed.bin"
        save_checkpoint(state, shape, hp, ckpt)
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "1 pruned columns [3]" in out

    def test_corrupt_checkpoint_exits_2(self, trained, tmp_path, capsys):
        raw = bytearray((trained / "checkpoint.bin").read_bytes())
        raw[30] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        assert main(["inspect", "--checkpoint", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "[1, 2]", '{"tau": null}', '{"arch": 64}', '{"k": 2.5}',
                                     '{"batch_size": 0}', '{"train_noise_sigma": -1}', '{"warmup_epochs": -3}',
                                     '{"early_stop_tol": -1}', '{"early_stop_tol": NaN}', '{"seed": -1}',
                                     '{"scale": 0}', '{"scale": NaN}', '{"l": 4294967296}', '{"k": 4294967296}'],
                         ids=["missing", "list", "null-tau", "numeric-arch", "fractional-k",
                              "zero-batch-size", "negative-noise", "negative-warmup-epochs",
                              "negative-early-stop-tol", "nan-early-stop-tol", "negative-seed",
                              "zero-scale", "nan-scale", "l-above-32-bits", "k-above-32-bits"])
def test_config_file_unreadable_exits_2(tmp_path, capsys, content):
    config = tmp_path / "run_config.json"
    if content is not None:
        config.write_text(content)
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config) in err
