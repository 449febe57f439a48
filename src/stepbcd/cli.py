"""Command-line entry point: train, eval, robustness, inspect.

Every command is deterministic given its flags, seed, and input files.
Randomized stages (init, subsampling shuffle, noise) draw from independent
sub-streams of the master seed, so enabling one stage never shifts
another's draws.  Exit codes: 0 success, 2 usage or data error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .core import STAGE_INIT, STAGE_NOISE, STAGE_SHUFFLE, Hyperparams, NetworkShape, make_rng
from .dataio import (
    CheckpointError,
    IdxFormatError,
    add_gaussian_noise,
    load_checkpoint,
    load_csv_dataset,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
)
from .metrics import evaluate, filter_count, flops_estimate, param_count, write_metrics_csv
from .solvers import CgConfig, CgError
from .trainer import train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

logger = logging.getLogger(__name__)

# Shuffle sub-stream indices for the two subsampled splits.
_TRAIN_SPLIT = 0
_TEST_SPLIT = 1


def _parse_arch(text):
    dims = tuple(int(p) for p in text.split(","))
    return NetworkShape(dims)


def _parse_sigmas(text):
    return [float(p) for p in text.split(",")]


def _add_data_args(p, split):
    p.add_argument(f"--{split}-images", help=f"IDX image file for the {split} split")
    p.add_argument(f"--{split}-labels", help=f"IDX label file for the {split} split")
    p.add_argument(f"--{split}-csv", help=f"CSV file (features..., label) for the {split} split")


def _load_split(args, split, classes):
    images = getattr(args, f"{split}_images")
    labels = getattr(args, f"{split}_labels")
    csv_path = getattr(args, f"{split}_csv")
    if csv_path is not None:
        return load_csv_dataset(csv_path, classes)
    if images is None and labels is None:
        return None
    if images is None or labels is None:
        raise ValueError(f"--{split}-images and --{split}-labels must be given together")
    return to_dataset(load_idx_images(images), load_idx_labels(labels), classes)


def _subsample(data, n, seed, split_index):
    if n is None or n <= 0 or n >= data.n:
        return data
    perm = make_rng(seed, STAGE_SHUFFLE, split_index).permutation(data.n)
    return data.subset(np.sort(perm[:n]))


def _hyperparams(args):
    return Hyperparams(tau=args.tau, pi=args.pi, gamma=args.gamma, lam=args.lam,
                       beta=args.beta, L=args.l, K=args.k, eps_tiny=args.eps_tiny)


def _metrics_rows(w_list, splits):
    fil = filter_count(w_list)
    par = param_count(w_list, count_pruned=False)
    flops = flops_estimate(w_list)
    return [(name, evaluate(w_list, data).error_rate, fil, par, flops) for name, data in splits]


def cmd_train(args):
    shape = _parse_arch(args.arch)
    hp = _hyperparams(args)
    train_data = _load_split(args, "train", args.classes)
    if train_data is None:
        raise ValueError("training data is required (--train-images/--train-labels or --train-csv)")
    train_data = _subsample(train_data, args.train_n, args.seed, _TRAIN_SPLIT)
    if args.train_noise_sigma > 0.0:
        train_data = add_gaussian_noise(train_data, args.train_noise_sigma, make_rng(args.seed, STAGE_NOISE, _TRAIN_SPLIT))
    test_data = _load_split(args, "test", args.classes)
    if test_data is not None:
        test_data = _subsample(test_data, args.test_n, args.seed, _TEST_SPLIT)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config(out_dir / "run_config.json", args)

    logger.info("training %s on %d samples for %d iterations", shape.dims, train_data.n, hp.K)
    state, report = train(
        train_data, shape, hp,
        rng=make_rng(args.seed, STAGE_INIT),
        cg_cfg=CgConfig(tol=args.cg_tol, max_iters=args.cg_max_iters),
        init_scale=args.scale,
        derive_beta=args.derive_beta,
        early_stop_tol=args.early_stop_tol,
        batch_size=args.batch_size,
        warmup_epochs=args.warmup_epochs,
        warmup_batch=args.warmup_batch,
        shuffle_rng=make_rng(args.seed, STAGE_SHUFFLE, 2),
    )

    ckpt = Path(args.checkpoint) if args.checkpoint else out_dir / "checkpoint.bin"
    save_checkpoint(state, shape, hp, ckpt)
    report.to_csv(out_dir / "report.csv")
    splits = [("train", train_data)] + ([("test", test_data)] if test_data is not None else [])
    rows = _metrics_rows(state.W, splits)
    write_metrics_csv(out_dir / "metrics.csv", rows)
    for row in rows:
        print(f"{row[0]} error {row[1]:.6f}  fil_num {row[2]}  par_num {row[3]}  flops {row[4]:.0f}")
    print(f"final F {report.records[-1].f:.8g} after {report.records[-1].k} iterations")
    return EXIT_OK


def cmd_eval(args):
    state, shape, _ = load_checkpoint(args.checkpoint)
    splits = []
    for split in ("train", "test"):
        if args.split in (split, "both"):
            data = _load_split(args, split, args.classes)
            if data is None:
                raise ValueError(f"no data given for requested split {split!r}")
            n = getattr(args, f"{split}_n")
            data = _subsample(data, n, args.seed, _TRAIN_SPLIT if split == "train" else _TEST_SPLIT)
            if data.input_dim != shape.dims[0] or data.num_classes != shape.dims[-1]:
                raise ValueError(
                    f"checkpoint architecture {shape.dims} does not fit data "
                    f"({data.input_dim} features, {data.num_classes} classes)"
                )
            splits.append((split, data))
    rows = _metrics_rows(state.W, splits)
    if args.out:
        write_metrics_csv(args.out, rows)
    for row in rows:
        print(f"{row[0]} error {row[1]:.6f}  fil_num {row[2]}  par_num {row[3]}  flops {row[4]:.0f}")
    return EXIT_OK


def cmd_robustness(args):
    state, shape, _ = load_checkpoint(args.checkpoint)
    data = _load_split(args, "test", args.classes)
    if data is None:
        raise ValueError("test data is required (--test-images/--test-labels or --test-csv)")
    data = _subsample(data, args.test_n, args.seed, _TEST_SPLIT)
    if data.input_dim != shape.dims[0] or data.num_classes != shape.dims[-1]:
        raise ValueError(f"checkpoint architecture {shape.dims} does not fit the test data")

    rows = []
    for i, sigma in enumerate(_parse_sigmas(args.sigmas)):
        noisy = add_gaussian_noise(data, sigma, make_rng(args.seed, STAGE_NOISE, i), clamp=args.clamp)
        err = evaluate(state.W, noisy).error_rate
        rows.append((sigma, err))
        print(f"sigma {sigma:g}: error {err:.6f}")
    out = Path(args.out)
    with open(out, "w", newline="") as f:
        f.write("sigma,error\n")
        for sigma, err in rows:
            f.write(f"{sigma:.17g},{err:.17g}\n")
    return EXIT_OK


def cmd_inspect(args):
    state, shape, hp = load_checkpoint(args.checkpoint)
    n = state.U[0].shape[1]
    print(f"architecture {shape.dims}  (h={shape.h}, N={n})")
    print(f"hyperparams tau={hp.tau:g} pi={hp.pi:g} gamma={hp.gamma:g} lam={hp.lam:g} "
          f"beta={hp.beta:g} L={hp.L} K={hp.K}")
    for i, w in enumerate(state.W):
        zero_cols = np.flatnonzero(~np.any(w != 0.0, axis=0))
        pattern = ",".join(map(str, zero_cols[:16])) + ("..." if zero_cols.size > 16 else "")
        print(f"W[{i}] {w.shape[0]}x{w.shape[1]}: {zero_cols.size} pruned columns"
              + (f" [{pattern}]" if zero_cols.size else ""))
    print(f"filter_count outgoing={filter_count(state.W, 'outgoing')} "
          f"incoming={filter_count(state.W, 'incoming')}")
    print(f"param_count raw={param_count(state.W)} pruned={param_count(state.W, count_pruned=False)}")
    print(f"flops_estimate {flops_estimate(state.W):.0f}")
    return EXIT_OK


def _write_config(path, args):
    payload = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepbcd",
        description="Train and evaluate step-activated networks with block coordinate descent.",
    )
    parser.add_argument("--verbose", "-v", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and write checkpoint + CSV artifacts")
    p_train.add_argument("--config", help="JSON file of flag defaults (as echoed by a previous run)")
    _add_data_args(p_train, "train")
    _add_data_args(p_train, "test")
    p_train.add_argument("--classes", type=int, default=10)
    p_train.add_argument("--arch", default="784,2000,2000,10", help="comma-separated layer widths")
    p_train.add_argument("--train-n", type=int, default=None, help="subsample size after seeded shuffle")
    p_train.add_argument("--test-n", type=int, default=None)
    p_train.add_argument("--tau", type=float, default=1e-6)
    p_train.add_argument("--pi", type=float, default=1e-7)
    p_train.add_argument("--gamma", type=float, default=1e-8)
    p_train.add_argument("--lambda", dest="lam", type=float, default=0.052)
    p_train.add_argument("--beta", type=float, default=0.00072)
    p_train.add_argument("--l", type=int, default=1, help="inner proximal-gradient iterations")
    p_train.add_argument("--k", type=int, default=35, help="outer iterations")
    p_train.add_argument("--eps-tiny", type=float, default=1e-10)
    p_train.add_argument("--scale", type=float, default=0.01, help="Gaussian init std")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--cg-tol", type=float, default=1e-8,
                         help="per-column relative residual the V solve must meet, on its Woodbury and CG paths")
    p_train.add_argument("--cg-max-iters", type=int, default=None,
                         help="CG iteration cap (default 10x width); CG solves square or widening "
                              "layers, and narrower ones when Woodbury misses --cg-tol")
    p_train.add_argument("--derive-beta", action="store_true",
                         help="use 0.9/(tau*||V||^2+gamma) per weight block instead of --beta")
    p_train.add_argument("--early-stop-tol", type=float, default=None)
    p_train.add_argument("--batch-size", type=int, default=None, help="mini-batch mode (default full batch)")
    p_train.add_argument("--warmup-epochs", type=int, default=0)
    p_train.add_argument("--warmup-batch", type=int, default=256)
    p_train.add_argument("--train-noise-sigma", type=float, default=0.0,
                         help="corrupt training inputs (noise is test-only by default)")
    p_train.add_argument("--out-dir", default="run_out")
    p_train.add_argument("--checkpoint", default=None, help="checkpoint path (default <out-dir>/checkpoint.bin)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on train/test splits")
    p_eval.add_argument("--checkpoint", required=True)
    _add_data_args(p_eval, "train")
    _add_data_args(p_eval, "test")
    p_eval.add_argument("--classes", type=int, default=10)
    p_eval.add_argument("--split", choices=("train", "test", "both"), default="test")
    p_eval.add_argument("--train-n", type=int, default=None)
    p_eval.add_argument("--test-n", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None, help="optional metrics CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_rob = sub.add_parser("robustness", help="noise sweep on the test split")
    p_rob.add_argument("--checkpoint", required=True)
    _add_data_args(p_rob, "test")
    p_rob.add_argument("--classes", type=int, default=10)
    p_rob.add_argument("--test-n", type=int, default=None)
    p_rob.add_argument("--sigmas", default="0,0.1,0.2,0.4")
    p_rob.add_argument("--seed", type=int, default=0)
    p_rob.add_argument("--no-clamp", dest="clamp", action="store_false",
                       help="leave noisy pixels outside [0, 1]")
    p_rob.add_argument("--out", default="robustness.csv")
    p_rob.set_defaults(func=cmd_robustness)

    p_ins = sub.add_parser("inspect", help="print checkpoint shape and sparsity statistics")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # Resolve --config first so its values act as defaults for the real parse.
    if "--config" in argv:
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--config")
        known, _ = probe.parse_known_args(argv)
        if known.config:
            try:
                with open(known.config) as f:
                    stored = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                print(f"error: cannot read config {known.config}: {e}", file=sys.stderr)
                return EXIT_USAGE
            for action in _train_parser_actions(parser):
                if action.dest in stored:
                    action.default = stored[action.dest]
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CgError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (IdxFormatError, CheckpointError, FileNotFoundError, IsADirectoryError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _train_parser_actions(parser):
    for action in parser._subparsers._group_actions:
        train_parser = action.choices.get("train")
        if train_parser is not None:
            return train_parser._actions
    return []


if __name__ == "__main__":
    sys.exit(main())
