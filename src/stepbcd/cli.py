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
    add_gaussian_noise,
    load_checkpoint,
    load_csv_dataset,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
    write_csv,
)
from .metrics import METRICS_FIELDS, evaluate, filter_count, flops_estimate, param_count
from .solvers import CgError
from .trainer import DEFAULT_INIT_SCALE, DEFAULT_WARMUP_BATCH, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

logger = logging.getLogger(__name__)


def _parse_arch(text):
    return NetworkShape(tuple(int(p) for p in text.split(",")))


def _arch_text(text):
    """``--arch`` type: the text as given, once it parses to a NetworkShape."""
    try:
        _parse_arch(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"invalid layer widths {text!r}: {e}") from None
    return text


def _positive_int(text):
    """Argparse type for a count or size: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonnegative_int(text):
    """Argparse type for an epoch count or a seed: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _positive_float(text):
    """Argparse type for a scale: a finite number above 0."""
    value = float(text)
    if not (value > 0.0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _nonnegative_float(text):
    """Argparse type for a noise level or tolerance: a finite number of at least 0."""
    value = float(text)
    if not (value >= 0.0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite nonnegative number")
    return value


def _sigma_list(text):
    """Argparse type for ``--sigmas``: comma-separated finite nonnegative noise levels."""
    try:
        return [_nonnegative_float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None


def _add_data_args(p, *splits):
    """The flags ``_load_split`` reads for each of ``splits``."""
    for split in splits:
        p.add_argument(f"--{split}-images", help=f"IDX image file for the {split} split")
        p.add_argument(f"--{split}-labels", help=f"IDX label file for the {split} split")
        p.add_argument(f"--{split}-csv", help=f"CSV file (features..., label) for the {split} split")
        p.add_argument(f"--{split}-n", type=_positive_int, default=None,
                       help=f"{split} subsample size after seeded shuffle")
    p.add_argument("--seed", type=_nonnegative_int, default=0)


def _load_split(args, split, shape, required):
    """The ``split`` ("train" or "test") its flags name, or None if absent and not required.

    ``--{split}-n`` keeps that many samples, drawn on the split's own shuffle
    sub-stream (train 0, test 1).  Labels name one of the ``shape.dims[-1]`` output units; a
    label that does not, a split with no samples, a feature count other than ``shape.dims[0]``,
    or a ``--{split}-n`` above the split's size raises ValueError.
    """
    images = getattr(args, f"{split}_images")
    labels = getattr(args, f"{split}_labels")
    csv_path = getattr(args, f"{split}_csv")
    if csv_path is not None and (images is not None or labels is not None):
        raise ValueError(f"--{split}-csv and --{split}-images/--{split}-labels name two sources; give one")
    if csv_path is not None:
        data = load_csv_dataset(csv_path, shape.dims[-1])
    elif images is not None and labels is not None:
        data = to_dataset(load_idx_images(images), load_idx_labels(labels), shape.dims[-1], f"{labels}: ")
    elif images is not None or labels is not None:
        raise ValueError(f"--{split}-images and --{split}-labels must be given together")
    elif required:
        raise ValueError(f"{split} data is required (--{split}-images/--{split}-labels or --{split}-csv)")
    else:
        return None
    if data.n == 0:
        raise ValueError(f"empty split: the {split} data holds no samples")
    if data.input_dim != shape.dims[0]:
        raise ValueError(f"architecture {shape.dims} does not fit the {split} data ({data.input_dim} features)")
    n = getattr(args, f"{split}_n")
    if n is not None and n > data.n:
        raise ValueError(f"--{split}-n {n} exceeds the {data.n} samples of the {split} split")
    if n is not None and n < data.n:
        perm = make_rng(args.seed, STAGE_SHUFFLE, ("train", "test").index(split)).permutation(data.n)
        data = data.subset(np.sort(perm[:n]))
    return data


def _report_metrics(w_list, splits, out):
    """Print the metrics row of each ``(name, data)`` split; write the rows as CSV to ``out`` if given."""
    fil = filter_count(w_list)
    par = param_count(w_list, count_pruned=False)
    flops = flops_estimate(w_list)
    rows = [(name, evaluate(w_list, data).error_rate, fil, par, flops) for name, data in splits]
    if out:
        write_csv(out, METRICS_FIELDS, rows)
    for name, error, *_ in rows:
        print(f"{name} error {error:.6f}  fil_num {fil}  par_num {par}  flops {flops:.0f}")


def _hyperparams(args):
    """The train flags' hyperparameters; ``Hyperparams`` rejects a value out of range."""
    return Hyperparams(tau=args.tau, pi=args.pi, gamma=args.gamma, lam=args.lam,
                       beta=args.beta, L=args.l, K=args.k)


def cmd_train(args):
    shape = _parse_arch(args.arch)
    hp = _hyperparams(args)
    train_data = _load_split(args, "train", shape, required=True)
    test_data = _load_split(args, "test", shape, required=False)
    if args.train_noise_sigma > 0.0:
        train_data = add_gaussian_noise(train_data, args.train_noise_sigma, make_rng(args.seed, STAGE_NOISE, 0))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config(out_dir / "run_config.json", args)

    logger.info("training %s on %d samples for %d iterations", shape.dims, train_data.n, hp.K)
    state, report = train(
        train_data, shape, hp,
        rng=make_rng(args.seed, STAGE_INIT),
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
    _report_metrics(state.W, splits, out_dir / "metrics.csv")
    print(f"final F {report.records[-1].f:.8g} after {report.records[-1].k} iterations")
    return EXIT_OK


def cmd_eval(args):
    state, shape, _ = load_checkpoint(args.checkpoint)
    splits = [(split, _load_split(args, split, shape, required=True))
              for split in ("train", "test") if args.split in (split, "both")]
    _report_metrics(state.W, splits, args.out)
    return EXIT_OK


def cmd_robustness(args):
    state, shape, _ = load_checkpoint(args.checkpoint)
    data = _load_split(args, "test", shape, required=True)

    rows = []
    for i, sigma in enumerate(args.sigmas):
        noisy = add_gaussian_noise(data, sigma, make_rng(args.seed, STAGE_NOISE, i), clamp=args.clamp)
        err = evaluate(state.W, noisy).error_rate
        rows.append((sigma, err))
        print(f"sigma {sigma:g}: error {err:.6f}")
    write_csv(args.out, ("sigma", "error"), rows)
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


def _train_flags():
    """A parser holding only the train command's flags."""
    p = argparse.ArgumentParser(exit_on_error=False)
    _add_train_args(p)
    return p


def _write_config(path, args):
    """Echo the train flags, the keys ``_read_config`` replays, as JSON."""
    payload = {k: getattr(args, k) for k in vars(_train_flags().parse_args([]))}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_config(path):
    """Train-flag defaults from a JSON object such as run_config.json; other keys are ignored.

    Values reach argparse as text, so each flag's type parses them as it
    parses the command line; null and true/false only where the flag's own
    default is.  A value its flag or ``Hyperparams`` rejects raises
    ValueError naming the file.
    """
    try:
        with open(path) as f:
            stored = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config {path}: {e}") from e
    if not isinstance(stored, dict):
        raise ValueError(f"config {path} holds a JSON {type(stored).__name__}, not an object")
    check = _train_flags()
    flags = vars(check.parse_args([]))
    defaults = {}
    for key, value in stored.items():
        if key not in flags:
            continue
        default = flags[key]
        if (value is None and default is not None) or isinstance(value, bool) != isinstance(default, bool):
            raise ValueError(f"config {path}: {key} cannot be {json.dumps(value)}")
        defaults[key] = value if value is None or isinstance(value, bool) else str(value)
    check.set_defaults(**defaults)
    try:
        _hyperparams(check.parse_args([]))
    except (argparse.ArgumentError, ValueError) as e:
        raise ValueError(f"config {path}: {e}") from e
    return defaults


def _add_train_args(p):
    """The train command's flags; hyperparameter and init defaults are the library's."""
    hp = Hyperparams()
    _add_data_args(p, "train", "test")
    p.add_argument("--arch", type=_arch_text, default="784,2000,2000,10", help="comma-separated layer widths")
    p.add_argument("--tau", type=float, default=hp.tau)
    p.add_argument("--pi", type=float, default=hp.pi)
    p.add_argument("--gamma", type=float, default=hp.gamma)
    p.add_argument("--lambda", dest="lam", type=float, default=hp.lam)
    p.add_argument("--beta", type=float, default=hp.beta)
    p.add_argument("--l", type=int, default=hp.L, help="inner proximal-gradient iterations")
    p.add_argument("--k", type=int, default=hp.K, help="outer iterations")
    p.add_argument("--scale", type=_positive_float, default=DEFAULT_INIT_SCALE, help="Gaussian init std")
    p.add_argument("--derive-beta", action="store_true",
                   help="use 0.9/(tau*||V||^2+gamma) per weight block instead of --beta")
    p.add_argument("--early-stop-tol", type=_nonnegative_float, default=None,
                   help="stop once |F(k) - F(k-1)| falls below this")
    p.add_argument("--batch-size", type=_positive_int, default=None, help="mini-batch mode (default full batch)")
    p.add_argument("--warmup-epochs", type=_nonnegative_int, default=0)
    p.add_argument("--warmup-batch", type=_positive_int, default=DEFAULT_WARMUP_BATCH)
    p.add_argument("--train-noise-sigma", type=_nonnegative_float, default=0.0,
                   help="corrupt training inputs (noise is test-only by default)")
    p.add_argument("--out-dir", default="run_out")
    p.add_argument("--checkpoint", default=None, help="checkpoint path (default <out-dir>/checkpoint.bin)")


def build_parser(train_defaults=None):
    """The ``stepbcd`` parser; ``train_defaults`` (from ``_read_config``) override train's flag defaults."""
    parser = argparse.ArgumentParser(
        prog="stepbcd",
        description="Train and evaluate step-activated networks with block coordinate descent.",
    )
    parser.add_argument("--verbose", "-v", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and write checkpoint + CSV artifacts")
    p_train.add_argument("--config", help="JSON file of flag defaults (as echoed by a previous run)")
    _add_train_args(p_train)
    p_train.set_defaults(func=cmd_train, **(train_defaults or {}))

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on train/test splits")
    p_eval.add_argument("--checkpoint", required=True)
    _add_data_args(p_eval, "train", "test")
    p_eval.add_argument("--split", choices=("train", "test", "both"), default="test")
    p_eval.add_argument("--out", default=None, help="optional metrics CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_rob = sub.add_parser("robustness", help="noise sweep on the test split")
    p_rob.add_argument("--checkpoint", required=True)
    _add_data_args(p_rob, "test")
    p_rob.add_argument("--sigmas", type=_sigma_list, default="0,0.1,0.2,0.4",
                       help="comma-separated finite nonnegative noise levels")
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
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "train" and args.config:
            # The config's values become train's defaults; command-line flags still win.
            args = build_parser(_read_config(args.config)).parse_args(argv)
        return args.func(args)
    except (CgError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
