"""Gradient-free training of 0/1 step-activated dense networks.

The optimizer is a block coordinate descent over a penalty reformulation of
the network fit: every sub-problem is solved in closed form (hardmax prox,
entrywise step prox, rowwise hard thresholding) or by conjugate gradients
seeded with a Woodbury solve, so no derivative of the discontinuous
activation is ever needed.  Column sparsity from the group regularizer
prunes whole hidden units.
"""

from .core import (
    Hyperparams,
    NetworkShape,
    TrainState,
    forward_blocks,
    init_gaussian,
    make_rng,
)
from .dataio import (
    Dataset,
    add_gaussian_noise,
    load_checkpoint,
    load_csv_dataset,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
)
from .metrics import (
    EvalResult,
    evaluate,
    filter_count,
    flops_estimate,
    param_count,
    predict_classes,
)
from .prox import (
    hardmax_columns,
    norm_l20,
    prox_hardmax_matrix,
    prox_l20_rows,
    prox_step_matrix,
    step,
)
from .solvers import (
    CgError,
    cg_solve,
    grad_psi,
    pgm,
    solve_v,
    spectral_norm,
)
from .trainer import BcdRecord, BcdReport, bcd_iteration, objective_f, train

__version__ = "0.1.0"
