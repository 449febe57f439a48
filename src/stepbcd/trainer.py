"""Outer block-coordinate loop, penalty objective, and descent monitoring.

One outer iteration sweeps the blocks from the output layer inward:
the output pre-activation (hardmax prox), the output weights (proximal
gradient), then for each hidden layer the state solve (Woodbury below a
narrower layer, CG otherwise), the pre-activation fit (entrywise step
prox), and the weights.  Every
sub-problem consumes exactly the iterate versions the update scheme
prescribes: the pre-activation targets ``b = W_i V_(i-1)`` always use the
not-yet-updated weights and states from the previous sweep.

Each iterate's products ``W_i V_(i-1)`` are computed once: ``train``
computes them for the objective's coupling penalty and carries them into
the next sweep as its ``b`` targets.  After a forward pass (the init, a
mini-batch, the state re-derived after a mini-batch epoch) they are the
``U`` blocks themselves.  The carried products are read-only and may alias
``state.U``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .core import TrainState, forward_blocks, init_gaussian
from .dataio import write_csv
from .prox import hardmax_columns, norm_l20, prox_hardmax_matrix, prox_step_matrix, step
from .solvers import CgConfig, pgm, solve_v, spectral_norm

__all__ = [
    "BcdRecord",
    "BcdReport",
    "objective_f",
    "bcd_iteration",
    "train",
    "check_descent",
]

logger = logging.getLogger(__name__)

# ``train``'s init scale and warm-up batch size; the CLI's --scale and
# --warmup-batch default to them.
DEFAULT_INIT_SCALE = 0.01
DEFAULT_WARMUP_BATCH = 256

REPORT_FIELDS = ("k", "F", "loss", "l20", "frob", "upen", "vpen", "dW", "dV", "seconds")


@dataclass(frozen=True)
class BcdRecord:
    """One outer-iteration snapshot: objective breakdown and block motion.

    ``dw``/``dv`` are the summed squared Frobenius changes of the weight
    and state blocks relative to the previous iterate.
    """

    k: int
    f: float
    loss: float
    l20: float
    frob: float
    upen: float
    vpen: float
    dw: float
    dv: float
    seconds: float

    def row(self):
        return (self.k, self.f, self.loss, self.l20, self.frob, self.upen, self.vpen, self.dw, self.dv, self.seconds)


@dataclass
class BcdReport:
    """Per-iteration records; row 0 is the initial state."""

    records: list[BcdRecord]

    def to_csv(self, path):
        write_csv(path, REPORT_FIELDS, (rec.row() for rec in self.records))

    @property
    def f_values(self):
        return [rec.f for rec in self.records]


def _layer_input(state, data, i):
    """Input of weight layer i: the data matrix for i = 0, else ``V_(i-1)``."""
    return data.X if i == 0 else state.V[i - 1]


def _coupling_products(state, data):
    """The coupling products ``W_i V_(i-1)`` of every layer, input layer first."""
    return [w @ _layer_input(state, data, i) for i, w in enumerate(state.W)]


def objective_f(state, data, hp, b=None):
    """Penalty objective and its term breakdown.

    F = (1/2N) ||Y - hardmax(U_h)||^2
        + sum_i (lam * nnz_cols(W_i) + (gamma/2) ||W_i||^2)
        + (tau/2) sum_i ||U_i - W_i V_(i-1)||^2
        + (pi/2) sum_(i<h) ||V_i - step(U_i)||^2

    Returns ``(F, terms)`` with terms keyed loss/l20/frob/upen/vpen.
    ``b`` holds the products ``W_i V_(i-1)`` when the caller has them
    (read-only); they are computed here when absent.
    """
    h = len(state.W)
    n = data.X.shape[1]
    if state.U[-1].shape != data.Y.shape:
        raise ValueError(f"output block {state.U[-1].shape} does not match labels {data.Y.shape}")

    diff = data.Y - hardmax_columns(state.U[-1])
    loss = 0.5 / n * float((diff * diff).sum())
    l20 = hp.lam * sum(norm_l20(w) for w in state.W)
    frob = 0.5 * hp.gamma * sum(float((w * w).sum()) for w in state.W)

    if b is None:
        b = _coupling_products(state, data)
    upen = 0.0
    for u, wv in zip(state.U, b):
        r = u - wv
        upen += float((r * r).sum())
    upen *= 0.5 * hp.tau

    vpen = 0.0
    for i in range(h - 1):
        r = state.V[i] - step(state.U[i])
        vpen += float((r * r).sum())
    vpen *= 0.5 * hp.pi

    terms = {"loss": loss, "l20": l20, "frob": frob, "upen": upen, "vpen": vpen}
    return loss + l20 + frob + upen + vpen, terms


def _pgm_update(u_new, v_old, w_old, hp, derive_beta):
    """Weight-block step in the transposed frame (rows = columns of W)."""
    beta = hp.beta
    if derive_beta:
        sigma = spectral_norm(v_old)
        beta = 0.9 / (hp.tau * sigma * sigma + hp.gamma)
    return pgm(u_new.T, v_old.T, w_old.T, hp.tau, hp.gamma, hp.lam, hp.L, beta).T


def bcd_iteration(state, data, hp, cg_cfg=None, derive_beta=False, b=None):
    """One outer sweep; returns a new state without mutating the input.

    Update order for h layers: U_h, W_h, then for i = h-1 down to 1 the
    triple V_i, U_i, W_i.  Staleness discipline: each ``b = W_i V_(i-1)``
    target and each PGM data matrix ``V_(i-1)`` uses the previous sweep's
    values; the state solve for V_i uses the just-updated W_(i+1), U_(i+1)
    and the previous U_i.

    ``b`` lists those targets, input layer first.  ``train`` carries them
    from the previous iterate's objective, or passes ``state.U`` itself
    when the state is a forward pass; they are computed here when absent.
    ``b`` is read-only and may alias ``state.U``.
    """
    if cg_cfg is None:
        cg_cfg = CgConfig()
    if b is None:
        b = _coupling_products(state, data)
    h = len(state.W)
    new_w = list(state.W)
    new_u = list(state.U)
    new_v = list(state.V)

    for i in range(h - 1, -1, -1):
        if i == h - 1:
            new_u[i] = prox_hardmax_matrix(b[i], data.Y, hp.tau)
        else:
            new_v[i] = solve_v(new_w[i + 1], new_u[i + 1], state.U[i], hp.tau, hp.pi, cg_cfg, v_init=state.V[i])
            new_u[i] = prox_step_matrix(new_v[i], b[i], hp.tau, hp.pi)
        new_w[i] = _pgm_update(new_u[i], _layer_input(state, data, i), state.W[i], hp, derive_beta)

    return TrainState(new_w, new_u, new_v)


def _sq_diff(new, old):
    return sum(float(((a - b) ** 2).sum()) for a, b in zip(new, old))


def _record(k, state, data, hp, dw, dv, seconds, b):
    f, terms = objective_f(state, data, hp, b)
    return BcdRecord(k, f, terms["loss"], terms["l20"], terms["frob"], terms["upen"], terms["vpen"], dw, dv, seconds)


def _count_tied_output_columns(b_top):
    return int(((b_top == b_top.max(axis=0, keepdims=True)).sum(axis=0) > 1).sum())


def _epoch_over_batches(state, data, hp, cg_cfg, derive_beta, batch_size, perm):
    """Stateless mini-batch pass: W persists, batch U/V start from a forward pass."""
    w = state.W
    for start in range(0, data.n, batch_size):
        batch = data.subset(perm[start:start + batch_size])
        u, v = forward_blocks(w, batch.X)
        batch_state = TrainState(list(w), u, v)
        batch_state = bcd_iteration(batch_state, batch, hp, cg_cfg, derive_beta, b=u)
        w = batch_state.W
    u, v = forward_blocks(w, data.X)
    return TrainState(w, u, v)


def train(data, shape, hp, rng, cg_cfg=None, init_scale=DEFAULT_INIT_SCALE,
          derive_beta=False, early_stop_tol=None, batch_size=None,
          warmup_epochs=0, warmup_batch=DEFAULT_WARMUP_BATCH, shuffle_rng=None):
    """Initialize and run K outer iterations; returns ``(state, report)``.

    Full-batch by default.  With ``batch_size`` set, each outer iteration
    is one epoch over seeded-shuffled batches with the weight blocks
    carried across batches and the U/V blocks re-derived per batch by a
    forward pass (the report rows are then computed on the re-derived
    full-data state, so the coupling penalties read zero by construction).
    ``warmup_epochs`` runs that mini-batch scheme with ``warmup_batch`` for
    the first iterations regardless of mode; default off.
    """
    if shape.dims[0] != data.X.shape[0]:
        raise ValueError(f"architecture input width {shape.dims[0]} != data dim {data.X.shape[0]}")
    if shape.dims[-1] != data.Y.shape[0]:
        raise ValueError(f"architecture output width {shape.dims[-1]} != label dim {data.Y.shape[0]}")
    for name, bs in (("batch_size", batch_size), ("warmup_batch", warmup_batch)):
        if bs is not None and bs < 1:
            raise ValueError(f"{name} must be at least 1, got {bs}")
    if (batch_size is not None or warmup_epochs > 0) and shuffle_rng is None:
        shuffle_rng = rng.spawn(1)[0]

    state = init_gaussian(shape, init_scale, rng, data.X)
    state.check_consistent(shape, data.X.shape[1])
    # The coupling products of the current iterate: the objective's upen,
    # the next sweep's b targets and the final tie count all read them.
    # A forward-pass state's products are its U blocks.
    b = state.U
    records = [_record(0, state, data, hp, 0.0, 0.0, 0.0, b)]

    for k in range(1, hp.K + 1):
        t0 = time.perf_counter()
        bs = warmup_batch if k <= warmup_epochs else batch_size
        if bs is not None:
            perm = shuffle_rng.permutation(data.X.shape[1])
            new_state = _epoch_over_batches(state, data, hp, cg_cfg, derive_beta, int(bs), perm)
        else:
            new_state = bcd_iteration(state, data, hp, cg_cfg, derive_beta, b)
        b = None  # release the spent products before the new ones exist
        dw = _sq_diff(new_state.W, state.W)
        dv = _sq_diff(new_state.V, state.V)
        state = new_state
        state.check_finite()
        seconds = time.perf_counter() - t0
        b = state.U if bs is not None else _coupling_products(state, data)
        records.append(_record(k, state, data, hp, dw, dv, seconds, b))
        logger.debug("iteration %d: F=%.6g dW=%.3g dV=%.3g", k, records[-1].f, dw, dv)
        if early_stop_tol is not None and abs(records[-1].f - records[-2].f) < early_stop_tol:
            logger.info("early stop at iteration %d: |dF| < %g", k, early_stop_tol)
            break

    tied = _count_tied_output_columns(b[-1])
    if tied:
        logger.warning("%d output columns have tied maxima at the final iterate", tied)
    return state, BcdReport(records)


def check_descent(report, hp, tol=1e-9):
    """Check the per-iteration descent inequality

        F(k+1) - F(k) <= -((gamma - 1/beta)/2) * dW - (pi/2) * dV + tol.

    Returns ``(ok, worst_violation)``.  The bound is only guaranteed when
    gamma >= 1/beta and the weight sub-problems are solved to their fixed
    points, so this is a diagnostic, never an assertion; callers in the
    theory-compliant regime may assert on ``ok``.
    """
    if not report.records:
        raise ValueError("empty report")
    coeff = 0.5 * (hp.gamma - 1.0 / hp.beta)
    worst = -np.inf
    for prev, cur in zip(report.records, report.records[1:]):
        bound = -coeff * cur.dw - 0.5 * hp.pi * cur.dv
        worst = max(worst, (cur.f - prev.f) - bound)
    if worst == -np.inf:
        worst = 0.0
    return bool(worst <= tol), float(worst)
