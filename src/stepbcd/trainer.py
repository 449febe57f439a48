"""Outer block-coordinate loop and penalty objective.

One outer iteration sweeps the blocks from the output layer inward:
the output pre-activation (hardmax prox), the output weights (proximal
gradient), then for each hidden layer the state solve (CG, seeded by
Woodbury below a narrower layer), the pre-activation fit (entrywise step
prox), and the weights.  Every sub-problem consumes exactly the iterate
versions the update scheme prescribes: the pre-activation targets
``b = W_i V_(i-1)`` always use the not-yet-updated weights and states from
the previous sweep.

Each iterate's products ``W_i V_(i-1)`` are computed once.  Every outer
iteration, a full-batch sweep (``bcd_iteration``) or a mini-batch epoch,
updates the state in place and returns ``(dW, dV, b)``: the summed block
motions and the new iterate's products.  ``train`` reads ``b`` for the
objective's coupling penalty and hands it to the next sweep as its
targets, where the ``U_i`` prox reads each one and the ``W_i`` step's
first gradient reuses its buffer as the residual.  A step prox that
provably keeps every entry returns the target itself as the new ``U_i``;
the ``W_i`` step then takes its first residual as zero, forms none, and
leaves that buffer, now ``U_i``, as it is.  Each state solve hands on
``W_(i+1) V_i`` of the new iterate; where it keeps a square layer's start,
that is the product its check was made from, the one ``d x d x N``
product the solve forms.  ``bcd_iteration`` forms only ``W_0 X``.  After
a forward pass (the init, a mini-batch, the state re-derived after a
mini-batch epoch) the products are the ``U`` blocks themselves.

Every sweep, full-batch or per mini-batch, runs the one private sweep.  A
sweep runs in place: each block is replaced in the state's own lists as
soon as its update is made, and each target is dropped from ``b`` once
its prox has read it, so a sweep holds one state, not an old and a new
one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .core import TrainState, forward_blocks, init_gaussian
from .dataio import write_csv
from .prox import _hardmax_gap_miss, norm_l20, prox_hardmax_matrix, prox_step_matrix, step
from .solvers import pgm, solve_v, spectral_norm

__all__ = [
    "BcdRecord",
    "BcdReport",
    "objective_f",
    "bcd_iteration",
    "train",
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
    (read-only); they are computed here when absent.  Each difference is
    squared in its own buffer.
    """
    h = len(state.W)
    n = data.X.shape[1]
    if state.U[-1].shape != data.Y.shape:
        raise ValueError(f"output block {state.U[-1].shape} does not match labels {data.Y.shape}")

    loss = 0.5 / n * float(_hardmax_gap_miss(state.U[-1], data.labels())[1].sum())
    l20 = hp.lam * sum(norm_l20(w) for w in state.W)
    frob = 0.5 * hp.gamma * sum(float((w * w).sum()) for w in state.W)

    if b is None:
        b = _coupling_products(state, data)
    upen = 0.0
    for u, wv in zip(state.U, b):
        r = u - wv
        r *= r
        upen += float(r.sum())
    upen *= 0.5 * hp.tau

    vpen = 0.0
    for i in range(h - 1):
        r = step(state.U[i])
        np.subtract(state.V[i], r, out=r)
        r *= r
        vpen += float(r.sum())
    vpen *= 0.5 * hp.pi

    terms = {"loss": loss, "l20": l20, "frob": frob, "upen": upen, "vpen": vpen}
    return loss + l20 + frob + upen + vpen, terms


def _pgm_update(u_new, v_old, w_old, hp, derive_beta, wv_old):
    """Weight-block step in the transposed frame (rows = columns of W).

    ``wv_old`` is the product ``w_old @ v_old``; the first gradient
    overwrites it, unless it is ``u_new`` itself (the prox kept it).  Then
    the first residual is zero, and ``pgm`` is told so by the one
    transposed view passed as both target and product, since two
    transposes would hide the identity.
    """
    beta = hp.beta
    if derive_beta:
        sigma = spectral_norm(v_old)
        beta = 0.9 / (hp.tau * sigma * sigma + hp.gamma)
    ut = u_new.T
    vw = ut if wv_old is u_new else wv_old.T
    return pgm(ut, v_old.T, w_old.T, hp.tau, hp.gamma, hp.lam, hp.L, beta, vw).T


def _sq_motion(new, old):
    """Squared Frobenius distance of one block from its previous value;
    a block kept as the same array has not moved."""
    if new is old:
        return 0.0
    d = new - old
    d *= d
    return float(d.sum())


def _sq_diff(new, old):
    return sum(_sq_motion(a, b) for a, b in zip(new, old))


def bcd_iteration(state, data, hp, derive_beta=False, b=None):
    """One outer sweep in place; returns ``(dW, dV, b)``: the squared block
    motions and the new iterate's products ``W_i V_(i-1)``, input layer first.

    Update order for h layers: U_h, W_h, then for i = h-1 down to 1 the
    triple V_i, U_i, W_i.  Staleness discipline: each ``b = W_i V_(i-1)``
    target and each PGM data matrix ``V_(i-1)`` uses the previous sweep's
    values; the state solve for V_i uses the just-updated W_(i+1), U_(i+1)
    and the previous U_i.

    Each block is replaced in ``state``'s own lists as soon as its update is
    made, so its old value is released once superseded; a caller that needs
    the previous iterate takes ``state.copy()`` first.  The sweep runs top
    down, so every block the scheme reads stale (``U_i``, ``V_i``, ``W_i``,
    ``V_(i-1)``) is read before it is replaced.

    ``b`` lists the targets, input layer first: the products this call
    returned for the previous iterate, or ``state.U`` itself when the state
    is a forward pass; they are computed here when absent.  The sweep
    consumes the arrays in ``b``, not only its slots: ``b[i]`` is set to
    None once its prox has read it, before ``U_i`` is replaced, so ``b``
    may be ``state.U``, and the array is then handed to the ``W_i`` step,
    whose first gradient overwrites it with its residual.  A step prox that
    keeps every entry returns ``b[i]`` itself as the new ``U_i``; the step
    then knows its first residual is zero and writes nothing.  The motions
    are summed in layer order, as ``_sq_diff`` sums them.

    The returned products have the bits of ``W_i V_(i-1)`` formed afresh:
    each state solve supplies its ``W_(i+1) V_i``, and ``W_0 X`` is formed
    here.
    """
    if b is None:
        b = _coupling_products(state, data)
    dw, dv = [0.0] * len(state.W), [0.0] * len(state.V)
    b = _sweep(state, data, hp, derive_beta, b, dw, dv)
    b[0] = state.W[0] @ data.X
    return sum(dw), sum(dv), b


def _sweep(state, data, hp, derive_beta, b, dw=None, dv=None):
    """``bcd_iteration``'s sweep; returns the new iterate's products with
    slot 0 empty: each state solve hands on its ``W_(i+1) V_i``, and no
    solve forms ``W_0 X``.  ``dw`` and ``dv``, when given, are lists with
    one slot per weight and per state block that receive each block's
    squared motion; a mini-batch epoch reads none and passes neither."""
    h = len(state.W)
    products = [None] * h
    for i in range(h - 1, -1, -1):
        if i == h - 1:
            u = prox_hardmax_matrix(b[i], data.Y, hp.tau)
        else:
            v, products[i + 1] = solve_v(state.W[i + 1], state.U[i + 1], state.U[i], hp.tau, hp.pi, v_init=state.V[i])
            if dv is not None:
                dv[i] = _sq_motion(v, state.V[i])
            state.V[i] = v
            u = prox_step_matrix(v, b[i], hp.tau, hp.pi)
        wv, b[i] = b[i], None
        state.U[i] = u
        w = _pgm_update(u, _layer_input(state, data, i), state.W[i], hp, derive_beta, wv)
        del wv
        if dw is not None:
            dw[i] = _sq_motion(w, state.W[i])
        state.W[i] = w
    return products


def _record(k, state, data, hp, dw, dv, seconds, b):
    f, terms = objective_f(state, data, hp, b)
    return BcdRecord(k, f, terms["loss"], terms["l20"], terms["frob"], terms["upen"], terms["vpen"], dw, dv, seconds)


def _count_tied_output_columns(b_top):
    return int(((b_top == b_top.max(axis=0, keepdims=True)).sum(axis=0) > 1).sum())


def _epoch_over_batches(state, data, hp, derive_beta, batch_size, perm):
    """One mini-batch epoch in place; returns ``(dW, dV, b)`` as
    ``bcd_iteration`` does.  The weights carry across batches, and each
    batch's U/V start from a forward pass.  The new state is the forward
    pass of the trained weights over all of ``data``, so ``b`` is its
    ``U`` list.  No batch's block motions are summed: ``dW`` and ``dV``
    measure the whole epoch's motion."""
    w = list(state.W)
    for start in range(0, data.n, batch_size):
        batch = data.subset(perm[start:start + batch_size])
        u, v = forward_blocks(w, batch.X)
        _sweep(TrainState(w, u, v), batch, hp, derive_beta, u)
    del batch  # else its X stays live through the closing pass and the sums
    u, v = forward_blocks(w, data.X)
    dw, dv = _sq_diff(w, state.W), _sq_diff(v, state.V)
    state.W[:], state.U[:], state.V[:] = w, u, v
    return dw, dv, state.U


def train(data, shape, hp, rng, init_scale=DEFAULT_INIT_SCALE,
          derive_beta=False, early_stop_tol=None, batch_size=None,
          warmup_epochs=0, warmup_batch=DEFAULT_WARMUP_BATCH, shuffle_rng=None):
    """Initialize and run K outer iterations; returns ``(state, report)``.

    Full-batch by default.  With ``batch_size`` set, each outer iteration
    is one epoch over seeded-shuffled batches with the weight blocks
    carried across batches and the U/V blocks re-derived per batch by a
    forward pass (the report rows are then computed on the re-derived
    full-data state, so the coupling penalties read zero by construction).
    ``warmup_epochs`` (at least 0) runs that mini-batch scheme with
    ``warmup_batch`` for the first iterations regardless of mode; default
    off.
    """
    if data.n == 0:
        raise ValueError("training needs at least one sample, got an empty dataset")
    if shape.dims[0] != data.X.shape[0]:
        raise ValueError(f"architecture input width {shape.dims[0]} != data dim {data.X.shape[0]}")
    if shape.dims[-1] != data.Y.shape[0]:
        raise ValueError(f"architecture output width {shape.dims[-1]} != label dim {data.Y.shape[0]}")
    for name, bs in (("batch_size", batch_size), ("warmup_batch", warmup_batch)):
        if bs is not None and bs < 1:
            raise ValueError(f"{name} must be at least 1, got {bs}")
    if warmup_epochs < 0:
        raise ValueError(f"warmup_epochs must be at least 0, got {warmup_epochs}")
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
            dw, dv, b = _epoch_over_batches(state, data, hp, derive_beta, int(bs), shuffle_rng.permutation(data.n))
        else:
            dw, dv, b = bcd_iteration(state, data, hp, derive_beta, b)
        state.check_finite()
        seconds = time.perf_counter() - t0
        records.append(_record(k, state, data, hp, dw, dv, seconds, b))
        logger.debug("iteration %d: F=%.6g dW=%.3g dV=%.3g", k, records[-1].f, dw, dv)
        if early_stop_tol is not None and abs(records[-1].f - records[-2].f) < early_stop_tol:
            logger.info("early stop at iteration %d: |dF| < %g", k, early_stop_tol)
            break

    tied = _count_tied_output_columns(b[-1])
    if tied:
        logger.warning("%d output columns have tied maxima at the final iterate", tied)
    return state, BcdReport(records)

