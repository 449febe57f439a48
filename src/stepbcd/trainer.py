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
product the solve forms, and otherwise one product of the whole new
``V_i``.  ``bcd_iteration`` forms only ``W_0 X``.  After
a forward pass (the init, a mini-batch, the state re-derived after a
mini-batch epoch) the products are the ``U`` blocks themselves.

Every sweep, full-batch or per mini-batch, runs the one private sweep.  A
sweep runs in place: each block is replaced in the state's own lists as
soon as its update is made, and each target is dropped from ``b`` once
its prox has read it, so a sweep holds one state, not an old and a new
one.  Each old block goes once nothing reads it: the state solve reads
the old ``U_i`` only as its boolean pattern ``U_i > 0``, so ``U_i`` is
released before the solve.  A mini-batch epoch reads no old ``U`` or
``V``: it drops both on entry, keeps the old ``V`` only as packed bits,
one per activation, and counts the changed ones for ``dV``; it also
releases the old weights before its closing forward pass.  The state
solve works through chunks of columns and writes the new ``V_i`` into
the old one's buffer, summing its motion ``dV`` as it goes, so it forms
no ``d x N`` block but the product it hands on.
"""

from __future__ import annotations

import logging
import time
from dataclasses import astuple, dataclass

import numpy as np

from .core import TrainState, _is_integer, forward_blocks, init_gaussian
from .dataio import write_csv
from .prox import _hardmax_gap_miss, _row_blocks, norm_l20, prox_hardmax_matrix, prox_step_matrix
from .solvers import _col_sq, pgm, solve_v, spectral_norm

__all__ = [
    "BcdRecord",
    "BcdReport",
    "objective_f",
    "bcd_iteration",
    "train",
]

logger = logging.getLogger(__name__)

# ``train``'s init scale; the CLI's --scale defaults to it.
DEFAULT_INIT_SCALE = 0.01

REPORT_FIELDS = ("k", "F", "loss", "l20", "frob", "upen", "vpen", "dW", "dV", "seconds")


@dataclass(frozen=True)
class BcdRecord:
    """One outer-iteration snapshot: objective breakdown and block motion.

    ``dw``/``dv`` are the summed squared Frobenius changes of the weight
    and state blocks relative to the previous iterate.  In a mini-batch
    run every state entry is 0 or 1, so ``dv`` is the number of hidden
    activations that changed.
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
        return astuple(self)


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
    (read-only); they are computed here when absent.  Each sum of squares
    is taken one row block at a time (see ``_sq_motion``), ``step(U_i)``
    included.
    """
    n = data.X.shape[1]
    if state.U[-1].shape != data.Y.shape:
        raise ValueError(f"output block {state.U[-1].shape} does not match labels {data.Y.shape}")

    loss = 0.5 / n * float(_hardmax_gap_miss(state.U[-1], data.labels())[1].sum())
    l20 = hp.lam * sum(norm_l20(w) for w in state.W)
    frob = 0.5 * hp.gamma * sum(_sq_motion(w) for w in state.W)
    if b is None:
        b = _coupling_products(state, data)
    # A U block that is its product, a kept target, has no residual.
    upen = 0.5 * hp.tau * sum(_sq_motion(u, wv) for u, wv in zip(state.U, b))
    # step(U_i) is formed as a float block, as ``step`` forms it.  Subtracting
    # the boolean U_i > 0 gives the same bits, but made desk-full's objective
    # about twice as slow on a 2-core Xeon.
    vpen = 0.5 * hp.pi * sum(
        float(_col_sq(lambda lo, hi: v[lo:hi] - np.greater(u[lo:hi], 0.0, out=np.empty_like(u[lo:hi])),
                      v.shape).sum())
        for u, v in zip(state.U, state.V)
    )

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


def _sq_motion(new, old=None):
    """Squared Frobenius distance of one block from its previous value, or
    from 0 without one, summed by ``solvers._col_sq`` one row block at a
    time: an F-ordered weight block through its C-ordered transpose.  A
    block kept as the same array has not moved."""
    if new is old:
        return 0.0
    if new.flags.f_contiguous:
        new, old = new.T, None if old is None else old.T
    if old is None:
        return float(_col_sq(new).sum())
    return float(_col_sq(lambda lo, hi: new[lo:hi] - old[lo:hi], new.shape).sum())


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
    ``V_(i-1)``) is read before it is replaced.  The state solve reads the
    old ``U_i`` only through the boolean pattern ``U_i > 0``; once that is
    taken, the slot ``state.U[i]`` is set to None for the solve, unless
    ``b[i]`` is that same array, and then filled with the new ``U_i``.  The
    solve writes the new ``V_i`` into the old one's buffer, one chunk of
    columns at a time, and returns its motion.  A sweep that raises
    (``CgError``) may so leave a ``U`` slot empty and a ``V_i`` whose
    first chunks are new and the rest old.

    ``b`` lists the targets, input layer first: the products this call
    returned for the previous iterate, or ``state.U`` itself when the state
    is a forward pass; they are computed here when absent.  The sweep
    consumes the arrays in ``b``, not only its slots: ``b[i]`` is set to
    None once its prox has read it, before ``U_i`` is replaced, so ``b``
    may be ``state.U``, and the array is then handed to the ``W_i`` step,
    whose first gradient overwrites it with its residual.  A step prox that
    keeps every entry returns ``b[i]`` itself as the new ``U_i``; the step
    then knows its first residual is zero and writes nothing.  The motions
    are summed in layer order, as ``_sq_diff`` sums them; each ``dV`` term
    has the bits of ``_sq_motion`` of the new ``V_i`` against the old.

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
    squared motion; a mini-batch epoch reads none and passes neither.
    Each ``V_i`` is solved into its own buffer, and its motion comes from
    the solve; a ``CgError`` leaves ``V_i`` partly written."""
    h = len(state.W)
    products = [None] * h
    for i in range(h - 1, -1, -1):
        if i == h - 1:
            u = prox_hardmax_matrix(b[i], data.Y, hp.tau)
        else:
            # The solve reads the old U_i only as step(U_i), so its slot is
            # released before the solve unless it is also the target b[i].
            s = state.U[i] > 0.0
            if b[i] is not state.U[i]:
                state.U[i] = None
            # The solve writes the new V_i into the old one's buffer.
            state.V[i], products[i + 1], motion = solve_v(
                state.W[i + 1], state.U[i + 1], s, hp.tau, hp.pi, v_init=state.V[i])
            del s
            if dv is not None:
                dv[i] = motion
            u = prox_step_matrix(state.V[i], b[i], hp.tau, hp.pi)
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
    return BcdRecord(k, f, **terms, dw=dw, dv=dv, seconds=seconds)


def _packed_rows(v, lo, hi):
    return np.packbits(v[lo:hi] != 0.0, axis=1)


def _bit_pattern(v):
    """The 0/1 pattern of ``v``, one bit per entry, each row padded with
    zero bits to whole bytes.  It is packed one row block at a time, so no
    full-size boolean is formed."""
    return np.concatenate([_packed_rows(v, lo, hi) for lo, hi in _row_blocks(*v.shape)])


def _changed_bits(v, bits):
    """The number of entries of the 0/1 block ``v`` whose pattern differs
    from ``bits``, taken by ``_bit_pattern``; a row's padding bits are zero
    on both sides."""
    return sum(np.count_nonzero(np.unpackbits(_packed_rows(v, lo, hi) ^ bits[lo:hi]))
               for lo, hi in _row_blocks(*v.shape))


def _epoch_over_batches(state, data, hp, derive_beta, batch_size, perm):
    """One mini-batch epoch in place; returns ``(dW, dV, b)`` as
    ``bcd_iteration`` does.  The weights carry across batches, and each
    batch's U/V start from a forward pass.  The new state is the forward
    pass of the trained weights over all of ``data``, so ``b`` is its
    ``U`` list.  No batch's block motions are summed: ``dW`` and ``dV``
    measure the whole epoch's motion.

    The epoch keeps one hidden state.  No batch reads the old ``U`` or
    ``V`` blocks, so their slots are emptied on entry, in ``state.U`` and
    ``state.V`` themselves (the caller's ``b`` may be ``state.U``), and the
    closing pass fills them.  Of the old ``V`` only its pattern is kept,
    packed to one bit per entry.  The entry state is a forward pass (the
    init, or the last epoch's closing pass), so every ``V`` entry, old and
    new, is exactly 0 or 1.  Each squared difference is then 0.0 or 1.0,
    every partial sum of ``_sq_diff`` is an integer below 2**53, and
    ``dV``, the number of hidden activations that changed, has the bits
    of that float sum.  ``dW`` is taken and the old weights released
    before the closing pass, so that pass holds the new state alone."""
    w = list(state.W)
    old_v = [_bit_pattern(v) for v in state.V]
    # Read by no batch; replaced by the closing pass.
    state.U[:], state.V[:] = [None] * len(state.U), [None] * len(state.V)
    for start in range(0, data.n, batch_size):
        batch = data.subset(perm[start:start + batch_size])
        u, v = forward_blocks(w, batch.X)
        _sweep(TrainState(w, u, v), batch, hp, derive_beta, u)
    del batch  # else its X stays live through the closing pass and the sums
    dw = _sq_diff(w, state.W)
    state.W[:] = w
    state.U[:], state.V[:] = forward_blocks(state.W, data.X)
    dv = float(sum(_changed_bits(v, bits) for v, bits in zip(state.V, old_v)))
    return dw, dv, state.U


def train(data, shape, hp, rng, init_scale=DEFAULT_INIT_SCALE,
          derive_beta=False, early_stop_tol=None, batch_size=None, shuffle_rng=None):
    """Initialize and run K outer iterations; returns ``(state, report)``.

    The returned state holds the trained weights alone: its ``U`` and ``V``
    lists are empty in both modes, and its ``n_samples`` is ``data.n``.
    Prediction, evaluation and checkpoints read nothing else.

    Full-batch by default.  With ``batch_size`` set, each outer iteration
    is one epoch over seeded-shuffled batches with the weight blocks
    carried across batches and the U/V blocks re-derived per batch by a
    forward pass (the report rows are then computed on the re-derived
    full-data state, so the coupling penalties read zero by construction).
    A batch size that is not an integer of at least 1, or an
    ``early_stop_tol`` that is negative or not finite, raises ValueError.
    """
    if data.n == 0:
        raise ValueError("training needs at least one sample, got an empty dataset")
    if shape.dims[0] != data.X.shape[0]:
        raise ValueError(f"architecture input width {shape.dims[0]} != data dim {data.X.shape[0]}")
    if shape.dims[-1] != data.Y.shape[0]:
        raise ValueError(f"architecture output width {shape.dims[-1]} != label dim {data.Y.shape[0]}")
    if batch_size is not None and not (_is_integer(batch_size) and batch_size >= 1):
        raise ValueError(f"batch_size must be an integer of at least 1, got {batch_size!r}")
    if early_stop_tol is not None and not (early_stop_tol >= 0.0 and np.isfinite(early_stop_tol)):
        raise ValueError(f"early_stop_tol must be finite and nonnegative, got {early_stop_tol}")
    if batch_size is not None and shuffle_rng is None:
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
        if batch_size is not None:
            dw, dv, b = _epoch_over_batches(state, data, hp, derive_beta, batch_size, shuffle_rng.permutation(data.n))
        else:
            dw, dv, b = bcd_iteration(state, data, hp, derive_beta, b)
        state.check_finite()
        seconds = time.perf_counter() - t0
        records.append(_record(k, state, data, hp, dw, dv, seconds, b))
        logger.debug("iteration %d: F=%.6g dW=%.3g dV=%.3g", k, records[-1].f, dw, dv)
        if early_stop_tol is not None and abs(records[-1].f - records[-2].f) < early_stop_tol:
            logger.info("early stop at iteration %d: |dF| < %g", k, early_stop_tol)
            break

    tied = int((_hardmax_gap_miss(b[-1], data.labels())[2] > 1).sum())
    if tied:
        logger.warning("%d output columns have tied maxima at the final iterate", tied)
    return TrainState(state.W, [], [], data.n), BcdReport(records)

