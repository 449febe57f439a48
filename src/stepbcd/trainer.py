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
motions and the new iterate's products.  ``train`` hands ``b`` to the
next sweep as its targets, where the ``U_i`` prox reads each one and the
``W_i`` step's first gradient reuses its buffer as the residual.  A step
prox that provably keeps every entry returns the target itself as the
new ``U_i``; the ``W_i`` step then takes its first residual as zero,
forms none, and leaves that buffer, now ``U_i``, as it is.  Each state solve hands on
``W_(i+1) V_i`` of the new iterate; where it keeps a square layer's start,
that is the product its check was made from, the one ``d x d x N``
product the solve forms, and otherwise one product of the whole new
``V_i``.  ``bcd_iteration`` forms only ``W_0 X``.  After
a forward pass (the init, a mini-batch, the closing pass of a mini-batch
epoch) the products are the ``U`` blocks themselves.

Every sweep, full-batch or per mini-batch, runs the one private sweep.  A
sweep runs in place: each block is replaced in the state's own lists as
soon as its update is made, and each target is dropped from ``b`` once
its prox has read it, so a sweep holds one state, not an old and a new
one.  Each old block goes once nothing reads it: the state solve reads
the old ``U_i`` only as its pattern ``U_i > 0``, packed one bit per
entry, which is how a full-batch state keeps it (below).  The state
solve works through chunks of columns and writes the new ``V_i`` into
the old one's buffer, summing its motion ``dV`` as it goes, so it forms
no ``d x N`` block but the product it hands on.

A full-batch sweep also finishes each ``U_i`` as soon as it is final.
Once the solve for ``V_(i-1)`` hands on ``W_i V_(i-1)`` (for ``U_0``,
once ``W_0 X`` is formed), it sums the coupling residual
``||U_i - W_i V_(i-1)||^2`` and, below the output layer, keeps ``U_i``
only as its packed pattern, the one form the next sweep's solve reads;
``||V_i - step(U_i)||^2`` is summed once the ``U_i`` prox returns.
``bcd_iteration`` returns those per-layer sums beside ``(dW, dV, b)``,
and the report's upen and vpen are made from them, so the report reads
the weights and ``U_h`` alone, in either mode.  Each sum is taken once:
a square layer's solve that keeps its start has summed both terms in its
check, and the sweep sums those column sums instead (``_sweep``).

No block is scanned for a non-finite entry while a sum shows it finite.
A non-finite entry makes every sum of squares over it NaN or infinite, so
a ``U_i`` is finite where its upen term is, and a ``W_i`` or ``V_i``
where its motion from the last iterate, which was finite, is: ``dW`` and
``dV`` in a full-batch sweep, the epoch's ``dW`` in a mini-batch run.
Only a sum that is not finite sends its blocks to the scan, which names
the first non-finite block as before and passes a sum that overflowed on
finite entries.

A mini-batch run holds no hidden block over all N samples.  Between
epochs it keeps the weights, the output block ``U_h`` of their forward
pass over the data, the one product the report and the tie count read,
and that pass's hidden ``V`` blocks as packed bits, one per activation.
The init and each epoch's closing forward pass are taken one chunk of
columns at a time straight into those, and ``dV`` counts the bits that
changed.  A batch's sweep hands each superseded ``W_i`` to its step
without keeping it, and the epoch keeps its own start weights for
``dW``.  An epoch releases the old weights before its closing pass.
"""

from __future__ import annotations

import logging
import time
from dataclasses import astuple, dataclass

import numpy as np

from .core import TrainState, _check_finite, _gaussian_weights, _is_integer, _layers, forward_blocks, init_gaussian
from .dataio import write_csv
from .prox import _hardmax_gap_miss, _packed_step, _row_blocks, norm_l20, prox_hardmax_matrix, prox_step_matrix
from .solvers import _col_chunks, _col_sq, pgm, solve_v, spectral_norm

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

    Returns ``(F, terms)`` with terms keyed loss/l20/frob/upen/vpen; F is
    their sum in that order.  ``b`` holds the products ``W_i V_(i-1)``
    when the caller has them (read-only); they are computed here when
    absent.  Each sum of squares is taken one row block at a time (see
    ``_sq_motion`` and ``_sq_step_gap``), ``step(U_i)`` included, and
    ``_penalties`` scales the per-layer ones.  Every ``U`` block must be
    float: a full-batch sweep packs the hidden ones and sums their terms
    itself (``bcd_iteration``).

    A state that holds the weights alone stands for the forward pass of
    its weights from ``data.X``, and ``b[-1]`` must then be that pass's
    output block ``U_h``, the one block read.  On a forward pass
    ``U_i = W_i V_(i-1)`` and ``V_i = step(U_i)`` hold exactly, so upen
    and vpen are exactly 0.0 and are not summed; a mini-batch run's report
    is taken so.
    """
    n = data.X.shape[1]
    forward = not state.U
    if forward and b is None:
        raise ValueError("a state of weights alone needs its output block U_h as b[-1]")
    u_out = b[-1] if forward else state.U[-1]
    if u_out.shape != data.Y.shape:
        raise ValueError(f"output block {u_out.shape} does not match labels {data.Y.shape}")

    loss = 0.5 / n * float(_hardmax_gap_miss(u_out, data.labels())[1].sum())
    l20 = hp.lam * sum(norm_l20(w) for w in state.W)
    frob = 0.5 * hp.gamma * sum(_sq_motion(w) for w in state.W)
    upen_sq = vpen_sq = ()
    if not forward:
        if b is None:
            b = _coupling_products(state, data)
        # A U block that is its product, a kept target, has no residual.
        upen_sq = [_sq_motion(u, wv) for u, wv in zip(state.U, b)]
        vpen_sq = [_sq_step_gap(v, u) for u, v in zip(state.U, state.V)]
    upen, vpen = _penalties(hp, upen_sq, vpen_sq)

    terms = {"loss": loss, "l20": l20, "frob": frob, "upen": upen, "vpen": vpen}
    return sum(terms.values()), terms


def _penalties(hp, upen_sq, vpen_sq):
    """The objective's ``upen`` and ``vpen`` from the per-layer squared
    coupling residuals, each list summed in layer order."""
    return 0.5 * hp.tau * sum(upen_sq), 0.5 * hp.pi * sum(vpen_sq)


def _sq_step_gap(v, u):
    """``||V_i - step(U_i)||^2``, summed by ``solvers._col_sq`` one row
    block at a time.  ``step(U_i)`` is formed per block as a float block,
    as ``step`` forms it.  Subtracting the boolean ``U_i > 0`` gives the
    same bits, but made desk-full's objective about twice as slow on a
    2-core Xeon."""
    return float(_col_sq(lambda lo, hi: v[lo:hi] - np.greater(u[lo:hi], 0.0, out=np.empty_like(u[lo:hi])),
                         v.shape).sum())


def _pgm_update(u_new, v_old, start, hp, derive_beta, wv_old):
    """Weight-block step in the transposed frame (rows = columns of W).

    ``start`` is a one-element list holding the old block ``w_old``.  The
    step empties it and passes the block to ``pgm`` in the call itself, so
    no frame here keeps it: a caller that holds it nowhere else has it
    released once ``pgm`` forms its first step.

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
    return pgm(ut, v_old.T, start.pop().T, hp.tau, hp.gamma, hp.lam, hp.L, beta, vw).T


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
    """One outer sweep in place; returns ``(dW, dV, b, coupling)``: the
    squared block motions, the new iterate's products ``W_i V_(i-1)``,
    input layer first, and the new iterate's per-layer squared coupling
    residuals.

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
    old ``U_i`` only through its pattern ``U_i > 0``, packed one bit per
    entry (``prox._packed_step``), so a hidden ``U`` slot may hold that
    pattern, as this call leaves it (see ``TrainState``); a float ``U_i``
    is packed one row block at a time.  The solve writes the new ``V_i``
    into the old one's buffer, one chunk of columns at a time, and returns
    its motion.  A sweep that raises (``CgError``) may so leave a ``V_i``
    whose first chunks are new and the rest old.

    Each ``U_i`` is settled as soon as it is final and its new product
    ``W_i V_(i-1)`` is formed: the state solve for ``V_(i-1)`` hands that
    product on, and ``W_0 X`` is formed after the loop (``_settle_u``).
    ``||V_i - step(U_i)||^2`` is summed once the ``U_i`` prox returns.
    ``coupling`` is the pair of those lists, ``h`` and ``h-1`` sums in
    layer order, each with the bits of ``objective_f``'s term for that
    layer; ``_penalties`` turns them into the report's upen and vpen.
    Where a square layer's solve keeps its start, its check has summed
    both terms already (``solvers.solve_v``), and the sweep sums those
    column sums instead of taking the squares again (``_sweep``).

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
    h = len(state.W)
    dw, dv, upen, vpen = [0.0] * h, [0.0] * (h - 1), [0.0] * h, [0.0] * (h - 1)
    b = _sweep(state, data, hp, derive_beta, b, (dw, dv, upen, vpen))
    return sum(dw), sum(dv), b, (upen, vpen)


def _settle_u(state, i, wv, upen, e2=None, bits=None):
    """Settle the final ``U_i`` of a full-batch sweep against its new
    product ``wv``: put ``||U_i - wv||^2`` into ``upen[i]`` and, below the
    output layer, replace ``U_i`` by its packed step pattern, the one form
    of it the next sweep reads.

    ``e2``, from a solve that kept its start, holds the column sums of
    squares of that very difference, taken by the same kernel over the
    same row blocks, so their sum has the bits of ``_sq_motion``, except
    for a block that is also F-ordered (one row or one column), which
    ``_sq_motion`` sums through its transpose; ``e2`` is not used there.
    ``bits``, when the sweep has packed ``U_i`` already, is that pattern.

    ``U_i`` is checked finite (``core._check_finite``) only when the sum
    is not: a non-finite entry makes the sum NaN or infinite, whatever
    ``wv`` holds, and a sum that overflows on finite entries passes."""
    u = state.U[i]
    upen[i] = float(e2.sum()) if e2 is not None and not u.flags.f_contiguous else _sq_motion(u, wv)
    if not np.isfinite(upen[i]):
        _check_finite(f"U[{i}]", u)
    if i < len(state.W) - 1:
        state.U[i] = _packed_step(u) if bits is None else bits


def _sweep(state, data, hp, derive_beta, b, sums=None):
    """``bcd_iteration``'s sweep; returns the new iterate's products: each
    state solve hands on its ``W_(i+1) V_i``, and ``W_0 X`` is formed after
    the loop of a full-batch sweep, while a mini-batch sweep leaves slot 0
    empty.

    ``sums``, from a full-batch sweep, is four lists ``(dw, dv, upen,
    vpen)`` with one slot per layer (per hidden layer for ``dv`` and
    ``vpen``).  They receive each block's squared motion and squared
    coupling residual, and each ``U_(i+1)`` is settled (``_settle_u``)
    once the ``V_i`` solve hands on its product.  Where that solve kept
    its start, its check's column sums ``e2`` give ``upen_(i+1)``.  Its
    ``g2``, the gap between the kept ``V_i`` and the old pattern ``s`` of
    ``U_i``, gives ``vpen_i`` when the ``U_i`` prox returned its target
    itself and the new ``U_i`` packs to ``s``: the new ``U_i`` is packed
    then, and that pattern is the one ``_settle_u`` keeps.

    A mini-batch epoch passes none: its ``U`` blocks stay float and go
    with the batch, and each superseded ``W_i`` goes to its step without
    being kept, so the step lets go of it once its first step is formed
    and a sweep that raises may leave that ``W`` slot empty (None).  A
    full-batch sweep keeps the old ``W_i`` for its ``dW`` term.  Each
    ``V_i`` is solved into its own buffer, and its motion comes from the
    solve; a ``CgError`` leaves ``V_i`` partly written."""
    h = len(state.W)
    products = [None] * h
    full = sums is not None
    if full:
        dw, dv, upen, vpen = sums
    bits = None  # the pattern of the U block settled next, when packed already
    for i in range(h - 1, -1, -1):
        if i == h - 1:
            u = prox_hardmax_matrix(b[i], data.Y, hp.tau)
        else:
            # The solve reads the old U_i only as step(U_i), packed one bit
            # per entry, and writes the new V_i into the old one's buffer.
            s = state.U[i] if state.U[i].dtype == np.uint8 else _packed_step(state.U[i])
            state.V[i], products[i + 1], motion, kept = solve_v(
                state.W[i + 1], state.U[i + 1], s, hp.tau, hp.pi, v_init=state.V[i])
            if full:
                dv[i] = motion
                _settle_u(state, i + 1, products[i + 1], upen, None if kept is None else kept[0], bits)
            u = prox_step_matrix(state.V[i], b[i], hp.tau, hp.pi)
            if full:
                bits = _packed_step(u) if kept is not None and u is b[i] else None
                if bits is not None and np.array_equal(bits, s):
                    vpen[i] = float(kept[1].sum())
                else:
                    vpen[i] = _sq_step_gap(state.V[i], u)
            del s, kept
        wv, b[i] = b[i], None
        state.U[i] = u
        start = [state.W[i]]
        if not full:
            # The epoch keeps its start weights for dW, so the superseded
            # W_i goes to the step alone, which lets go of it after its
            # first step.
            state.W[i] = None
        w = _pgm_update(u, _layer_input(state, data, i), start, hp, derive_beta, wv)
        del u, wv  # else the float U_i outlives its packing
        if full:
            dw[i] = _sq_motion(w, state.W[i])
        state.W[i] = w
    if full:
        products[0] = state.W[0] @ data.X
        _settle_u(state, 0, products[0], upen, None, bits)
    return products


def _record(k, state, data, hp, dw, dv, seconds, b, coupling=None):
    """Report row ``k``.  loss, l20 and frob are ``objective_f``'s of the
    weights with the output block ``U_h``: the state's own in a full-batch
    run, else that of the forward pass whose products ``b`` are.  upen and
    vpen come from a full-batch sweep's ``coupling`` sums
    (``bcd_iteration``), or are 0.0 without them, on a forward pass."""
    u_out = state.U[-1] if state.U else b[-1]
    f, terms = objective_f(TrainState(state.W, [], []), data, hp, [u_out])
    if coupling is not None:
        terms["upen"], terms["vpen"] = _penalties(hp, *coupling)
        f = sum(terms.values())
    return BcdRecord(k, f, **terms, dw=dw, dv=dv, seconds=seconds)


def _forward_pass(w_list, x):
    """The output block ``U_h`` and the packed pattern of each hidden
    ``V_i`` (``prox._packed_step``) of the forward pass of ``w_list`` from
    ``x``, formed one chunk of columns at a time.

    The chunks are the state solve's (``solvers._col_chunks``), and each
    goes through ``core._layers``.  ``V_CHUNK`` is a multiple of 8, so each
    chunk's pattern starts on a byte of the whole one.  So the pass holds
    a chunk of two layers at most beside ``U_h`` and the bits, and no
    hidden ``d x N`` block.  Each chunk's ``U`` blocks are checked by
    ``core._check_finite``: a non-finite entry raises
    ``FloatingPointError`` naming the block.
    """
    n = x.shape[1]
    u_out = np.empty((w_list[-1].shape[0], n))
    bits = [np.empty((w.shape[0], (n + 7) // 8), dtype=np.uint8) for w in w_list[:-1]]
    for lo, hi in _col_chunks(n):
        for i, (u, v) in enumerate(_layers(w_list, x[:, lo:hi])):
            _check_finite(f"U[{i}]", u)
            if v is None:
                u_out[:, lo:hi] = u
            else:
                bits[i][:, lo // 8:(hi + 7) // 8] = _packed_step(v)
            del u, v  # else live while the next layer's chunk is formed
    return u_out, bits


def _epoch_over_batches(state, data, hp, derive_beta, batch_size, perm, bits):
    """One mini-batch epoch in place; returns ``(dW, dV, b)`` as
    ``bcd_iteration`` does, ``b`` holding the closing pass's ``U_h`` alone,
    and no coupling sums: that pass's residuals are zero.

    ``state`` holds the weights alone, and ``bits`` the packed hidden
    patterns of their forward pass over ``data`` (``_forward_pass``).  The
    weights carry across batches, and each batch's U/V start from a
    forward pass.  The epoch closes with ``_forward_pass`` of the trained
    weights over all of ``data``, whose patterns replace ``bits`` in the
    list itself.  No batch's block motions are summed: ``dW`` and ``dV``
    measure the whole epoch's motion.

    Every ``V`` entry of a forward pass, old and new, is exactly 0 or 1, so
    each squared difference is 0.0 or 1.0, and ``dV``, the squared motion
    of the hidden states, is the number of bits in which the old and new
    patterns differ; a row's padding bits are zero on both sides.  It is
    counted one row block at a time.  ``dW`` is taken and the old weights
    released before the closing pass."""
    w = list(state.W)
    for start in range(0, data.n, batch_size):
        batch = data.subset(perm[start:start + batch_size])
        u, v = forward_blocks(w, batch.X)
        _sweep(TrainState(w, u, v), batch, hp, derive_beta, u)
    del batch, u, v  # else live through the closing pass
    dw = _sq_diff(w, state.W)
    state.W[:] = w
    u_out, new = _forward_pass(state.W, data.X)
    dv = float(sum(np.count_nonzero(np.unpackbits(old[lo:hi] ^ cur[lo:hi]))
                   for old, cur in zip(bits, new) for lo, hi in _row_blocks(*old.shape)))
    bits[:] = new
    return dw, dv, [u_out]


def train(data, shape, hp, rng, init_scale=DEFAULT_INIT_SCALE,
          derive_beta=False, early_stop_tol=None, batch_size=None, shuffle_rng=None):
    """Initialize and run K outer iterations; returns ``(state, report)``.

    The returned state holds the trained weights alone: its ``U`` and ``V``
    lists are empty in both modes, and its ``n_samples`` is ``data.n``.
    Prediction, evaluation and checkpoints read nothing else.

    Full-batch by default: each outer iteration is one ``bcd_iteration``,
    which leaves the hidden ``U`` blocks as packed step patterns and
    returns its per-layer coupling sums.  Each report row takes loss, l20
    and frob from the weights and ``U_h``, and upen and vpen from those
    sums; row 0 is the forward-pass init, whose coupling penalties are
    exactly zero.  With ``batch_size`` set, each outer iteration
    is one epoch over seeded-shuffled batches with the weight blocks
    carried across batches and the U/V blocks re-derived per batch by a
    forward pass.  Between epochs such a run keeps the weights, the output
    block ``U_h`` of their forward pass over all of ``data`` and the packed
    patterns of its hidden ``V`` blocks, and it forms no hidden block over
    all samples (``_forward_pass``).  Its report rows are taken on that
    forward pass, so the coupling penalties read exactly zero.

    In either mode an init whose forward pass overflows raises
    ``FloatingPointError`` naming the ``U`` block before row 0.  After
    each outer iteration a non-finite block raises it too, naming the
    first such block; the state is scanned only when ``dW`` or ``dV`` is
    not finite (see the module docstring).  A batch
    size that is not an integer of at least 1, or an ``early_stop_tol``
    that is negative or not finite, raises ValueError.
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

    if batch_size is None:
        state = init_gaussian(shape, init_scale, rng, data.X)
        state.check_consistent(shape, data.X.shape[1])
        for i in range(shape.h):
            _check_finite(f"U[{i}]", state.U[i])
        # The coupling products of the current iterate: the next sweep's b
        # targets and the final tie count read them.  A forward-pass
        # state's products are its U blocks.
        b = state.U
    else:
        # A mini-batch run keeps the weights, and of their forward pass the
        # packed hidden patterns and the one product read, U_h.
        state = TrainState(_gaussian_weights(shape, init_scale, rng), [], [], data.n)
        u_out, bits = _forward_pass(state.W, data.X)
        b = [u_out]
        del u_out
    records = [_record(0, state, data, hp, 0.0, 0.0, 0.0, b)]

    for k in range(1, hp.K + 1):
        t0 = time.perf_counter()
        if batch_size is not None:
            dw, dv, b = _epoch_over_batches(state, data, hp, derive_beta, batch_size,
                                            shuffle_rng.permutation(data.n), bits)
            coupling = None
        else:
            dw, dv, b, coupling = bcd_iteration(state, data, hp, derive_beta, b)
        # Each weight and state block is finite where its motion from the
        # last, finite, iterate is; each full-batch U block was checked
        # by its upen term as the sweep settled it.
        if not (np.isfinite(dw) and np.isfinite(dv)):
            state.check_finite()
        seconds = time.perf_counter() - t0
        records.append(_record(k, state, data, hp, dw, dv, seconds, b, coupling))
        logger.debug("iteration %d: F=%.6g dW=%.3g dV=%.3g", k, records[-1].f, dw, dv)
        if early_stop_tol is not None and abs(records[-1].f - records[-2].f) < early_stop_tol:
            logger.info("early stop at iteration %d: |dF| < %g", k, early_stop_tol)
            break

    tied = int((_hardmax_gap_miss(b[-1], data.labels())[2] > 1).sum())
    if tied:
        logger.warning("%d output columns have tied maxima at the final iterate", tied)
    return TrainState(state.W, [], [], data.n), BcdReport(records)

