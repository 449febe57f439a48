"""Activation maps and closed-form solvers for the per-block sub-problems.

All operations here act entrywise, columnwise, or rowwise, so they are
trivially parallelizable and independent of evaluation order.  None
writes its arguments except ``prox_l20_rows``, which thresholds a float64
input in place.  ``prox_step_matrix`` may return its float64 ``b`` itself
when it provably keeps every entry, so its callers must not write the
result.

Knife-edge equalities in the three thresholding solvers are resolved by the
no-change branch (keep ``b`` / keep the row), so measure-zero ties never
inject perturbations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "step",
    "norm_l20",
    "prox_hardmax_matrix",
    "prox_step_matrix",
    "prox_l20_rows",
]

# Numeric surrogate for the one-sided limits the closed-form solvers reach.
EPS_TINY = 1e-10

# Entries in one block of the package's blockwise kernels (512 KiB of
# float64), so that none forms a full-size temporary.
V_BLOCK = 1 << 16


def _row_blocks(d, n):
    """``(lo, hi)`` bounds of the row blocks of a ``d x n`` array, about
    ``V_BLOCK`` entries each.  A one-column array is one block: numpy sums
    it pairwise, not row after row."""
    k = max(d, 1) if n == 1 else max(1, V_BLOCK // max(n, 1))
    return ((lo, min(lo + k, d)) for lo in range(0, d, k))


def check_one_hot(y):
    """Raise ValueError naming the first column of ``y`` that is not a one-hot 0/1 vector."""
    ok = np.all((y == 0.0) | (y == 1.0), axis=0) & (y.sum(axis=0) == 1.0)
    if not np.all(ok):
        raise ValueError(f"label column {int(np.argmax(~ok))} is not one-hot")


def step(x):
    """Entrywise 0/1 activation: 1 for strictly positive entries, else 0.

    Note ``step(0) == 0``; there is no epsilon floor, so any positive
    denormal maps to 1.  The result is a float64 array of ``x``'s layout,
    written without a boolean temporary.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.greater(x, 0.0, out=np.empty_like(x))


def _packed_step(u):
    """The pattern of ``step(u)``, ``u > 0``, packed along each row by
    ``np.packbits``: one bit per entry, each row padded with zero bits to
    whole bytes.  It is packed one row block at a time, so no full-size
    boolean is formed."""
    bits = np.empty((u.shape[0], (u.shape[1] + 7) // 8), dtype=np.uint8)
    for lo, hi in _row_blocks(*u.shape):
        bits[lo:hi] = np.packbits(u[lo:hi] > 0.0, axis=1)
    return bits


def _unpacked(bits, lo, hi):
    """Columns ``lo:hi`` of the boolean pattern that ``_packed_step`` packed
    into ``bits``, unpacked from the bytes that hold them alone."""
    first = lo - lo % 8
    cols = np.unpackbits(bits[:, first // 8:(hi + 7) // 8], axis=1, count=hi - first)
    return cols[:, lo - first:].view(np.bool_)


def _hardmax_gap_miss(b, y_idx):
    """Per column s of ``b`` with label ``y_idx[s]``: the gap
    ``max(b_s) - b_s[y_s]``, the miss ``||e_(y_s) - hardmax(b_s)||^2`` and
    ``n_max``, the number of entries attaining the column's maximum, where
    hardmax puts a 1 at each, so ties count as several ones.  The miss is a
    small integer, so its sum over columns is exact."""
    colmax = b.max(axis=0)
    hot = b[y_idx, np.arange(b.shape[1])]
    n_max = (b == colmax).sum(axis=0)
    return colmax - hot, n_max + 1.0 - 2.0 * (hot == colmax), n_max


def norm_l20(w):
    """Number of nonzero columns of ``w`` (the group-sparsity count).

    Taken one row block at a time, so no full-size boolean is formed; an
    F-ordered ``w``, as a weight block is after its proximal step, through
    its C-ordered transpose, whose nonzero rows are counted.
    """
    w = np.asarray(w)
    if w.flags.f_contiguous:
        t = w.T
        return sum(int(np.count_nonzero(np.any(t[lo:hi] != 0.0, axis=1))) for lo, hi in _row_blocks(*t.shape))
    nonzero = np.zeros(w.shape[1], dtype=bool)
    for lo, hi in _row_blocks(*w.shape):
        nonzero |= np.any(w[lo:hi] != 0.0, axis=0)
    return int(np.count_nonzero(nonzero))


def prox_hardmax_matrix(b, y, tau):
    """Columnwise output-layer update: prox of the hardmax loss around ``b``.

    Solves, for each column s with one-hot label y_s,

        min_u  (1/(2n)) ||y_s - hardmax(u)||^2 + (tau/2) ||u - b_s||^2

    with ``n`` the number of columns (the batch size in a mini-batch sweep).
    With ``mu = tau * n`` and ``delta = max(b_s) - b_s[y]``, ``b_s`` is kept
    when ``mu * delta^2 >= ||y_s - hardmax(b_s)||^2``; otherwise the hot entry
    is raised to the strict maximum, by ``delta + EPS_TINY``.

    Parameters
    ----------
    b : (m, N) array
        Linear predictions (current weights times previous activations).
    y : (m, N) array
        One-hot labels; a non-one-hot column is a hard error.
    """
    b = np.asarray(b, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if b.shape != y.shape:
        raise ValueError(f"prediction/label shape mismatch: {b.shape} vs {y.shape}")
    check_one_hot(y)
    n = b.shape[1]

    y_idx = np.argmax(y, axis=0)
    delta, miss, _ = _hardmax_gap_miss(b, y_idx)
    bump = tau * n * delta * delta < miss

    out = b.copy()
    out[y_idx[bump], np.flatnonzero(bump)] += delta[bump] + EPS_TINY
    return out


def prox_step_matrix(v_target, b, tau, pi):
    """Entrywise hidden-layer update: fit ``u`` to ``b`` against a 0/1 target.

    Solves, independently per entry with ``a = v_target[j, r]`` and
    ``b = b[j, r]``,

        min_u  (tau/2) (u - b)^2 + (pi/2) (a - step(u))^2

    With ``t = 2a - 1`` and ``rho = tau / pi``, a positive ``b`` is kept if
    ``t >= -rho b^2``, else zeroed; a nonpositive ``b`` is kept if
    ``t <= rho b^2``, else moved to the one-sided limit 0+, realized as
    ``min(sqrt(t/rho) + b, EPS_TINY)``.  The branch tests are carried out in
    the homogeneous form ``pi * t`` vs ``-/+ tau * b^2`` so no division is
    involved.

    Where ``(b > 0) == (a > 1/2)`` holds in every entry, every entry is
    kept: ``b > 0`` with ``a > 1/2`` gives ``t > 0 >= -rho b^2``, and
    ``b <= 0`` with ``a <= 1/2`` gives ``t <= 0 <= rho b^2`` (for
    nonnegative ``tau`` and ``pi``).  That case returns ``b`` itself, the
    same array when it is float64, without forming the branch tests, so
    the caller must not write the result.  The sides are compared one row
    block at a time, so that test forms no full-size boolean.  Any other
    input takes the entrywise path and gets a new array.
    """
    v_target = np.asarray(v_target, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if v_target.shape != b.shape:
        raise ValueError(f"target/prediction shape mismatch: {v_target.shape} vs {b.shape}")

    if tau >= 0.0 and pi >= 0.0 and all(np.array_equal(b[lo:hi] > 0.0, v_target[lo:hi] > 0.5)
                                        for lo, hi in _row_blocks(*b.shape)):
        return b
    positive = b > 0.0
    # lhs = pi * t and quad = tau * b^2, each built in place in one buffer:
    # this function's temporaries are among the largest of a sweep, so
    # ``out`` is allocated only after they are released.
    lhs = 2.0 * v_target
    lhs -= 1.0
    lhs *= pi
    quad = tau * b
    quad *= b
    bump = (lhs > quad) & ~positive
    # -lhs > quad is exactly lhs < -quad (negation is exact).
    np.negative(lhs, out=lhs)
    zero = (lhs > quad) & positive
    del lhs, quad
    out = b.copy()
    out[zero] = 0.0
    if np.any(bump):
        tb = 2.0 * v_target[bump] - 1.0
        out[bump] = np.minimum(np.sqrt(tb * (pi / tau)) + b[bump], EPS_TINY)
    return out


def prox_l20_rows(h, beta, lam):
    """Rowwise hard thresholding: the prox of ``lam * (nonzero-row count)``.

    Row s of the result is 0 when ``||h_s|| < sqrt(2 beta lam)``, ``h_s``
    when strictly above, and ``h_s`` on exact equality (keep).  Rows are
    never shrunk, only kept or zeroed.

    A float64 ``h`` is thresholded in place and returned: ``pgm`` passes
    the step buffer it owns.  Other inputs are converted to a new float64
    array first.  The row norms are taken one row block of about ``V_BLOCK``
    entries at a time, each with the bits of ``np.linalg.norm(h, axis=1)``:
    rows are summed independently, so no full-size square is formed.
    """
    h = np.asarray(h, dtype=np.float64)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    # At lam == 0 the threshold is 0 and no norm lies below it.
    if lam > 0.0:
        threshold = np.sqrt(2.0 * beta * lam)
        for lo, hi in _row_blocks(*h.shape):
            c = h[lo:hi]
            c[np.sqrt(np.add.reduce(c * c, axis=1)) < threshold] = 0.0
    return h
