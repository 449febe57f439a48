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


def check_one_hot(y):
    """Raise ValueError naming the first column of ``y`` that is not a one-hot 0/1 vector."""
    ok = np.all((y == 0.0) | (y == 1.0), axis=0) & (y.sum(axis=0) == 1.0)
    if not np.all(ok):
        raise ValueError(f"label column {int(np.argmax(~ok))} is not one-hot")


def step(x):
    """Entrywise 0/1 activation: 1 for strictly positive entries, else 0.

    Note ``step(0) == 0``; there is no epsilon floor, so any positive
    denormal maps to 1.
    """
    return _step(np.asarray(x, dtype=np.float64))


def _step(u):
    """``step`` of a float64 array, written straight into a float64 array
    with ``u``'s layout (no boolean temporary).  Kernels that apply it one
    block at a time call it: it is not exported, so the benchmark's tracer
    opens no span per block."""
    return np.greater(u, 0.0, out=np.empty_like(u))


def _hardmax_gap_miss(b, y_idx):
    """Per column s of ``b`` with label ``y_idx[s]``: the gap
    ``max(b_s) - b_s[y_s]`` and the miss ``||e_(y_s) - hardmax(b_s)||^2``,
    where hardmax puts a 1 at every entry attaining the column's maximum,
    so ties count as several ones.  The miss is a small integer, so its
    sum over columns is exact."""
    colmax = b.max(axis=0)
    hot = b[y_idx, np.arange(b.shape[1])]
    n_max = (b == colmax).sum(axis=0)
    return colmax - hot, n_max + 1.0 - 2.0 * (hot == colmax)


def norm_l20(w):
    """Number of nonzero columns of ``w`` (the group-sparsity count)."""
    return int(np.any(np.asarray(w) != 0.0, axis=0).sum())


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
    delta, miss = _hardmax_gap_miss(b, y_idx)
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
    the caller must not write the result.  Any other input takes the
    entrywise path and gets a new array.
    """
    v_target = np.asarray(v_target, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if v_target.shape != b.shape:
        raise ValueError(f"target/prediction shape mismatch: {v_target.shape} vs {b.shape}")

    positive = b > 0.0
    if tau >= 0.0 and pi >= 0.0 and np.array_equal(positive, v_target > 0.5):
        return b
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
    array first.
    """
    h = np.asarray(h, dtype=np.float64)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    # At lam == 0 the threshold is 0 and no norm lies below it.
    if lam > 0.0:
        h[np.linalg.norm(h, axis=1) < np.sqrt(2.0 * beta * lam)] = 0.0
    return h
