"""Solvers: proximal gradient for the weight block, a Woodbury or CG solve
for the state block, and the exact spectral norm that bounds the valid
proximal step size.

This module works in the transposed frame where rows of ``w`` are the
sparsity groups; the trainer transposes weight blocks on the way in and out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import prox_l20_rows, step

__all__ = [
    "CgConfig",
    "CgError",
    "grad_psi",
    "smooth_objective",
    "composite_objective",
    "pgm",
    "p_stationarity_residual",
    "spectral_norm",
    "cg_solve",
    "solve_v",
]


@dataclass(frozen=True)
class CgConfig:
    """State-solve tolerance: the per-column relative residual that the
    Woodbury and CG paths of ``solve_v`` must meet.  CG stops after
    ``10 * d`` iterations on a ``d x d`` system.
    """

    tol: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


class CgError(RuntimeError):
    """The state solve left a column above the requested relative residual.

    ``residual`` is the worst column's ``||r_j|| / ||b_j||``, the quantity
    the tolerance is tested on; ``iters`` counts CG iterations.
    """

    def __init__(self, residual, tol, iters):
        self.residual = residual
        self.tol = tol
        self.iters = iters
        super().__init__(
            f"state solve left worst-column relative residual {residual:.3e} "
            f"after {iters} iterations (target {tol:.1e})"
        )


def _column_scale(b):
    """Per-column norms of ``b``, with zero columns measured absolutely."""
    nb = np.linalg.norm(b, axis=0)
    return np.where(nb > 0.0, nb, 1.0)


def grad_psi(w, u, v, tau, gamma):
    """Gradient of ``(tau/2) ||u - v w||^2 + (gamma/2) ||w||^2`` in ``w``."""
    if v.shape[1] != w.shape[0] or u.shape != (v.shape[0], w.shape[1]):
        raise ValueError(f"grad_psi shape mismatch: u {u.shape}, v {v.shape}, w {w.shape}")
    return tau * (v.T @ (v @ w - u)) + gamma * w


def smooth_objective(w, u, v, tau, gamma):
    """``(tau/2) ||u - v w||^2 + (gamma/2) ||w||^2``."""
    r = u - v @ w
    return 0.5 * tau * float((r * r).sum()) + 0.5 * gamma * float((w * w).sum())


def composite_objective(w, u, v, tau, gamma, lam):
    """Smooth part plus ``lam`` times the nonzero-row count of ``w``."""
    nnz_rows = int(np.any(w != 0.0, axis=1).sum())
    return smooth_objective(w, u, v, tau, gamma) + lam * nnz_rows


def pgm(u, v, w0, tau, gamma, lam, L, beta):
    """Run exactly ``L`` proximal-gradient iterations of step ``beta`` from ``w0``.

    Each iteration takes a gradient step on the smooth part followed by
    rowwise hard thresholding.  For step sizes below
    ``1 / (tau ||v||_2^2 + gamma)`` the composite objective is
    non-increasing and the iterates converge to a point satisfying the
    proximal fixed-point inclusion.
    """
    if L < 0 or beta <= 0.0:
        raise ValueError(f"pgm needs L >= 0 and beta > 0, got L={L} beta={beta}")
    w = w0.copy()
    for _ in range(L):
        w = prox_l20_rows(w - beta * grad_psi(w, u, v, tau, gamma), beta, lam)
    return w


def p_stationarity_residual(w, u, v, tau, gamma, lam, beta):
    """Worst rowwise violation of the proximal fixed-point conditions.

    A point is a fixed point of the thresholded gradient map iff every
    nonzero row has zero gradient and norm at least ``sqrt(2 beta lam)``,
    and every zero row has gradient norm at most ``sqrt(2 lam / beta)``.
    Returns the maximum violation over rows; zero iff stationary for this
    ``beta``.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    g = grad_psi(w, u, v, tau, gamma)
    g_rows = np.linalg.norm(g, axis=1)
    w_rows = np.linalg.norm(w, axis=1)
    nonzero = w_rows != 0.0
    keep_floor = np.sqrt(2.0 * beta * lam)
    zero_cap = np.sqrt(2.0 * lam / beta)
    viol = np.where(
        nonzero,
        np.maximum(g_rows, np.maximum(0.0, keep_floor - w_rows)),
        np.maximum(0.0, g_rows - zero_cap),
    )
    return float(viol.max()) if viol.size else 0.0


def spectral_norm(v):
    """Largest singular value of ``v``, exactly: the square root of the
    largest eigenvalue of the smaller Gram matrix (``v v^T`` or ``v^T v``).
    A zero matrix gives 0.0.
    """
    v = np.asarray(v, dtype=np.float64)
    if not v.any():
        return 0.0
    gram = v @ v.T if v.shape[0] <= v.shape[1] else v.T @ v
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def cg_solve(a, b, x0, tol, max_iters, callback=None):
    """Multi-RHS conjugate gradients for SPD ``a``; columns are independent.

    Each column runs its own CG (scalar steps are computed per column and
    converged columns freeze), so the result is independent of how columns
    are batched.  Stops once every column has relative residual at most
    ``tol``; raises ``CgError`` otherwise.

    Returns ``(x, iterations_used)``.
    """
    scale = _column_scale(b)
    col_target = tol * scale
    x = np.array(x0, dtype=np.float64, copy=True)
    r = a @ x
    np.subtract(b, r, out=r)
    rs = (r * r).sum(axis=0)
    p = r.copy()

    for it in range(max_iters):
        active = np.sqrt(rs) > col_target
        if not active.any():
            return x, it
        ap = a @ p
        pap = (p * ap).sum(axis=0)
        safe = active & (pap > 0.0)
        alpha = np.divide(rs, pap, out=np.zeros_like(rs), where=safe)
        x += alpha * p
        r -= alpha * ap
        rs_new = (r * r).sum(axis=0)
        beta = np.divide(rs_new, rs, out=np.zeros_like(rs), where=rs > 0.0)
        p = r + beta * p
        rs = rs_new
        if callback is not None:
            callback(x.copy())

    if np.all(np.sqrt(rs) <= col_target):
        return x, max_iters
    raise CgError(float(np.max(np.sqrt(rs) / scale)), tol, max_iters)


def _woodbury(w, rhs, tau, pi):
    """``(tau w^T w + pi I)^-1 rhs`` through the ``m x m`` system of ``w`` (m x d)."""
    s = tau * (w @ w.T)
    s[np.diag_indices(w.shape[0])] += pi
    z = np.linalg.solve(s, w @ rhs)
    v = w.T @ (-tau * z)
    v += rhs
    v /= pi
    return v


def _woodbury_solve(w, rhs, tau, pi, tol):
    """Woodbury solve checked column by column, with one refinement step.

    The residual ``rhs - tau w^T (w v) - pi v`` is formed matrix-free; if
    a column misses ``tol`` the solve is applied once more to the residual.
    Returns ``(v, met)``, where ``met`` says whether every column of ``v``
    now meets ``tol``.
    """
    scale = _column_scale(rhs)

    def residual(v):
        r = w.T @ (-tau * (w @ v))
        r += rhs
        r -= pi * v
        return r, float(np.max(np.linalg.norm(r, axis=0) / scale, initial=0.0))

    v = _woodbury(w, rhs, tau, pi)
    r, worst = residual(v)
    if worst > tol:
        v += _woodbury(w, r, tau, pi)
        _, worst = residual(v)
    return v, worst <= tol


def solve_v(w_next, u_next, u_cur, tau, pi, cfg, v_init):
    """Solve the hidden-state block: the SPD system

        (tau w^T w + pi I) v = tau w^T u_next + pi step(u_cur)

    with ``w = w_next`` of shape ``m x d``.  When ``m < d`` (the layer below
    a narrower one) the Woodbury identity reduces it to an ``m x m`` solve
    and ``v_init`` is unused; if a column still misses ``cfg.tol`` after
    one refinement step (extreme ``tau ||w||^2 / pi``, where the Woodbury
    form cancels), conjugate gradients take over on the ``d x d`` matrix,
    warm-started from the refined iterate.  A numerically singular
    ``m x m`` system is a miss too; CG then starts from ``v_init``.  When
    ``m >= d`` CG runs on that matrix from ``v_init``.  CG stops after
    ``10 * d`` iterations.  Every column of the returned ``v`` has
    relative residual at most ``cfg.tol``, or CG raises ``CgError``.
    ``pi > 0`` guarantees positive definiteness.
    """
    if pi <= 0.0:
        raise ValueError(f"pi must be positive for an SPD system, got {pi}")
    if w_next.shape[0] != u_next.shape[0] or w_next.shape[1] != u_cur.shape[0]:
        raise ValueError(
            f"solve_v shape mismatch: w {w_next.shape}, u_next {u_next.shape}, u_cur {u_cur.shape}"
        )
    if v_init.shape != u_cur.shape:
        raise ValueError(f"warm start {v_init.shape} does not match {u_cur.shape}")

    m, d = w_next.shape
    rhs = tau * (w_next.T @ u_next) + pi * step(u_cur)
    if m < d:
        try:
            v, met = _woodbury_solve(w_next, rhs, tau, pi, cfg.tol)
        except np.linalg.LinAlgError:
            v, met = v_init, False
        if met:
            return v
        v_init = v
    a = tau * (w_next.T @ w_next)
    a[np.diag_indices(d)] += pi
    x, _ = cg_solve(a, rhs, v_init, cfg.tol, 10 * d)
    return x
