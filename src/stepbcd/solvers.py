"""Solvers: proximal gradient for the weight block, a CG solve for the state
block (seeded by Woodbury below a narrower layer), and the exact spectral
norm that bounds the valid proximal step size.

This module works in the transposed frame where rows of ``w`` are the
sparsity groups; the trainer transposes weight blocks on the way in and out.
"""

from __future__ import annotations

import numpy as np

from .prox import _step, prox_l20_rows, step

__all__ = [
    "CgError",
    "grad_psi",
    "pgm",
    "spectral_norm",
    "cg_solve",
    "solve_v",
]


# The per-column relative residual every state solve meets; CG stops after
# ``10 * d`` iterations on a ``d x d`` system.
V_TOL = 1e-8

# Entries in one block of the state solve's blockwise kernels (512 KiB of
# float64), so that none forms a d x N temporary.
V_BLOCK = 1 << 16


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


def grad_psi(w, u, v, tau, gamma, vw=None):
    """Gradient of ``(tau/2) ||u - v w||^2 + (gamma/2) ||w||^2`` in ``w``.

    ``vw``, when given, is the product ``v @ w`` the caller already holds;
    it is overwritten with the residual ``v w - u``.  Either way the
    residual is formed in the product's own buffer.

    A ``vw`` that is ``u`` itself, the same array, says the target is the
    (finite) product, as when the step prox kept the carried product: the
    residual is known to be zero, so it is not formed, and that buffer is
    not written.
    """
    if v.shape[1] != w.shape[0] or u.shape != (v.shape[0], w.shape[1]):
        raise ValueError(f"grad_psi shape mismatch: u {u.shape}, v {v.shape}, w {w.shape}")
    if vw is u:
        # The bits of tau * (+0.0) + gamma * w, laid out as the product
        # ``v.T @ r`` would be: adding +0.0 turns a -0.0 into +0.0.
        g = np.multiply(gamma, w, order="C")
        g += 0.0
        return g
    if vw is None:
        vw = v @ w
    elif vw.shape != u.shape:
        raise ValueError(f"grad_psi product {vw.shape} does not match u {u.shape}")
    vw -= u
    g = v.T @ vw
    del vw
    g *= tau
    g += gamma * w
    return g


def pgm(u, v, w0, tau, gamma, lam, L, beta, vw0=None):
    """Run exactly ``L`` proximal-gradient iterations of step ``beta`` from ``w0``.

    Each iteration takes a gradient step on the smooth part followed by
    rowwise hard thresholding.  For step sizes below
    ``1 / (tau ||v||_2^2 + gamma)`` the composite objective is
    non-increasing and the iterates converge to a point satisfying the
    proximal fixed-point inclusion.

    ``vw0``, when given, is the product ``v @ w0``: the first gradient
    reuses it, overwriting it with its residual.  A ``vw0`` that is ``u``
    itself says the first residual is zero; it is then neither formed nor
    written (see ``grad_psi``).  ``u``, ``v`` and ``w0`` are never written;
    ``L = 0`` returns a copy of ``w0``.  Each step is taken and
    thresholded in the gradient's own buffer.
    """
    if L < 0 or beta <= 0.0:
        raise ValueError(f"pgm needs L >= 0 and beta > 0, got L={L} beta={beta}")
    if L == 0:
        return w0.copy()
    w = w0
    for _ in range(L):
        g = grad_psi(w, u, v, tau, gamma, vw0)
        vw0 = None
        g *= beta
        np.subtract(w, g, out=g)
        w = prox_l20_rows(g, beta, lam)
    return w


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


def _col_blocks(d, n):
    """``(lo, hi)`` bounds of the column blocks of a ``d x n`` array: about
    ``V_BLOCK`` entries each, and at least two columns unless ``n`` is 1.
    numpy sums a one-column array along its contiguous axis, in another
    order than it adds the rows of a wider one."""
    blocks = max(1, n // max(2, V_BLOCK // max(d, 1)))
    return ((n * i // blocks, n * (i + 1) // blocks) for i in range(blocks))


def _col_sq(part, shape):
    """``(c * c).sum(axis=0)`` of the ``shape`` array ``c`` whose columns
    ``lo:hi`` the call ``part(lo, hi)`` returns, formed one column block at
    a time.  A column's sum does not depend on the other columns, so this
    has the bits of numpy's sum over the whole array."""
    out = np.empty(shape[1])
    for lo, hi in _col_blocks(*shape):
        c = part(lo, hi)
        out[lo:hi] = (c * c).sum(axis=0)
    return out


def cg_solve(a, b, x0, tol, max_iters, callback=None):
    """Multi-RHS conjugate gradients for the SPD operator ``a`` (a callable
    ``x -> A x``); columns are independent.

    Each column runs its own CG (scalar steps are computed per column and
    converged columns freeze), so the result is independent of how columns
    are batched.  Stops once every column has relative residual
    ``||b_j - A x_j|| / ||b_j||`` at most ``tol`` (a zero column is measured
    absolutely); a float64 start that already meets it is returned as it
    is, the same array, after 0 iterations.  ``x0`` is never written: the
    first update that moves the iterate makes its copy.  Raises
    ``CgError`` if ``max_iters`` iterations do not.

    The column norms are summed one column block at a time, and the start
    is checked that way too, through ``a`` applied to each block of
    columns; the full residual is formed only when a column misses
    ``tol``.

    Returns ``(x, iterations_used)``.
    """
    nb = np.sqrt(_col_sq(lambda lo, hi: b[:, lo:hi], b.shape))
    scale = np.where(nb > 0.0, nb, 1.0)
    col_target = tol * scale
    x = np.asarray(x0, dtype=np.float64)
    if np.all(np.sqrt(_col_sq(lambda lo, hi: b[:, lo:hi] - a(x[:, lo:hi]), b.shape)) <= col_target):
        return x, 0
    r = a(x)
    np.subtract(b, r, out=r)
    rs = _col_sq(lambda lo, hi: r[:, lo:hi], r.shape)

    for it in range(max_iters):
        active = np.sqrt(rs) > col_target
        if not active.any():
            return x, it
        if it == 0:
            p = r.copy()
        ap = a(p)
        pap = (p * ap).sum(axis=0)
        safe = active & (pap > 0.0)
        alpha = np.divide(rs, pap, out=np.zeros_like(rs), where=safe)
        if it == 0:  # the first move copies the start
            x = x + alpha * p
        else:
            x += alpha * p
        r -= alpha * ap
        rs_new = _col_sq(lambda lo, hi: r[:, lo:hi], r.shape)
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


def _start_meets_tol(w, u_next, u_cur, x, wx, tau, pi):
    """Whether every column of the start ``x`` provably meets ``V_TOL``,
    judged from the product ``wx = w @ x`` alone.

    With ``e = u_next - wx`` and ``s = step(u_cur)`` the residual is
    ``r = tau w^T e + pi (s - x)``, so ``||r_j|| <= R_j = tau ||w||_F ||e_j||
    + pi ||s_j - x_j||``.  Expanding ``A x_j`` gives ``||A x_j||^2 >= Q_j^2 =
    2 tau pi ||wx_j||^2 + pi^2 ||x_j||^2``, and ``||b_j|| >= Q_j - R_j``.  So
    ``(1 + V_TOL) R_j <= V_TOL Q_j`` gives ``||r_j|| <= V_TOL ||b_j||``, the
    test ``cg_solve`` applies; a zero ``b_j``, which it measures absolutely,
    passes only with ``R_j = 0``, where ``r_j = 0`` too.  Each difference is
    squared in its own buffer and released before this returns.
    """
    e = u_next - wx
    e *= e
    r = np.sqrt(e.sum(axis=0))
    del e
    r *= tau * np.linalg.norm(w)
    sx = step(u_cur)
    sx -= x
    sx *= sx
    r += pi * np.sqrt(sx.sum(axis=0))
    del sx
    q = np.sqrt(2.0 * tau * pi * np.einsum("ij,ij->j", wx, wx) + pi * pi * np.einsum("ij,ij->j", x, x))
    return bool(np.all((1.0 + V_TOL) * r <= V_TOL * q))


def solve_v(w_next, u_next, u_cur, tau, pi, v_init):
    """Solve the hidden-state block: the SPD system

        (tau w^T w + pi I) v = tau w^T u_next + pi step(u_cur)

    with ``w = w_next`` of shape ``m x d``: pick a start, then run
    ``cg_solve`` until every column meets ``V_TOL``.  When ``m < d`` (the
    layer below a narrower one) the start is the Woodbury solution through
    the ``m x m`` system, or ``v_init`` if that system is numerically
    singular; otherwise it is ``v_init``.  CG applies the operator
    matrix-free for every shape, as ``w^T (tau (w x)) + pi x``: two
    products per application, and ``w^T w`` is never formed.  A start
    that meets ``V_TOL`` is returned as it is, the same array.  CG stops
    after ``10 * d`` iterations and raises ``CgError`` if a column still
    misses.  ``pi > 0`` guarantees positive definiteness.  The
    right-hand side's ``pi step(u_cur)`` is added one row block at a
    time.

    On a square or tall layer (``m >= d``) ``v_init`` is first checked by
    ``_start_meets_tol`` from the one product ``w v_init``, before the
    right-hand side is formed.  A start it certifies is returned with that
    product, so a kept solve forms one ``d x d x N`` product, the one handed
    on.  The bound certifies a start that fits both terms of the system on
    its own (``w v_init`` near ``u_next``, ``v_init`` near
    ``step(u_cur)``); any other goes to ``cg_solve``.  Narrow layers skip
    the bound: their Woodbury start solves the system without fitting each
    term.

    Returns ``(v, wv)``.  ``wv`` is ``w_next @ v`` when the start was kept:
    the check's product on a square or tall layer, else formed once after
    CG, so it has the bits of that product computed afresh.  It is None
    when CG moved the start.
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
    wx = None
    if m >= d:
        v_init = np.asarray(v_init, dtype=np.float64)
        wx = w_next @ v_init
        if _start_meets_tol(w_next, u_next, u_cur, v_init, wx, tau, pi):
            return v_init, wx
    rhs = w_next.T @ u_next
    rhs *= tau
    k = max(1, V_BLOCK // max(rhs.shape[1], 1))
    for lo in range(0, d, k):
        rhs[lo:lo + k] += pi * _step(u_cur[lo:lo + k])

    def a(x):
        y = w_next.T @ (tau * (w_next @ x))
        y += pi * x
        return y

    if m < d:
        try:
            v_init = _woodbury(w_next, rhs, tau, pi)
        except np.linalg.LinAlgError:
            pass
    v, iters = cg_solve(a, rhs, v_init, V_TOL, 10 * d)
    if iters:
        return v, None
    return v, (w_next @ v if wx is None else wx)
