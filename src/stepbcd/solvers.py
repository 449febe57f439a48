"""Solvers: proximal gradient for the weight block, a CG solve for the state
block (seeded by Woodbury below a narrower layer), and the exact spectral
norm that bounds the valid proximal step size.

This module works in the transposed frame where rows of ``w`` are the
sparsity groups; the trainer transposes weight blocks on the way in and out.
"""

from __future__ import annotations

import numpy as np

from .prox import _row_blocks, _unpacked, prox_l20_rows

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

# Columns in one chunk of the state solve.  Under OpenBLAS 0.3.31 on a
# 2-core x86-64 host, a column slice of ``w x`` or ``w^T u`` does not always
# have the bits of the same slice of the whole product: with ``w`` 10 x 2000,
# N = 2000 and 2 threads, chunks of 32, 64, 166 and 262 columns changed
# them, while 100, 256 and 512 kept them; and where N is not a multiple of
# 8, the last N mod 8 columns can differ.  At this width the solves of the
# benchmark's shapes keep every bit, and a mini-batch of 100 columns is one
# chunk.
V_CHUNK = 256

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

    The gradient is the one ``w``-sized buffer formed: ``gamma w`` is added
    to it one row block of about ``prox.V_BLOCK`` entries at a time, as
    ``_add_pi_x`` adds ``pi x``, so no ``w``-sized ``gamma w`` is formed.
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
    for lo, hi in _row_blocks(*g.shape):
        g[lo:hi] += gamma * w[lo:hi]
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
    thresholded in the gradient's own buffer, so a step holds two
    ``w``-sized buffers, its iterate and its gradient.  The reference to
    ``w0`` is dropped once the first step is formed: a caller that passes
    a start it holds nowhere else has it released then.  A mini-batch
    sweep so hands over its old ``W_i``; a sweep that raises may then
    leave that ``W`` slot empty, as a ``CgError`` leaves a ``V_i`` partly
    written.
    """
    if L < 0 or beta <= 0.0:
        raise ValueError(f"pgm needs L >= 0 and beta > 0, got L={L} beta={beta}")
    if L == 0:
        return w0.copy()
    w, w0 = w0, None
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


def _col_sq(part, shape=None):
    """``(c * c).sum(axis=0)``, taken one row block at a time, where ``c``
    is the array ``part`` or, given ``shape``, the ``shape`` array whose rows
    ``lo:hi`` the call ``part(lo, hi)`` returns.  The objective, the block
    motions, CG and the start certificate's residual bound sum their
    squares here.  Each row block is squared into a C-ordered buffer whose
    first row is seeded with the running sums, so each column is added row
    after row, as numpy sums a C-ordered array: the result has the bits of
    that sum over the whole array, whatever the layout of the blocks.  A
    C-ordered block that ``part`` formed for the call, one that owns its
    data, such as a difference, is squared in its own buffer, so the sum
    holds one block at a time; a ``2000 x 2000`` sum of differences so
    took about 4.5 ms on a 2-core x86-64 host, against 21 ms squared into
    a second block.  Any other block, such as a view of ``part`` itself,
    is squared into a new one."""
    if shape is None:
        part, shape = (lambda lo, hi, c=part: c[lo:hi]), part.shape
    out = np.zeros(shape[1])
    for lo, hi in _row_blocks(*shape):
        c = part(lo, hi)
        own = c.flags.owndata and c.flags.c_contiguous
        c = np.multiply(c, c, out=c) if own else np.multiply(c, c, order="C")
        c[0] += out
        out = c.sum(axis=0)
        del c  # else it is live while the next block is formed
    return out


def _add_pi_x(y, pi, x, b=None):
    """``y + pi x``, or ``b - (y + pi x)`` given ``b``, in ``y``'s buffer, with
    ``pi x`` formed one row block at a time.  With ``y = w^T (tau w x)`` this
    applies the state system ``A = tau w^T w + pi I`` to ``x``; with ``y =
    tau w^T u_next`` and ``x`` the boolean ``U_i > 0`` it is ``solve_v``'s
    right-hand side."""
    for lo, hi in _row_blocks(*y.shape):
        y[lo:hi] += pi * x[lo:hi]
    return y if b is None else np.subtract(b, y, out=y)


def cg_solve(w, tau, pi, b, x0, tol, max_iters, callback=None):
    """Multi-RHS conjugate gradients for the state system
    ``(tau w^T w + pi I) x = b`` with ``w`` of shape ``m x d``; columns are
    independent.

    Each column runs its own CG (scalar steps are computed per column and
    converged columns freeze), so the result is independent of how columns
    are batched, up to the bits of the products and the sign of zeros: a
    frozen column takes ``x += 0 p`` while another column of the call
    iterates, which turns a ``-0.0`` into ``+0.0``.  ``solve_v`` calls it
    once per chunk of columns.  Stops once every column has relative
    residual ``||b_j - A x_j|| / ||b_j||`` at most ``tol`` (a zero column
    is measured absolutely); a float64 start that already meets it is
    returned as it is, the same array, after 0 iterations.  ``x0``, which
    may be a view of the caller's state, is never written: a start that
    misses is copied once, before the first iteration.  Raises ``CgError``
    if ``max_iters`` iterations do not.

    The start's residual is formed from the one ``m x N`` product
    ``tau w x0`` and squared by ``_col_sq`` one row block at a time, like
    the column norms; the full residual is formed only when a column misses
    ``tol``.  Each iteration applies the system once, through ``_add_pi_x``,
    and updates the iterate, the residual and the direction in place,
    through the one buffer of ``A p``.

    Returns ``(x, iterations_used)``.
    """
    nb = np.sqrt(_col_sq(b))
    scale = np.where(nb > 0.0, nb, 1.0)
    col_target = tol * scale
    x = np.asarray(x0, dtype=np.float64)
    twx = w @ x
    twx *= tau
    rs = _col_sq(lambda lo, hi: _add_pi_x(w[:, lo:hi].T @ twx, pi, x[lo:hi], b[lo:hi]), b.shape)
    if np.all(np.sqrt(rs) <= col_target):
        return x, 0
    r = _add_pi_x(w.T @ twx, pi, x, b)
    del twx
    x = x.copy()
    rs = _col_sq(r)
    p = r.copy()

    for it in range(max_iters):
        active = np.sqrt(rs) > col_target
        if not active.any():
            return x, it
        ap = _add_pi_x(w.T @ (tau * (w @ p)), pi, p)
        pap = np.einsum("ij,ij->j", p, ap)
        safe = active & (pap > 0.0)
        alpha = np.divide(rs, pap, out=np.zeros_like(rs), where=safe)
        ap *= alpha
        r -= ap
        np.multiply(p, alpha, out=ap)
        x += ap
        del ap  # released before the next A p is formed
        rs_new = _col_sq(r)
        beta = np.divide(rs_new, rs, out=np.zeros_like(rs), where=rs > 0.0)
        p *= beta
        p += r
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


def _start_meets_tol(w, u_next, s_cur, x, wx, tau, pi):
    """The per-column sums ``(e2, g2)`` when every column of the start
    ``x`` provably meets ``V_TOL``, judged from the product ``wx = w @ x``
    alone; else None.

    With ``e = u_next - wx`` and ``s_cur`` the packed pattern of
    ``step(U_i)``, read as 0/1, the residual is
    ``r = tau w^T e + pi (s_cur - x)``, so ``||r_j|| <= R_j = tau ||w||_F ||e_j|| + pi ||s_j - x_j||``.  Expanding
    ``A x_j`` gives ``||A x_j||^2 >= Q_j^2 = 2 tau pi ||wx_j||^2 + pi^2
    ||x_j||^2``, and ``||b_j|| >= Q_j - R_j``.  So ``(1 + V_TOL) R_j <=
    V_TOL Q_j`` gives ``||r_j|| <= V_TOL ||b_j||``, the test ``cg_solve``
    applies; a zero ``b_j``, which it measures absolutely, passes only with
    ``R_j = 0``, where ``r_j = 0`` too.  Both differences are squared one
    row block at a time by ``_col_sq``, the pattern unpacked per row block,
    into ``e2 = ||e_j||^2`` and ``g2 = ||s_j - x_j||^2``, both summed
    before ``R`` is formed so that no column vector of ``R`` is live while
    a row block is; ``Q``'s two column sums are taken by ``np.einsum``,
    which forms no square and is faster here.
    """
    n = x.shape[1]
    e2 = _col_sq(lambda lo, hi: u_next[lo:hi] - wx[lo:hi], wx.shape)
    g2 = _col_sq(lambda lo, hi: _unpacked(s_cur[lo:hi], 0, n) - x[lo:hi], x.shape)
    r = np.sqrt(e2)
    r *= tau * np.linalg.norm(w)
    r += pi * np.sqrt(g2)
    q = np.sqrt(2.0 * tau * pi * np.einsum("ij,ij->j", wx, wx) + pi * pi * np.einsum("ij,ij->j", x, x))
    return (e2, g2) if np.all((1.0 + V_TOL) * r <= V_TOL * q) else None


def _col_chunks(n):
    """``(lo, hi)`` bounds of the ``V_CHUNK``-column chunks of ``n`` columns.
    A one-column tail joins the chunk before it: numpy sums a one-column
    array pairwise, not row after row, so its motion would take other bits."""
    lo = 0
    while lo < n:
        hi = n if n - lo <= V_CHUNK + 1 else lo + V_CHUNK
        yield lo, hi
        lo = hi


def solve_v(w_next, u_next, s_cur, tau, pi, v_init):
    """Solve the hidden-state block: the SPD system

        (tau w^T w + pi I) v = tau w^T u_next + pi step(U_i)

    with ``w = w_next`` of shape ``m x d`` and ``s_cur`` the pattern
    ``U_i > 0``, which is ``step(U_i)``, packed along each row by
    ``prox._packed_step`` (``d x ceil(N/8)`` bytes): the solve reads ``U_i``
    through nothing else, so the caller may release ``U_i`` before the
    call.  An ``s_cur`` that is not such a ``uint8`` array, such as ``U_i``
    itself or its boolean mask, raises ``ValueError``.

    The solve is written into ``v_init``'s own buffer when it is float64,
    else into a float64 copy; either way that array is returned as ``v``.
    Its columns are independent, so it works through chunks of
    ``V_CHUNK`` columns.  Per chunk it unpacks the chunk's pattern, forms
    the right-hand side, with ``pi s_cur`` added one row block at a time,
    and picks a start: when ``m < d`` (the layer below a narrower one) the
    Woodbury solution through the ``m x m`` system, or the chunk of
    ``v_init`` if that system is numerically singular; otherwise the chunk
    of ``v_init``.
    ``cg_solve`` then runs from it until every column meets ``V_TOL``; a
    start that meets it is kept as it is.  The chunk's squared motion
    ``||v_new - v_init||^2``, per column, is summed by ``_col_sq``, and the
    new columns are written over the old.  A chunk whose every column is
    kept is left as it was, ``-0.0`` entries included; CG over all columns
    would turn those into ``+0.0`` whenever another column iterates.  CG
    stops after ``10 * d`` iterations and raises ``CgError`` if a column
    still misses; the chunks before the failing one are then already
    written, so ``v_init`` holds a partly updated state.  ``pi > 0``
    guarantees positive definiteness.

    On a square or tall layer (``m >= d``) ``v_init`` is first checked by
    ``_start_meets_tol`` from the one product ``w v_init``, before any
    right-hand side is formed.  A start it certifies is returned with that
    product, so a kept solve forms one ``d x d x N`` product, the one handed
    on; a start it does not certify drops the product and goes to the
    chunks.  The bound certifies a start that fits both terms of the system
    on its own (``w v_init`` near ``u_next``, ``v_init`` near ``s_cur``).
    Narrow layers skip the bound: their Woodbury start solves the system
    without fitting each term.

    Returns ``(v, wv, dv, kept)``: ``wv`` is the product ``w_next @ v`` on
    every path, the check's product for a certified start, else formed once
    from the whole new ``v`` after the last chunk; either way it has the
    bits of that product computed afresh.  ``dv`` is ``v``'s squared
    motion, with the bits of ``_col_sq(v - v_init).sum()``; a certified
    start has not moved.  ``kept`` is None on the chunked path; for a
    certified start it is the check's two per-column sums ``(e2, g2)``:
    ``e2`` of ``u_next - wv`` and ``g2`` of ``unpack(s_cur) - v``, each
    with the bits of ``_col_sq`` over that difference, which the caller
    may sum instead of taking them again.
    """
    if pi <= 0.0:
        raise ValueError(f"pi must be positive for an SPD system, got {pi}")
    s_cur = np.asarray(s_cur)
    if s_cur.dtype != np.uint8:
        raise ValueError(f"solve_v takes the packed pattern of U_i > 0, got a {s_cur.dtype} array")
    if w_next.shape[0] != u_next.shape[0] or w_next.shape[1] != v_init.shape[0]:
        raise ValueError(
            f"solve_v shape mismatch: w {w_next.shape}, u_next {u_next.shape}, v_init {v_init.shape}"
        )
    if s_cur.shape != (v_init.shape[0], (v_init.shape[1] + 7) // 8):
        raise ValueError(f"packed pattern {s_cur.shape} does not match the warm start {v_init.shape}")

    m, d = w_next.shape
    v = np.asarray(v_init, dtype=np.float64)
    if m >= d:
        wx = w_next @ v
        kept = _start_meets_tol(w_next, u_next, s_cur, v, wx, tau, pi)
        if kept is not None:
            return v, wx, 0.0, kept
        del wx
    dv = np.empty(v.shape[1])
    for lo, hi in _col_chunks(v.shape[1]):
        rhs = w_next.T @ u_next[:, lo:hi]
        rhs *= tau
        _add_pi_x(rhs, pi, _unpacked(s_cur, lo, hi))
        old = v[:, lo:hi]
        start = old
        if m < d:
            try:
                start = _woodbury(w_next, rhs, tau, pi)
            except np.linalg.LinAlgError:
                pass
        new, _ = cg_solve(w_next, tau, pi, rhs, start, V_TOL, 10 * d)
        del rhs, start
        dv[lo:hi] = _col_sq(lambda a, b: new[a:b] - old[a:b], new.shape)
        old[...] = new
        del new  # else it is live while the next chunk is formed
    return v, w_next @ v, float(dv.sum()), None
