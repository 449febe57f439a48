"""Scalar and analytic references for the block solvers.

The package ships the matrix solvers a run calls; the tests check them
against these straight-line references: the single-column and scalar
prox minimizers, their objectives and brute-force minima, the step
prox's entrywise path, the weight step with every product formed afresh,
the composite weight-block objective, its proximal stationarity
residual, the descent inequality of the outer loop, and the packed step
pattern the state solve takes.
"""

import numpy as np

from stepbcd.prox import EPS_TINY, prox_l20_rows
from stepbcd.solvers import grad_psi


def packed_pattern(u):
    """The pattern ``u > 0`` packed along each row, one bit per entry, as
    ``solvers.solve_v`` takes ``step(U_i)``."""
    return np.packbits(u > 0, axis=1)


def prox_hardmax_column(y_index, b, mu):
    """Minimize ``||e_y - hardmax(u)||^2 + mu * ||u - b||^2`` over u.

    The minimum is attained either at ``b`` itself or, in the limit, at
    ``b + eps * e_y`` with ``eps`` just above ``delta = max(b) - b[y_index]``
    (which makes the hot coordinate the strict maximum and zeroes the
    hardmax term).  Comparing the two candidate values reduces to comparing
    ``mu * delta^2`` against ``||e_y - hardmax(b)||^2``; the epsilon limit
    is realized as ``delta + EPS_TINY``.  Exact equality keeps ``b``.
    """
    b = np.asarray(b, dtype=np.float64)
    delta = b.max() - b[y_index]
    if mu * delta * delta >= hardmax_miss(y_index, b):
        return b.copy()
    out = b.copy()
    out[y_index] += delta + EPS_TINY
    return out


def hardmax_miss(y_index, b):
    """``||e_y - hardmax(b)||^2``: the hardmax loss of keeping ``b``, with a
    1 at every entry attaining the maximum."""
    hm = (b == b.max()).astype(np.float64)
    return float(hm.sum() + 1.0 - 2.0 * hm[y_index])


def hardmax_objective(u, y_index, b, mu):
    """psi(u) = ||e_y - hardmax(u)||^2 + mu ||u - b||^2."""
    return hardmax_miss(y_index, u) + mu * float(((u - b) ** 2).sum())


def hardmax_oracle_min(y_index, b, mu):
    """Two candidates: keep b, or the analytic limit of the hot bump."""
    delta = b.max() - b[y_index]
    return min(hardmax_miss(y_index, b), mu * delta * delta)


def prox_step_scalar(a, b, rho):
    """Minimize ``(a - step(u))^2 + rho * (u - b)^2`` over scalar u.

    With ``t = 2a - 1`` the minimizer is:

    * ``b > 0``:  ``b`` if ``t > -rho b^2``, else 0 (equality keeps ``b``);
    * ``b <= 0``: ``b`` if ``t < rho b^2`` (or equal), else the one-sided
      limit 0+, realized as ``min(sqrt(t/rho) + b, EPS_TINY)`` (real since
      ``t > rho b^2 >= 0`` there).
    """
    t = 2.0 * a - 1.0
    if b > 0.0:
        return b if t >= -rho * b * b else 0.0
    if t > rho * b * b:
        return min(np.sqrt(t / rho) + b, EPS_TINY)
    return b


def prox_step_matrix_full(v_target, b, tau, pi):
    """``prox.prox_step_matrix`` without its kept-block certificate: every
    entry takes the branch tests, and the result is always a new array."""
    v_target = np.asarray(v_target, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lhs = pi * (2.0 * v_target - 1.0)
    quad = tau * b * b
    positive = b > 0.0
    bump = (lhs > quad) & ~positive
    zero = (-lhs > quad) & positive
    out = b.copy()
    out[zero] = 0.0
    if np.any(bump):
        tb = 2.0 * v_target[bump] - 1.0
        out[bump] = np.minimum(np.sqrt(tb * (pi / tau)) + b[bump], EPS_TINY)
    return out


def step_objective(u, a, b, rho):
    """phi(u) = (a - step(u))^2 + rho (u - b)^2, the scalar sub-problem cost."""
    return (a - float(u > 0.0)) ** 2 + rho * (u - b) ** 2


GRID = np.arange(-5.0, 5.0 + 1e-4, 1e-4)
GRID_NEG = GRID[GRID <= 0.0]
GRID_POS = GRID[GRID > 0.0]


def step_grid_min_brute(a, b, rho):
    """Minimum of phi over ``GRID``, by scanning every grid point."""
    s = (GRID > 0.0).astype(float)
    return float(((a - s) ** 2 + rho * (GRID - b) ** 2).min())


def step_grid_min(a, b, rho):
    """Same grid minimum, via convexity of (u-b)^2 on each activation segment."""

    def seg_min(seg, act):
        i = np.searchsorted(seg, b)
        best = np.inf
        for j in (i - 1, i, i + 1):
            if 0 <= j < seg.size:
                best = min(best, (a - act) ** 2 + rho * (seg[j] - b) ** 2)
        return best

    return min(seg_min(GRID_NEG, 0.0), seg_min(GRID_POS, 1.0))


def step_oracle_min(a, b, rho):
    """The grid minimum plus the one-sided-limit candidate at ``EPS_TINY``."""
    return min(step_grid_min(a, b, rho), step_objective(EPS_TINY, a, b, rho))


def pgm_fresh(u, v, w0, tau, gamma, lam, L, beta, vw0=None):
    """``solvers.pgm`` with the product ``v @ w`` formed afresh at every
    step after the first, in ``grad_psi``: each of the ``L`` steps is that
    of an ``L = 1`` call from the last iterate, bit for bit."""
    w = w0
    for _ in range(L):
        g = grad_psi(w, u, v, tau, gamma, vw0)
        vw0 = None
        g *= beta
        np.subtract(w, g, out=g)
        w = prox_l20_rows(g, beta, lam)
    return w


def composite_objective(w, u, v, tau, gamma, lam):
    """``(tau/2) ||u - v w||^2 + (gamma/2) ||w||^2`` plus ``lam`` times the
    nonzero-row count of ``w``; ``lam = 0`` gives the smooth part alone."""
    r = u - v @ w
    nnz_rows = int(np.any(w != 0.0, axis=1).sum())
    return 0.5 * tau * float((r * r).sum()) + 0.5 * gamma * float((w * w).sum()) + lam * nnz_rows


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
    g = tau * (v.T @ (v @ w - u)) + gamma * w
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


def check_descent(report, hp, tol=1e-9):
    """Check the per-iteration descent inequality

        F(k+1) - F(k) <= -((gamma - 1/beta)/2) * dW - (pi/2) * dV + tol.

    Returns ``(ok, worst_violation)``.  The bound is only guaranteed when
    gamma >= 1/beta and the weight sub-problems are solved to their fixed
    points; callers in that regime may assert on ``ok``.
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
