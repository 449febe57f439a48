import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepbcd import prox, solvers
from stepbcd.core import make_rng
from stepbcd.prox import step
from stepbcd.solvers import CgError, cg_solve, grad_psi, pgm, solve_v, spectral_norm

from oracles import composite_objective, p_stationarity_residual, packed_pattern


def ridge_solution(u, v, tau, gamma):
    """Dense normal-equations oracle for the smooth part."""
    d = v.shape[1]
    return np.linalg.solve(tau * (v.T @ v) + gamma * np.eye(d), tau * (v.T @ u))


def random_instance(seed, n=8, p=6, q=4, scale=None):
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(n) if scale is None else scale
    v = scale * rng.standard_normal((n, p))
    u = rng.standard_normal((n, q))
    w0 = rng.standard_normal((p, q))
    return u, v, w0


class NoProducts(np.ndarray):
    """An array whose every matrix product raises: proof that none is formed."""

    def __matmul__(self, other):
        raise AssertionError("a matrix product was formed")

    __rmatmul__ = __matmul__


def zero_residual_instance(seed, n=9, p=7, q=5):
    """``u = v @ w`` exactly, with a negative column in ``v`` and ``-0.0`` entries in ``w``."""
    _, v, w = random_instance(seed, n, p, q)
    v[:, 0] = -np.abs(v[:, 0])
    w[0, :] = -0.0
    w[1, 1] = -0.0
    return v @ w, v, w


class TestGradPsi:
    def test_tau_zero_decouples(self):
        u, v, w = random_instance(1)
        assert np.allclose(grad_psi(w, u, v, 0.0, 0.3), 0.3 * w)

    def test_zero_at_normal_equations_solution(self):
        u, v, _ = random_instance(2, n=5, p=4, q=3)
        w = ridge_solution(u, v, tau=1.0, gamma=0.2)
        assert np.max(np.abs(grad_psi(w, u, v, 1.0, 0.2))) < 1e-10

    def test_matches_central_differences(self):
        u, v, w = random_instance(3, n=6, p=5, q=4)
        tau, gamma = 0.8, 0.3
        g = grad_psi(w, u, v, tau, gamma)
        rng = make_rng(4)
        hstep = 1e-6
        for _ in range(10):
            d = rng.standard_normal(w.shape)
            d /= np.linalg.norm(d)
            plus = composite_objective(w + hstep * d, u, v, tau, gamma, lam=0.0)
            minus = composite_objective(w - hstep * d, u, v, tau, gamma, lam=0.0)
            fd = (plus - minus) / (2 * hstep)
            assert abs(fd - float((g * d).sum())) < 1e-5 * max(1.0, abs(fd))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grad_psi(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 4)), 1.0, 1.0)

    @pytest.mark.parametrize("frame", ["plain", "transposed"])
    def test_carried_product_gives_the_same_bits(self, frame):
        # The trainer passes transposed views; both layouts must agree.
        u, v, w = random_instance(12, n=9, p=7, q=5)
        if frame == "transposed":
            u, v, w = (np.ascontiguousarray(a.T).T for a in (u, v, w))
        tau, gamma = 0.7, 0.3
        inputs = [a.copy() for a in (u, v, w)]
        expected = tau * (v.T @ (v @ w - u)) + gamma * w
        vw = v @ w
        residual = vw - u
        assert np.array_equal(grad_psi(w, u, v, tau, gamma), expected)
        assert np.array_equal(grad_psi(w, u, v, tau, gamma, vw), expected)
        # The carried product now holds the residual; the inputs are untouched.
        assert np.array_equal(vw, residual)
        for a, ref in zip((u, v, w), inputs):
            assert np.array_equal(a, ref)

    def test_carried_product_of_wrong_shape_rejected(self):
        u, v, w = random_instance(13)
        with pytest.raises(ValueError, match="product"):
            grad_psi(w, u, v, 1.0, 0.1, np.zeros((u.shape[0], u.shape[1] + 1)))
        with pytest.raises(ValueError, match="product"):
            grad_psi(w, u, v, 1.0, 0.1, (v @ w).T)

    @pytest.mark.parametrize("frame", ["plain", "transposed"])
    def test_zero_residual_gives_the_product_path_bits(self, frame):
        # Signed zeros included: gamma * (-0.0) is -0.0, and it keeps its
        # sign only if the gradient starts from -0.0, so a start that is not
        # the product's +0.0 would show in the bytes.
        u, v, w = zero_residual_instance(17)
        if frame == "transposed":
            u, v, w = (np.ascontiguousarray(a.T).T for a in (u, v, w))
        tau, gamma = 0.7, 0.3
        expected = v.T @ (v @ w - u)
        assert not expected.any()
        expected *= tau
        expected += gamma * w
        assert np.signbit(expected).any() and not np.signbit(expected[0]).any()
        assert grad_psi(w, u, v, tau, gamma).tobytes() == expected.tobytes()
        assert grad_psi(w, u, v, tau, gamma, v @ w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("frame", ["plain", "transposed"])
    def test_target_that_is_the_product_forms_none(self, frame):
        # The sweep passes the carried product as both target and product
        # when the step prox kept it: the residual is known to be zero, and
        # the buffer, now the new U_i, is neither read for a product nor
        # written.
        u, v, w = zero_residual_instance(20)
        if frame == "transposed":
            u, v, w = (np.ascontiguousarray(a.T).T for a in (u, v, w))
        kept = u.copy()
        g = grad_psi(w, u, v.view(NoProducts), 0.7, 0.3, u)
        expected = grad_psi(w, u, v, 0.7, 0.3)
        assert g.tobytes() == expected.tobytes()
        assert g.flags.c_contiguous == expected.flags.c_contiguous
        assert u.tobytes() == kept.tobytes()


class TestPgm:
    def test_zero_iterations_returns_start(self):
        u, v, w0 = random_instance(5)
        out = pgm(u, v, w0, 1.0, 0.1, 0.05, L=0, beta=0.01)
        assert np.array_equal(out, w0)
        assert not np.shares_memory(out, w0)

    def test_lambda_zero_converges_to_ridge(self):
        u, v, w0 = random_instance(6, n=6, p=4, q=3)
        tau, gamma = 1.0, 0.5
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        out = pgm(u, v, w0, tau, gamma, 0.0, L=2000, beta=beta)
        assert np.max(np.abs(out - ridge_solution(u, v, tau, gamma))) < 1e-6

    def test_config_validation(self):
        u, v, w0 = random_instance(5)
        with pytest.raises(ValueError):
            pgm(u, v, w0, 1.0, 0.1, 0.05, L=-1, beta=0.1)
        with pytest.raises(ValueError):
            pgm(u, v, w0, 1.0, 0.1, 0.05, L=1, beta=0.0)

    def test_objective_nonincreasing_with_valid_step(self):
        u, v, w = random_instance(7, n=10, p=6, q=5)
        tau, gamma, lam = 1.0, 0.2, 0.1
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        prev = composite_objective(w, u, v, tau, gamma, lam)
        for _ in range(500):
            w = pgm(u, v, w, tau, gamma, lam, L=1, beta=beta)
            cur = composite_objective(w, u, v, tau, gamma, lam)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur

    @pytest.mark.parametrize("L", [1, 3])
    def test_carried_product_gives_the_same_bits(self, L):
        u, v, w0 = random_instance(14, n=12, p=6, q=5)
        tau, gamma, lam = 1.0, 0.2, 0.05
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        inputs = [a.copy() for a in (u, v, w0)]
        vw0 = v @ w0
        expected = pgm(u, v, w0, tau, gamma, lam, L, beta)
        assert np.array_equal(pgm(u, v, w0, tau, gamma, lam, L, beta, vw0), expected)
        # Only the carried product is written: it now holds the first residual.
        assert np.array_equal(vw0, v @ w0 - u)
        for a, ref in zip((u, v, w0), inputs):
            assert np.array_equal(a, ref)

    @pytest.mark.parametrize("L", [1, 3])
    def test_zero_first_residual_gives_the_product_path_bits(self, L):
        # The first gradient skips its product, later ones form theirs; the
        # reference forms every product, with pgm's in-place step.
        u, v, w0 = zero_residual_instance(19, n=12, p=6, q=5)
        tau, gamma, lam = 1.0, 0.2, 0.05
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        w = w0
        for _ in range(L):
            g = v.T @ (v @ w - u)
            g *= tau
            g += gamma * w
            g *= beta
            np.subtract(w, g, out=g)
            g[np.linalg.norm(g, axis=1) < np.sqrt(2.0 * beta * lam)] = 0.0
            w = g
        if L == 1:  # -0.0 minus the gradient's +0.0 stays -0.0
            assert w[1, 1] == 0.0 and np.signbit(w[1, 1])
        assert pgm(u, v, w0, tau, gamma, lam, L, beta).tobytes() == w.tobytes()
        assert pgm(u, v, w0, tau, gamma, lam, L, beta, v @ w0).tobytes() == w.tobytes()

    @pytest.mark.parametrize("L", [1, 3])
    def test_target_that_is_the_product_gives_the_product_path_bits(self, L):
        u, v, w0 = zero_residual_instance(21, n=12, p=6, q=5)
        tau, gamma, lam = 1.0, 0.2, 0.05
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        kept = u.copy()
        expected = pgm(u, v, w0, tau, gamma, lam, L, beta)
        assert pgm(u, v, w0, tau, gamma, lam, L, beta, u).tobytes() == expected.tobytes()
        if L == 1:  # later iterations form their products
            out = pgm(u, v.view(NoProducts), w0, tau, gamma, lam, L, beta, u)
            assert out.tobytes() == expected.tobytes()
        assert u.tobytes() == kept.tobytes()

    def test_carried_product_of_wrong_shape_rejected(self):
        u, v, w0 = random_instance(15)
        with pytest.raises(ValueError, match="product"):
            pgm(u, v, w0, 1.0, 0.1, 0.05, L=1, beta=0.1, vw0=np.zeros((u.shape[0] + 1, u.shape[1])))

    def test_carried_product_is_the_residual_buffer(self):
        # The product is the caller's: it exists before the step either way
        # (the sweep carries it from the objective), so it is allocated
        # before tracing starts.  With more samples than twice the input
        # width, the samples-by-outputs residual is the largest block of
        # the step: reusing the product for it keeps the step's own peak
        # below one such block, and a residual in a fresh buffer would not.
        rng = make_rng(16)
        n, p, q = 600, 150, 300
        u = rng.standard_normal((n, q))
        v = rng.standard_normal((n, p)) / np.sqrt(n)
        w0 = rng.standard_normal((p, q))
        args = (u, v, w0, 1.0, 0.1, 0.05, 1, 0.01)

        def peak(vw0):
            tracemalloc.start()
            try:
                pgm(*args, vw0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        carried = peak(v @ w0)
        assert carried < u.nbytes
        assert carried <= peak(None)

    def test_step_holds_its_iterate_and_its_gradient(self):
        # The start is made in the call, so pgm alone holds it, as a
        # mini-batch sweep hands over the old W_i.  With fewer samples than
        # inputs the weight blocks are the step's largest: each step holds
        # its iterate and its gradient, adds gamma w one row block at a
        # time, and the start goes once the first step is formed.  Keeping
        # the start, or forming gamma w whole, each adds a weight block.
        rng = make_rng(23)
        n, p, q = 50, 1000, 200
        u = rng.standard_normal((n, q))
        v = rng.standard_normal((n, p)) / np.sqrt(n)
        tracemalloc.start()
        try:
            pgm(u, v, rng.standard_normal((p, q)), 1.0, 0.1, 0.05, 3, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * p * q
        assert peak <= 2 * block + 8 * prox.V_BLOCK + u.nbytes, f"peak {peak / block:.2f} weight blocks"


class TestStationarityResidual:
    def test_all_zero_is_stationary(self):
        z = np.zeros((4, 3))
        assert p_stationarity_residual(z, np.zeros((5, 3)), np.zeros((5, 4)), 1.0, 0.1, 0.2, 0.5) == 0.0

    def test_ridge_solution_with_lambda_zero(self):
        u, v, _ = random_instance(8, n=6, p=4, q=3)
        w = ridge_solution(u, v, 1.0, 0.4)
        assert p_stationarity_residual(w, u, v, 1.0, 0.4, 0.0, 0.01) < 1e-9

    def test_converged_pgm_iterate(self):
        u, v, w0 = random_instance(9, n=9, p=5, q=4)
        tau, gamma, lam = 1.0, 0.5, 0.08
        beta = 0.9 / (tau * spectral_norm(v) ** 2 + gamma)
        w = pgm(u, v, w0, tau, gamma, lam, L=500, beta=beta)
        assert p_stationarity_residual(w, u, v, tau, gamma, lam, beta) <= 1e-6


class TestSpectralNorm:
    def test_identity(self):
        assert abs(spectral_norm(np.eye(4)) - 1.0) < 1e-12

    def test_diagonal(self):
        assert abs(spectral_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-9

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 5))) == 0.0

    def test_matches_svd_oracle(self):
        cases = {
            "tall": make_rng(10).standard_normal((20, 15)),
            "wide": make_rng(11).standard_normal((15, 20)),
            "rank-1": np.outer(make_rng(12).standard_normal(7), make_rng(13).standard_normal(9)),
            # two nearly equal singular values stall a power iteration
            "near-degenerate": np.diag([1.0, 1.0 - 1e-4]),
        }
        for name, v in cases.items():
            ref = np.linalg.svd(v, compute_uv=False)[0]
            assert abs(spectral_norm(v) - ref) <= 1e-12 * ref, name


def spd_system(seed, d=50, n=20, tau=1.0, pi=0.5):
    rng = make_rng(seed)
    w = rng.standard_normal((d + 3, d)) / np.sqrt(d)
    u_next = rng.standard_normal((d + 3, n))
    u_cur = rng.standard_normal((d, n))
    a = tau * (w.T @ w) + pi * np.eye(d)
    b = tau * (w.T @ u_next) + pi * step(u_cur)
    return w, u_next, u_cur, a, b


@pytest.fixture
def cg_calls(monkeypatch):
    """Record the iteration count of every ``cg_solve`` call that ``solve_v`` makes."""
    calls = []

    def spy(*args, **kwargs):
        x, iters = cg_solve(*args, **kwargs)
        calls.append(iters)
        return x, iters

    monkeypatch.setattr(solvers, "cg_solve", spy)
    return calls


@pytest.fixture
def v_tol(monkeypatch):
    """Set the state-solve tolerance ``solvers.V_TOL`` for one test."""
    return lambda tol: monkeypatch.setattr(solvers, "V_TOL", tol)


def column_residuals(w, u_next, u_cur, v, tau, pi):
    """Relative residual of each column of ``v`` in the dense ``d x d`` system;
    a zero column of the right-hand side is measured absolutely, as ``cg_solve`` does."""
    a = tau * (w.T @ w) + pi * np.eye(w.shape[1])
    b = tau * (w.T @ u_next) + pi * step(u_cur)
    nb = np.linalg.norm(b, axis=0)
    return np.linalg.norm(b - a @ v, axis=0) / np.where(nb > 0.0, nb, 1.0)


def narrow_system(seed, m=10, d=200, n=20, scale=3.0):
    rng = make_rng(seed)
    return scale * rng.standard_normal((m, d)), rng.standard_normal((m, n)), rng.standard_normal((d, n))


def kept_start_system(seed, m, d, n=5):
    """A start ``x = step(u_cur)`` that fits both terms of the system on its own:
    ``u_next = (1 - 1e-12) w x``."""
    rng = make_rng(seed)
    w = rng.standard_normal((m, d)) / np.sqrt(d)
    u_cur = rng.standard_normal((d, n))
    x = step(u_cur)
    return w, (1.0 - 1e-12) * (w @ x), u_cur, x


class TestSolveV:
    def test_zero_weights_give_step_of_u(self, cg_calls, v_tol):
        v_tol(1e-12)
        rng = make_rng(11)
        u_cur = rng.standard_normal((6, 5))
        w = np.zeros((4, 6))
        u_next = rng.standard_normal((4, 5))
        out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau=1.0, pi=0.7, v_init=np.zeros((6, 5)))
        assert np.allclose(out, step(u_cur), atol=1e-10)
        assert cg_calls == [0]

    def test_tau_zero_guard(self, cg_calls, v_tol):
        v_tol(1e-12)
        rng = make_rng(12)
        u_cur = rng.standard_normal((6, 5))
        w = rng.standard_normal((4, 6))
        u_next = rng.standard_normal((4, 5))
        out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau=0.0, pi=0.7, v_init=np.zeros((6, 5)))
        assert np.allclose(out, step(u_cur), atol=1e-10)
        assert cg_calls == [0]

    def test_matches_dense_factorization_oracle(self, v_tol):
        v_tol(1e-10)
        w, u_next, u_cur, a, b = spd_system(13)
        ref = np.linalg.solve(a, b)
        out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=np.zeros_like(u_cur))
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-8

    def test_warm_start_independence(self, v_tol):
        w, u_next, u_cur, _, _ = spd_system(14, d=30, n=10)
        tol = 1e-10
        v_tol(tol)
        cold, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=np.zeros_like(u_cur))
        warm, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=make_rng(15).standard_normal(u_cur.shape))
        assert np.linalg.norm(cold - warm) / np.linalg.norm(cold) <= 10 * tol

    def test_float_pattern_is_rejected(self):
        # The solve takes U_i's pattern packed one bit per entry; U_i
        # itself, its 0/1 step as floats, or its unpacked boolean mask
        # raises rather than being read as that pattern, and so does a
        # packed pattern of other columns.
        w, u_next, u_cur, _, _ = spd_system(60, d=6, n=3)
        for wrong in (u_cur, step(u_cur), u_cur > 0):
            with pytest.raises(ValueError, match="packed pattern"):
                solve_v(w, u_next, wrong, 1.0, 0.5, v_init=np.zeros_like(u_cur))
        with pytest.raises(ValueError, match="packed pattern"):
            solve_v(w, u_next, packed_pattern(np.ones((6, 9))), 1.0, 0.5, v_init=np.zeros_like(u_cur))

    @pytest.mark.parametrize("m, d", [(10, 200), (8, 8)])
    def test_pattern_gives_the_float_step_bits(self, cg_calls, m, d):
        # The packed pattern enters the right-hand side as pi * step(U_i)
        # did, bit for bit: CG from the same start (the Woodbury iterate on
        # a narrow layer, v_init on a square one, whose check fails) takes
        # the same iterations to the same bits.
        if m < d:
            w, u_next, u_cur = narrow_system(50, scale=30.0)
            tau, pi = 1.0, 1e-8
        else:
            rng = make_rng(61)
            w = rng.standard_normal((m, d)) / np.sqrt(d)
            u_next, u_cur = rng.standard_normal((m, 5)), rng.standard_normal((d, 5))
            tau, pi = 1.0, 0.5
        v, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
        rhs = tau * (w.T @ u_next) + pi * step(u_cur)
        start = solvers._woodbury(w, rhs, tau, pi) if m < d else np.zeros_like(u_cur)
        ref, iters = cg_solve(w, tau, pi, rhs, start, solvers.V_TOL, 10 * d)
        assert cg_calls == [iters] and iters > 0
        assert v.tobytes() == ref.tobytes()

    def test_pi_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            solve_v(np.eye(2), np.eye(2), np.eye(2), 1.0, 0.0, np.eye(2))

    def test_nonconvergence_raises_with_residual(self):
        w, _, _, _, b = spd_system(16, d=40, n=6)
        with pytest.raises(CgError, match="relative residual") as exc:
            cg_solve(w, 1.0, 0.5, b, np.zeros_like(b), tol=1e-14, max_iters=1)
        assert exc.value.residual > 1e-14

    def test_error_reports_the_worst_column(self):
        # Column 0 is an eigenvector, so one CG step solves it; column 1 is
        # tiny and still far off.  The Frobenius ratio of the two sits below
        # tol, but the failing column's own ratio does not.
        w, _, _, a, _ = spd_system(19, d=40, n=1)
        eigvec = np.linalg.eigh(a)[1][:, -1]
        small = 1e-6 * make_rng(20).standard_normal(40)
        b = np.column_stack([eigvec, small])
        tol = 1e-5
        iterates = []
        with pytest.raises(CgError) as exc:
            cg_solve(w, 1.0, 0.5, b, np.zeros_like(b), tol=tol, max_iters=1, callback=iterates.append)
        assert np.linalg.norm(b - a @ iterates[-1]) / np.linalg.norm(b) < tol
        assert exc.value.residual > tol
        assert exc.value.iters == 1

    @pytest.mark.parametrize("m, d, n, from_v_init", [(3, 8, 5, False), (10, 200, 4, False),
                                                      (8, 8, 5, True), (12, 8, 5, True)])
    def test_path_follows_layer_shape(self, cg_calls, m, d, n, from_v_init):
        # Below a narrower layer (m < d) CG starts from the Woodbury iterate,
        # which already meets the tolerance: 0 iterations, returned bit for
        # bit.  On a square or tall layer CG starts from v_init: it iterates
        # from zero, and returns an exact start after 0 iterations.
        rng = make_rng(21)
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        u_next, u_cur = rng.standard_normal((m, n)), rng.standard_normal((d, n))
        tau, pi = 1.0, 0.5
        out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros((d, n)))
        rhs = tau * (w.T @ u_next) + pi * step(u_cur)
        assert from_v_init == (m >= d)
        if not from_v_init:
            assert cg_calls == [0]
            assert np.array_equal(out, solvers._woodbury(w, rhs, tau, pi))
        else:
            assert len(cg_calls) == 1 and cg_calls[0] > 0
            exact = np.linalg.solve(tau * (w.T @ w) + pi * np.eye(d), rhs)
            cg_calls.clear()
            again, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=exact)
            assert cg_calls == [0]
            assert np.array_equal(again, exact)

    @pytest.mark.parametrize("m, d", [(3, 8), (8, 8), (12, 8)])
    def test_kept_start_hands_back_its_product(self, cg_calls, m, d):
        # Below a narrower layer the kept start is the Woodbury iterate; on a
        # square or tall layer it is an exact v_init.  Either way the product
        # of the residual check comes back with the bits of w @ v.
        rng = make_rng(26)
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        u_next, u_cur = rng.standard_normal((m, 5)), rng.standard_normal((d, 5))
        tau, pi = 1.0, 0.5
        rhs = tau * (w.T @ u_next) + pi * step(u_cur)
        exact = np.linalg.solve(tau * (w.T @ w) + pi * np.eye(d), rhs)
        v, wv, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=exact)
        assert cg_calls == [0]
        assert v is exact or m < d
        assert wv.tobytes() == (w @ v).tobytes()

    @pytest.mark.parametrize("m, d", [(8, 8), (12, 8), (200, 200)])
    def test_start_fitting_each_term_is_kept_without_cg(self, cg_calls, m, d):
        # The check certifies the start from w @ x alone: no right-hand side,
        # no CG call, and the product comes back with the bits of w @ v.
        w, u_next, u_cur, x = kept_start_system(28, m, d)
        v, wv, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=x)
        assert cg_calls == []
        assert v is x
        assert wv.tobytes() == (w @ v).tobytes()
        assert column_residuals(w, u_next, u_cur, v, 1.0, 0.5).max() <= solvers.V_TOL

    @pytest.mark.parametrize("m, d", [(8, 8), (12, 8)])
    def test_one_flipped_state_entry_goes_to_cg_once(self, cg_calls, m, d):
        w, _, u_cur, x = kept_start_system(29, m, d)
        x[3, 2] = 1.0 - x[3, 2]
        u_next = w @ x
        v, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=x)
        assert len(cg_calls) == 1 and cg_calls[0] > 0
        assert column_residuals(w, u_next, u_cur, v, 1.0, 0.5).max() <= solvers.V_TOL

    @pytest.mark.parametrize("m, d", [(8, 8), (12, 8)])
    def test_failed_check_kept_by_cg_hands_back_its_product(self, cg_calls, m, d):
        # An exact start that does not fit each term on its own fails the
        # check; CG keeps it, and the check's product w x is handed back
        # with the bits of that product formed afresh.
        rng = make_rng(30)
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        u_next, u_cur = rng.standard_normal((m, 5)), rng.standard_normal((d, 5))
        rhs = w.T @ u_next + 0.5 * step(u_cur)
        exact = np.linalg.solve(w.T @ w + 0.5 * np.eye(d), rhs)
        v, wv, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, 0.5, v_init=exact)
        assert cg_calls == [0]
        assert v is exact
        assert wv.tobytes() == (w @ exact).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(4, 4), (9, 6), (12, 12)]),
        t=st.floats(0.0, 1.0),
        log_ce=st.floats(-4.0, 3.0),
        log_cx=st.floats(-4.0, 3.0),
    )
    def test_kept_start_meets_tol(self, seed, shape, t, log_ce, log_cx):
        # (tau, pi) runs log-linearly from (1e-6, 1e-7) to (1, 0.5).  The
        # start's two misfits, e = u_next - w x and s - x, are drawn so that
        # tau ||w||_F ||e_j|| and pi ||s_j - x_j|| are c_e and c_x times
        # V_TOL Q_j, on both sides of the bound.  A start the check keeps
        # must meet V_TOL in the dense system, and one with c_e + c_x <= 0.9
        # must be kept.
        tau, pi = 1e-6 ** (1.0 - t), 1e-7 ** (1.0 - t) * 0.5 ** t
        m, d = shape
        rng = make_rng(seed)
        w = rng.standard_normal((m, d)) / np.sqrt(d)
        u_cur = rng.standard_normal((d, 3))
        s = step(u_cur)

        def unit_columns(shape):
            z = rng.standard_normal(shape)
            return z / np.linalg.norm(z, axis=0)

        def q(x):
            wx = w @ x
            return np.sqrt(2.0 * tau * pi * (wx * wx).sum(axis=0) + pi * pi * (x * x).sum(axis=0))

        x = s + unit_columns(s.shape) * (10.0 ** log_cx * solvers.V_TOL * q(s) / pi)
        e = unit_columns((m, 3)) * (10.0 ** log_ce * solvers.V_TOL * q(x) / (tau * np.linalg.norm(w)))
        u_next = w @ x + e
        # Each example gets its own spy: the cg_calls fixture would be set
        # once for all the examples of one test call.
        calls = []

        def spy(*args):
            calls.append(1)
            return cg_solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "cg_solve", spy)
            v, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=x)
        if not calls:
            assert v is x
            assert column_residuals(w, u_next, u_cur, v, tau, pi).max() <= solvers.V_TOL
        if 10.0 ** log_ce + 10.0 ** log_cx <= 0.9:
            assert not calls

    @pytest.mark.parametrize("m, d", [(10, 200), (8, 8), (12, 8)])
    def test_moved_start_hands_on_its_product(self, cg_calls, m, d):
        # Narrow: an ill-conditioned Woodbury iterate misses V_TOL, so CG
        # refines it.  Square or tall: CG iterates from a zero v_init.  The
        # moved iterate is written into v_init's buffer, and the solve hands
        # on w v of it, with the bits of that product formed afresh.
        if m < d:
            w, u_next, u_cur = narrow_system(41)
            pi = 1e-4
        else:
            rng = make_rng(27)
            w = rng.standard_normal((m, d)) / np.sqrt(d)
            u_next, u_cur = rng.standard_normal((m, 5)), rng.standard_normal((d, 5))
            pi = 0.5
        v_init = np.zeros_like(u_cur)
        v, wv, _, _ = solve_v(w, u_next, packed_pattern(u_cur), 1.0, pi, v_init=v_init)
        assert len(cg_calls) == 1 and cg_calls[0] > 0
        assert v is v_init and v_init.any()
        assert wv.tobytes() == (w @ v).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_narrow_layer_is_refined(self, cg_calls, v_tol, seed):
        # The plain Woodbury iterate misses tol; CG refines it.
        w, u_next, u_cur = narrow_system(40 + seed)
        tau, pi, tol = 1.0, 1e-4, 1e-8
        v_tol(tol)
        rhs = tau * (w.T @ u_next) + pi * step(u_cur)
        z = np.linalg.solve(pi * np.eye(w.shape[0]) + tau * (w @ w.T), w @ rhs)
        plain = (rhs - tau * (w.T @ z)) / pi
        assert column_residuals(w, u_next, u_cur, plain, tau, pi).max() > tol
        out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
        assert column_residuals(w, u_next, u_cur, out, tau, pi).max() <= tol
        assert len(cg_calls) == 1 and cg_calls[0] > 0
        a = tau * (w.T @ w) + pi * np.eye(w.shape[1])
        ref = np.linalg.solve(a, rhs)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6

    def test_woodbury_miss_falls_back_to_cg(self, cg_calls, v_tol):
        # Cancelling: tau ||w||^2 / pi ~ 1e15, so the Woodbury iterate misses
        # tol.  Singular: three equal rows of w make the m x m system
        # numerically singular, so np.linalg.solve raises and CG starts from
        # v_init.  Either way CG iterates until every column meets tol.
        rng = make_rng(6)
        systems = {
            "cancelling": (*narrow_system(50, scale=30.0), 1e-8),
            "singular": (np.tile(make_rng(5).standard_normal((1, 6)), (3, 1)) * 1e3,
                         rng.standard_normal((3, 4)), rng.standard_normal((6, 4)), 1e-12),
        }
        tau, tol = 1.0, 1e-8
        v_tol(tol)
        for name, (w, u_next, u_cur, pi) in systems.items():
            cg_calls.clear()
            out, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
            assert column_residuals(w, u_next, u_cur, out, tau, pi).max() <= tol, name
            assert len(cg_calls) == 1 and cg_calls[0] > 0, name

    def test_refined_woodbury_start_holds_six_chunks(self, cg_calls):
        # Below a narrower layer whose Woodbury start misses, CG iterates
        # (7 times in each of the four chunks here).  The solve holds six
        # d x V_CHUNK blocks at its peak: the chunk's right-hand side, its
        # start, the iterate, r, p and A p, beside one row block of pi p and
        # the product it hands on; about 6.14 chunks, 1.57 blocks of the
        # whole d x N state.  The new columns go into v_init's own buffer.
        # A full-size temporary per iteration, such as p * A p, puts the peak
        # at seven chunks, and CG over all N columns at six state blocks.
        w, u_next, u_cur = narrow_system(50, d=2000, n=1000, scale=30.0)
        v_init, s_cur = np.zeros_like(u_cur), packed_pattern(u_cur)
        tracemalloc.start()
        try:
            v, _, _, _ = solve_v(w, u_next, s_cur, 1.0, 1e-8, v_init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v is v_init
        assert len(cg_calls) == 4 and min(cg_calls) > 0
        chunk = w.shape[1] * solvers.V_CHUNK * 8
        assert peak <= 6.2 * chunk, f"peak {peak / chunk:.2f} chunks"

    def test_unreachable_tolerance_raises(self, monkeypatch, v_tol):
        w, u_next, u_cur = narrow_system(50, scale=30.0)
        tau, pi, tol = 1.0, 1e-8, 1e-8
        v_tol(tol)
        iterates = []

        def one_cg_iteration(w, tau, pi, b, x0, tol, max_iters):
            return cg_solve(w, tau, pi, b, x0, tol, 1, callback=iterates.append)

        monkeypatch.setattr(solvers, "cg_solve", one_cg_iteration)
        with pytest.raises(CgError, match="relative residual") as exc:
            solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
        assert exc.value.residual > tol
        assert exc.value.iters == 1 and len(iterates) == 1
        worst = column_residuals(w, u_next, u_cur, iterates[-1], tau, pi).max()
        assert exc.value.residual == pytest.approx(worst, rel=1e-3)


    @pytest.mark.parametrize("m, d", [(10, 200), (50, 200), (8, 8), (200, 200), (300, 100)])
    @pytest.mark.parametrize("tau, pi", [(1e-6, 1e-7), (1e-3, 1e-4), (1.0, 0.5)])
    def test_move_obeys_the_oracle_bound(self, m, d, tau, pi):
        # With s = step(u_cur) the exact solution is s + tau (tau W^T W + pi I)^-1 W^T (u_next - W s),
        # and tau sigma / (tau sigma^2 + pi) <= sqrt(tau/pi) / 2 for every singular value sigma of W.
        # A column that meets V_TOL lies within V_TOL ||b_j|| / pi of the exact one.
        rng = make_rng(m * 7 + d)
        u_next, u_cur = rng.standard_normal((m, 20)), rng.standard_normal((d, 20))
        s = step(u_cur)
        for scale in (0.3, 1.0, 3.0):
            w = scale * rng.standard_normal((m, d)) / np.sqrt(d)
            v, _, _, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init=np.zeros_like(u_cur))
            b = tau * (w.T @ u_next) + pi * s
            bound = (0.5 * np.sqrt(tau / pi) * np.linalg.norm(u_next - w @ s, axis=0)
                     + solvers.V_TOL * np.linalg.norm(b, axis=0) / pi)
            assert np.all(np.linalg.norm(v - s, axis=0) <= bound), scale


def streamed(monkeypatch, chunk, w, u_next, u_cur, tau, pi, v0):
    """``solve_v`` in chunks of ``chunk`` columns from a copy of ``v0``, which
    it returns as ``v``; the motion is also summed from the whole arrays."""
    monkeypatch.setattr(solvers, "V_CHUNK", chunk)
    v_init = v0.copy()
    v, wv, dv, _ = solve_v(w, u_next, packed_pattern(u_cur), tau, pi, v_init)
    assert v is v_init
    assert dv == float(solvers._col_sq(v - v0).sum())
    return v, wv, dv


class TestStreamedSolve:
    @pytest.mark.parametrize("d", [200, 2000])
    @pytest.mark.parametrize("scale, pi", [(3.0, 0.5), (30.0, 1e-8)])
    def test_chunks_give_the_one_chunk_bits(self, monkeypatch, cg_calls, d, scale, pi):
        # Below a narrower layer at N = 2000, the benchmark's sample count:
        # the Woodbury start kept, or refined by CG in every chunk.  V, the
        # handed-on product and dV have the bits of one chunk of all N
        # columns, and dV the bits of the motion summed over the whole
        # arrays.  Where N is not a multiple of 8, OpenBLAS may give the
        # last N mod 8 columns of a chunk's products other bits than the
        # whole product's, and V moves there in its last bits.
        w, u_next, u_cur = narrow_system(7, d=d, n=2000, scale=scale)
        v0 = make_rng(8).standard_normal((d, 2000))
        chunked = streamed(monkeypatch, 256, w, u_next, u_cur, 1.0, pi, v0)
        assert len(cg_calls) == 8 and (min(cg_calls) > 0) == (pi < 1e-4)
        whole = streamed(monkeypatch, 2000, w, u_next, u_cur, 1.0, pi, v0)
        assert len(cg_calls) == 9
        assert [a.tobytes() for a in chunked[:2]] == [a.tobytes() for a in whole[:2]]
        assert chunked[2] == whole[2]

    def test_one_column_tail_joins_the_chunk_before_it(self, monkeypatch, cg_calls):
        # numpy sums a one-column array pairwise, so a one-column chunk
        # would give its column's motion other bits than the whole sum.
        monkeypatch.setattr(solvers, "V_CHUNK", 256)
        assert list(solvers._col_chunks(513)) == [(0, 256), (256, 513)]
        assert list(solvers._col_chunks(512)) == [(0, 256), (256, 512)]
        assert list(solvers._col_chunks(1)) == [(0, 1)]
        w, u_next, u_cur = narrow_system(9, n=513)
        v, _, _ = streamed(monkeypatch, 256, w, u_next, u_cur, 1.0, 0.5, np.zeros((200, 513)))
        # From that solution only the last column moves, by entries over
        # eight decades, so dV is that column's sum, and a pairwise sum shows.
        rng = make_rng(10)
        v0 = v.copy()
        v0[:, -1] += rng.standard_normal(200) * 10.0 ** rng.uniform(-4, 4, 200)
        streamed(monkeypatch, 256, w, u_next, u_cur, 1.0, 0.5, v0)
        assert cg_calls == [0, 0] * 2

    def test_a_chunk_that_keeps_every_column_keeps_its_signed_zeros(self, monkeypatch, cg_calls):
        # A square layer (w = 0, so A = pi I) whose start fails its check:
        # columns 0-3 solve the system exactly, with -0.0 where U_i <= 0;
        # columns 4-7 do not.  In chunks of 4 the first chunk keeps its
        # start, -0.0 included.  CG over all 8 columns adds 0 * p to the
        # kept columns, which turns -0.0 into +0.0.  The values are equal.
        u_cur = make_rng(11).standard_normal((6, 8))
        v0 = np.where(u_cur > 0, 1.0, -0.0)
        v0[:, 4:] = 0.5
        w, u_next = np.zeros((6, 6)), make_rng(12).standard_normal((6, 8))
        chunked = streamed(monkeypatch, 4, w, u_next, u_cur, 1.0, 0.5, v0)
        assert cg_calls[0] == 0 and cg_calls[1] > 0
        whole = streamed(monkeypatch, 8, w, u_next, u_cur, 1.0, 0.5, v0)
        assert np.array_equal(chunked[0], whole[0]) and chunked[2] == whole[2]
        negative_zero = np.signbit(v0[:, :4]) & (v0[:, :4] == 0.0)
        assert negative_zero.any()
        assert np.array_equal(np.signbit(chunked[0][:, :4]), negative_zero)
        assert not np.signbit(whole[0][:, :4]).any()

    def test_narrow_solve_adds_no_state_sized_block(self):
        # The Woodbury start kept in every chunk, at d = N = 2000.  Beyond
        # the 10 x N product it hands on, the solve adds about 2.23 chunks:
        # a chunk's right-hand side and its start, and a row block's
        # difference and square for its motion.  One 2000 x 2000 block is
        # 7.8 chunks.
        w, u_next, u_cur = narrow_system(7, d=2000, n=2000)
        v_init, s_cur = make_rng(8).standard_normal((2000, 2000)), packed_pattern(u_cur)
        tracemalloc.start()
        try:
            v, wv, _, _ = solve_v(w, u_next, s_cur, 1.0, 0.5, v_init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v is v_init
        chunk = 2000 * solvers.V_CHUNK * 8
        assert peak - wv.nbytes <= 2.3 * chunk, f"solve_v adds {(peak - wv.nbytes) / chunk:.2f} chunks"


class TestCgProperties:
    def test_a_norm_error_nonincreasing(self):
        w, _, _, a, b = spd_system(17, d=25, n=8)
        ref = np.linalg.solve(a, b)
        iterates = []
        cg_solve(w, 1.0, 0.5, b, np.zeros_like(b), tol=1e-12, max_iters=500, callback=iterates.append)

        def a_norm_sq(e):
            return (e * (a @ e)).sum(axis=0)

        prev = a_norm_sq(np.zeros_like(b) - ref)
        for x in iterates:
            cur = a_norm_sq(x - ref)
            assert np.all(cur <= prev + 1e-10 * np.maximum(1.0, prev))
            prev = cur

    def test_exactly_solved_start_returns_immediately(self):
        w, _, _, a, b = spd_system(18, d=10, n=3)
        x_star = np.linalg.solve(a, b)
        x, iters = cg_solve(w, 1.0, 0.5, b, x_star, tol=1e-8, max_iters=100)
        assert iters == 0
        assert np.array_equal(x, x_star)

    def test_start_within_tolerance_returns_it(self):
        # An inexact start whose every column already meets tol: no iteration runs.
        w, _, _, a, b = spd_system(22, d=10, n=3)
        x0 = np.linalg.solve(a, b) + 1e-9 * make_rng(23).standard_normal(b.shape)
        rel = np.linalg.norm(b - a @ x0, axis=0) / np.linalg.norm(b, axis=0)
        assert 0.0 < rel.max() < 1e-6
        x, iters = cg_solve(w, 1.0, 0.5, b, x0, tol=1e-6, max_iters=100)
        assert iters == 0
        assert np.array_equal(x, x0)
        assert x is x0

    def test_start_is_never_written(self):
        w, _, _, _, b = spd_system(24, d=10, n=3)
        x0 = make_rng(25).standard_normal(b.shape)
        saved = x0.copy()
        x, iters = cg_solve(w, 1.0, 0.5, b, x0, tol=1e-10, max_iters=100)
        assert iters > 0 and x is not x0
        assert np.array_equal(x0, saved)

    def test_start_is_checked_one_row_block_at_a_time(self, monkeypatch):
        # A kept start's residual is formed and squared in blocks of two
        # whole rows here, like every other blockwise pass, never whole.
        monkeypatch.setattr(prox, "V_BLOCK", 20)
        w, _, _, a, b = spd_system(26, d=10, n=7)
        x_star = np.linalg.solve(a, b)
        col_sq, blocks = solvers._col_sq, []

        def spy(part, shape=None):
            if shape is not None:
                def part(lo, hi, whole=part):
                    c = whole(lo, hi)
                    blocks.append(c.shape)
                    return c
            return col_sq(part, shape)

        monkeypatch.setattr(solvers, "_col_sq", spy)
        x, iters = cg_solve(w, 1.0, 0.5, b, x_star, tol=1e-8, max_iters=100)
        assert iters == 0 and x is x_star
        assert blocks == [(2, 7)] * 5


# One row, one column, a block's worth of entries and a little more, more
# than two blocks, and sizes that are not a multiple of 8.
BLOCK = prox.V_BLOCK
EDGE_SHAPES = [(1, BLOCK - 1), (1, BLOCK + 1), (BLOCK + 1, 1), (BLOCK + 1, 2), (64, BLOCK // 64),
               (64, BLOCK // 64 + 1), (65, BLOCK // 64), (259, 127), (181, 181), (BLOCK // 2 + 3, 3)]


class TestColSq:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(1, 70), st.integers(1, 70)),
                        st.tuples(st.integers(1, 12), st.integers(1, 400)), st.sampled_from(EDGE_SHAPES)),
        budget=st.sampled_from([1, 16, 136, 1000, BLOCK]),
        order_a=st.sampled_from("CF"),
        order_b=st.sampled_from(["C", "F", None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_bit_for_bit(self, shape, budget, order_a, order_b, seed):
        # Entries over 16 decades, so a sum in any other order rounds
        # differently.  Whatever the layout of the blocks, the kernel adds
        # each column row after row, as numpy sums a C-ordered array, and
        # takes blocks of whole rows, at most ``budget`` entries unless one
        # row is more or the array has one column.
        rng = make_rng(seed)

        def draw(order):
            return np.asarray(rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape), order=order)

        a = draw(order_a)
        b = None if order_b is None else draw(order_b)
        c = np.ascontiguousarray(a if b is None else a - b)
        heights = []

        def part(lo, hi):
            heights.append(hi - lo)
            return a[lo:hi] if b is None else a[lo:hi] - b[lo:hi]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prox, "V_BLOCK", budget)
            got = solvers._col_sq(part, shape)
        assert got.tobytes() == (c * c).sum(axis=0).tobytes()
        assert sum(heights) == shape[0]
        assert shape[1] == 1 or max(heights) * shape[1] <= max(budget, shape[1])
