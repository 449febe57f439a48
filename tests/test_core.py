import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from stepbcd import prox
from stepbcd.core import (
    Hyperparams,
    NetworkShape,
    TrainState,
    forward_blocks,
    init_gaussian,
    make_rng,
)
from stepbcd.dataio import load_checkpoint, save_checkpoint
from stepbcd.prox import step


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def first_product(w, x):
    """The first pre-activation ``U_1 = W_1 X`` of the 0/1 forward pass."""
    return forward_blocks([w], x)[0][0]


class TestMatmul:
    """The weight product of ``forward_blocks``, the only one in the forward pass."""

    def test_identity(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(first_product(np.eye(3), b), b)

    def test_counting_case(self):
        a = np.ones((2, 3))
        b = np.ones((3, 1))
        assert np.array_equal(first_product(a, b), np.array([[3.0], [3.0]]))

    def test_matches_naive_oracle(self):
        rng = make_rng(5)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 6))
        assert np.max(np.abs(first_product(a, b) - naive_matmul(a, b))) < 1e-12

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"layer 0.*\(2, 3\).*\(2, 3\)"):
            first_product(np.ones((2, 3)), np.ones((2, 3)))


class TestNetworkShape:
    def test_h_and_weight_shapes(self):
        shape = NetworkShape((4, 8, 3))
        assert shape.h == 2
        assert shape.weight_shape(0) == (8, 4)
        assert shape.weight_shape(1) == (3, 8)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            NetworkShape((4,))
        with pytest.raises(ValueError):
            NetworkShape((4, 0, 3))

    @pytest.mark.parametrize("dims", [(4, 6.7, 3), (4, 6.0, 3), (4, True, 3), (4, np.bool_(True), 3), ("4", 6, 3)])
    def test_rejects_non_integer_widths(self, dims):
        # int() would truncate a float width and read a bool as width 1.
        with pytest.raises(ValueError, match="widths must be integers"):
            NetworkShape(dims)
        assert NetworkShape((np.int64(4), np.uint32(6), 3)).dims == (4, 6, 3)


class TestHyperparams:
    def test_defaults_are_reference_values(self):
        hp = Hyperparams()
        assert (hp.tau, hp.pi, hp.gamma, hp.lam) == (1e-6, 1e-7, 1e-8, 0.052)
        assert (hp.beta, hp.L, hp.K) == (0.00072, 1, 35)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(tau=0.0)
        with pytest.raises(ValueError):
            Hyperparams(lam=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(K=-1)
        with pytest.raises(ValueError):
            Hyperparams(L=-1)
        with pytest.raises(ValueError):
            Hyperparams(beta=0.0)
        for name in ("tau", "pi", "gamma", "lam", "beta"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=name):
                    Hyperparams(**{name: value})

    @pytest.mark.parametrize("kw", [dict(K=1.5), dict(L=2.0), dict(K="3"), dict(K=1, L=True), dict(K=False)])
    def test_iteration_counts_are_integers(self, kw):
        # train runs range(1, K + 1) and pgm range(L): a float fails there,
        # after the run has started, unless it is rejected here.  A bool is
        # an int to isinstance, so K=False would run as K=0.
        with pytest.raises(ValueError, match="must be integers"):
            Hyperparams(**kw)
        assert Hyperparams(L=np.int64(2), K=np.uint32(3)).K == 3

    def test_iteration_counts_fit_the_checkpoint(self, tmp_path, tiny_data):
        # The checkpoint stores L and K as 32-bit unsigned integers: the
        # largest is accepted and stored, one more is rejected up front.
        for name in ("L", "K"):
            with pytest.raises(ValueError, match="32-bit"):
                Hyperparams(**{name: 2**32})
        hp = Hyperparams(L=2**32 - 1, K=2**32 - 1)
        shape = NetworkShape((4, 3))
        save_checkpoint(init_gaussian(shape, 0.1, make_rng(3), tiny_data.X), shape, hp, tmp_path / "c.bin")
        assert load_checkpoint(tmp_path / "c.bin")[2] == hp


class TestInitGaussian:
    def test_deterministic_given_seed(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        s1 = init_gaussian(shape, 0.01, make_rng(42), tiny_data.X)
        s2 = init_gaussian(shape, 0.01, make_rng(42), tiny_data.X)
        for a, b in zip(s1.W + s1.U + s1.V, s2.W + s2.U + s2.V):
            assert np.array_equal(a, b)

    def test_shapes(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        state = init_gaussian(shape, 0.01, make_rng(0), tiny_data.X[:, :16])
        assert state.W[0].shape == (8, 4)
        assert state.W[1].shape == (3, 8)
        assert state.U[0].shape == (8, 16)
        assert state.U[1].shape == (3, 16)
        assert state.V[0].shape == (8, 16)
        state.check_consistent(shape, 16)

    def test_forward_pass_start_is_feasible(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        state = init_gaussian(shape, 0.01, make_rng(3), tiny_data.X)
        assert np.array_equal(state.U[0], state.W[0] @ tiny_data.X)
        assert np.array_equal(state.V[0], step(state.U[0]))
        assert np.array_equal(state.U[1], state.W[1] @ state.V[0])

    def test_sample_mean_of_draws(self):
        shape = NetworkShape((1000, 1000))
        state = init_gaussian(shape, 0.01, make_rng(11), np.zeros((1000, 1)))
        draws = state.W[0].ravel()
        assert draws.size == 10**6
        assert abs(draws.mean()) < 4 * 0.01 / 1000.0

    def test_rejects_bad_scale_and_input(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale"):
                init_gaussian(shape, scale, make_rng(0), tiny_data.X)
        with pytest.raises(ValueError):
            init_gaussian(shape, 0.01, make_rng(0), np.zeros((5, 3)))


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["W", "U", "V"])
    def test_names_the_block_and_forms_no_full_size_mask(self, bad, where):
        # An F-ordered W (as after a proximal step) and C-ordered U and V;
        # one non-finite entry in the last row.  Each block is tested one
        # row block at a time: a whole 784x2000 mask is 1.5 MB, three blocks.
        rng = make_rng(3)
        state = TrainState([np.asfortranarray(rng.standard_normal((784, 2000)))],
                           [rng.standard_normal((784, 2000))], [rng.standard_normal((784, 2000))])
        block = prox.V_BLOCK * 8
        tracemalloc.start()
        try:
            state.check_finite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * block, f"check_finite adds {peak / block:.2f} blocks"
        getattr(state, where)[0][-1, -1] = bad
        with pytest.raises(FloatingPointError, match=rf"{where}\[0\] contains non-finite"):
            state.check_finite()


class TestPackedState:
    def test_hidden_u_blocks_may_be_packed(self, tiny_data):
        # Between full-batch sweeps a hidden U_i is its step pattern, packed
        # one bit per entry: 13 columns take 2 bytes a row.  U_h stays float.
        shape = NetworkShape((4, 8, 6, 3))
        state = init_gaussian(shape, 0.1, make_rng(5), tiny_data.X[:, :13])
        state.U[:2] = [np.packbits(u > 0.0, axis=1) for u in state.U[:2]]
        assert state.U[0].shape == (8, 2)
        state.check_consistent(shape, 13)
        state.check_finite()
        state.U[1] = state.U[1][:, :1]
        with pytest.raises(ValueError, match=r"U\[1\] has shape \(6, 1\), expected \(6, 2\)"):
            state.check_consistent(shape, 13)
        state.U[1] = state.U[0][:6]
        state.U[2] = np.packbits(state.U[2] > 0.0, axis=1)
        with pytest.raises(ValueError, match=r"U\[2\] has shape \(3, 2\), expected \(3, 13\)"):
            state.check_consistent(shape, 13)


class TestRng:
    def test_streams_reproducible_across_processes(self):
        script = textwrap.dedent(
            """
            from stepbcd.core import make_rng
            print(list(make_rng(123, 4, 5).standard_normal(5)))
            """
        )
        outs = {
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        here = str(list(make_rng(123, 4, 5).standard_normal(5)))
        assert outs == {here + "\n"}

    def test_stage_paths_give_independent_streams(self):
        a = make_rng(7, 0).standard_normal(4)
        b = make_rng(7, 1).standard_normal(4)
        c = make_rng(7, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_forward_blocks_matches_init(tiny_data):
    shape = NetworkShape((4, 6, 5, 3))
    state = init_gaussian(shape, 0.05, make_rng(8), tiny_data.X)
    u, v = forward_blocks(state.W, tiny_data.X)
    assert all(np.array_equal(a, b) for a, b in zip(u, state.U))
    assert all(np.array_equal(a, b) for a, b in zip(v, state.V))
