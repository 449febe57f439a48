import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stepbcd import prox
from stepbcd.core import make_rng
from stepbcd.prox import (
    _hardmax_gap_miss,
    norm_l20,
    prox_hardmax_matrix,
    prox_l20_rows,
    prox_step_matrix,
    step,
)

from oracles import (
    hardmax_miss,
    packed_pattern,
    hardmax_objective,
    hardmax_oracle_min,
    prox_hardmax_column,
    prox_step_matrix_full,
    prox_step_scalar,
    step_objective,
    step_oracle_min,
)

finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(-1e6, 1e6),
)


class TestStep:
    def test_definition_at_zero_and_signs(self):
        out = step(np.array([-1.0, 0.0, -0.0, np.nan, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 1.0])
        assert out.dtype == np.float64
        assert not np.signbit(out).any()
        ints = step(np.array([-3, 0, 5]))
        assert ints.dtype == np.float64
        assert np.array_equal(ints, [0.0, 0.0, 1.0])

    def test_strict_positivity_no_floor(self):
        assert step(np.array([1e-300]))[0] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(finite_arrays)
    def test_idempotent(self, x):
        once = step(x)
        assert np.array_equal(step(once), once)
        assert set(np.unique(once)) <= {0.0, 1.0}


def gap_miss_column(b, y_index):
    """``prox._hardmax_gap_miss`` of the one-column matrix ``b``."""
    delta, miss, _ = _hardmax_gap_miss(np.asarray(b, dtype=np.float64)[:, None], np.array([y_index]))
    return float(delta[0]), float(miss[0])


class TestHardmax:
    """The gap and the miss count ``||e_y - hardmax(b)||^2`` that the hardmax
    prox and the objective's loss share, against the straight-line oracle."""

    def test_all_ties_gives_all_ones(self):
        # hardmax(0) is all ones: the two entries besides the label miss
        for y in range(3):
            assert gap_miss_column(np.zeros(3), y) == (0.0, 2.0) == (0.0, hardmax_miss(y, np.zeros(3)))

    def test_two_way_tie(self):
        b = np.array([3.0, 1.0, 3.0])
        assert [gap_miss_column(b, y) for y in range(3)] == [(0.0, 1.0), (2.0, 3.0), (0.0, 1.0)]
        assert [gap_miss_column(b, y)[1] for y in range(3)] == [hardmax_miss(y, b) for y in range(3)]

    def test_unique_max(self):
        b = np.array([0.5, 2.0])
        assert [gap_miss_column(b, y) for y in range(2)] == [(1.5, 2.0), (0.0, 0.0)]
        assert [gap_miss_column(b, y)[1] for y in range(2)] == [hardmax_miss(y, b) for y in range(2)]

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-100, 100)), st.data())
    def test_ones_exactly_at_argmax_set(self, a, data):
        y = data.draw(st.integers(0, a.size - 1))
        delta, miss = gap_miss_column(a, y)
        assert delta == a.max() - a[y] and delta >= 0.0
        assert miss == hardmax_miss(y, a)
        assert miss == np.count_nonzero(a == a.max()) + (1.0 if a[y] < a.max() else -1.0)

    def test_columnwise_matches_vector(self):
        rng = make_rng(3)
        a = rng.standard_normal((5, 7))
        a[:, 2] = 0.5  # an all-tied column next to untied ones
        labels = rng.integers(0, 5, 7)
        delta, miss, n_max = _hardmax_gap_miss(a, labels)
        assert n_max.tolist() == [1, 1, 5, 1, 1, 1, 1]
        for s in range(7):
            assert (delta[s], miss[s]) == gap_miss_column(a[:, s], int(labels[s]))
            assert miss[s] == hardmax_miss(int(labels[s]), a[:, s])


class TestProxHardmaxColumn:
    def test_keep_branch(self):
        b = np.array([0.5, 2.0])
        # mu * delta^2 = 2.25 beats the miss cost 2 -> keep b
        out = prox_hardmax_column(0, b, mu=1.0)
        assert np.array_equal(out, b)
        assert hardmax_objective(out, 0, b, 1.0) <= hardmax_oracle_min(0, b, 1.0) + 1e-9

    def test_bump_branch(self):
        b = np.array([0.5, 2.0])
        out = prox_hardmax_column(0, b, mu=0.5)
        assert np.allclose(out, [2.0 + 1e-10, 2.0], rtol=0, atol=0) or np.array_equal(
            out, np.array([0.5 + 1.5 + 1e-10, 2.0])
        )
        assert out[0] == 0.5 + (1.5 + 1e-10)
        assert hardmax_objective(out, 0, b, 0.5) <= hardmax_oracle_min(0, b, 0.5) + 1e-9

    def test_already_hot_returns_unchanged(self):
        b = np.array([2.0, 0.5])
        assert np.array_equal(prox_hardmax_column(0, b, mu=1.0), b)

    def test_exact_tie_keeps_b(self):
        b = np.array([0.0, 1.0])  # delta = 1, miss = 2, mu = 2 -> exact tie
        assert np.array_equal(prox_hardmax_column(0, b, mu=2.0), b)

    def test_random_instances_beat_oracle(self):
        rng = make_rng(17)
        for _ in range(500):
            m = int(rng.integers(1, 9))
            b = rng.uniform(-2.0, 2.0, m)
            y_index = int(rng.integers(0, m))
            mu = float(rng.uniform(0.05, 1.0))
            out = prox_hardmax_column(y_index, b, mu)
            assert hardmax_objective(out, y_index, b, mu) <= hardmax_oracle_min(y_index, b, mu) + 1e-9


class TestProxHardmaxMatrix:
    def test_single_column_reduces_to_column_op(self):
        rng = make_rng(21)
        b = rng.standard_normal((5, 1))
        y = np.zeros((5, 1))
        y[2, 0] = 1.0
        out = prox_hardmax_matrix(b, y, tau=0.7)
        ref = prox_hardmax_column(2, b[:, 0], mu=0.7)
        assert np.array_equal(out[:, 0], ref)

    def test_zero_loss_input_unchanged(self):
        rng = make_rng(22)
        b = rng.standard_normal((4, 9))
        y = (b == b.max(axis=0)).astype(np.float64)
        # force unique maxima so every label column is one-hot
        keep = np.flatnonzero(y.sum(axis=0) == 1.0)
        b, y = b[:, keep], y[:, keep]
        assert np.array_equal(prox_hardmax_matrix(b, y, tau=1e-6), b)

    def test_matches_columnwise_oracle(self):
        rng = make_rng(23)
        b = rng.uniform(-2, 2, (4, 8))
        labels = rng.integers(0, 4, 8)
        y = np.zeros((4, 8))
        y[labels, np.arange(8)] = 1.0
        tau = 0.02
        out = prox_hardmax_matrix(b, y, tau)
        mu = tau * 8
        for s in range(8):
            col = out[:, s]
            ref = prox_hardmax_column(int(labels[s]), b[:, s], mu)
            assert np.array_equal(col, ref)
            assert hardmax_objective(col, int(labels[s]), b[:, s], mu) <= (
                hardmax_oracle_min(int(labels[s]), b[:, s], mu) + 1e-9
            )

    def test_non_one_hot_column_is_named(self):
        b = np.zeros((3, 4))
        y = np.zeros((3, 4))
        y[0, :] = 1.0
        y[1, 2] = 1.0  # column 2 has two ones
        with pytest.raises(ValueError, match="column 2"):
            prox_hardmax_matrix(b, y, tau=1.0)

    def test_column_permutation_equivariance(self):
        rng = make_rng(24)
        b = rng.standard_normal((5, 10))
        labels = rng.integers(0, 5, 10)
        y = np.zeros((5, 10))
        y[labels, np.arange(10)] = 1.0
        perm = rng.permutation(10)
        out = prox_hardmax_matrix(b, y, tau=0.3)
        out_perm = prox_hardmax_matrix(b[:, perm], y[:, perm], tau=0.3)
        assert np.array_equal(out[:, perm], out_perm)


class TestProxStepScalar:
    @pytest.mark.parametrize(
        "a,b,rho,expected",
        [
            (1.0, 1.0, 0.1, 1.0),
            (0.0, 1.0, 0.1, 0.0),
            (1.0, -1.0, 0.1, 1e-10),
            (0.0, -1.0, 0.1, -1.0),
        ],
    )
    def test_reference_examples(self, a, b, rho, expected):
        out = prox_step_scalar(a, b, rho)
        assert out == expected
        assert step_objective(out, a, b, rho) <= step_oracle_min(a, b, rho) + 1e-6

    def test_tie_positive_b_keeps_b(self):
        # exact dyadic tie: a = 0.25 gives t = -0.5 = -rho b^2 with rho = 0.5, b = 1
        assert prox_step_scalar(0.25, 1.0, 0.5) == 1.0

    def test_tie_nonpositive_b_keeps_b(self):
        # exact dyadic tie: a = 0.75 gives t = 0.5 = rho b^2 with rho = 0.5, b = -1
        assert prox_step_scalar(0.75, -1.0, 0.5) == -1.0

    def test_b_zero_boundary(self):
        # b = 0, a = 0: t = -1 < 0 = rho b^2 -> keep b = 0
        assert prox_step_scalar(0.0, 0.0, 0.1) == 0.0
        # b = 0, a = 1: t = 1 > 0 -> one-sided limit
        assert prox_step_scalar(1.0, 0.0, 0.1) == 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.floats(-3.0, 3.0),
        st.floats(1e-3, 10.0),
    )
    def test_oracle_optimality(self, a, b, rho):
        out = prox_step_scalar(a, b, rho)
        assert step_objective(out, a, b, rho) <= step_oracle_min(a, b, rho) + 1e-6


class TestProxStepMatrix:
    def test_scalar_reduction(self):
        out = prox_step_matrix(np.array([[1.0]]), np.array([[-1.0]]), tau=0.01, pi=0.1)
        assert out[0, 0] == prox_step_scalar(1.0, -1.0, rho=0.1)

    def test_step_of_b_is_fixed_point(self):
        rng = make_rng(31)
        b = rng.standard_normal((6, 7))
        b[0, 0] = 0.0  # the a=0, b=0 corner keeps b
        out = prox_step_matrix(step(b), b, tau=1e-6, pi=1e-7)
        assert np.array_equal(out, b)

    @pytest.mark.parametrize("tau,pi", [(0.01, 0.1), (1.0, 0.1), (0.5, 1.0)])
    def test_matches_scalar_entrywise(self, tau, pi):
        rng = make_rng(32)
        v = rng.uniform(0.0, 1.0, (5, 6))
        b = rng.uniform(-3.0, 3.0, (5, 6))
        # Knife edges in the last row: the dyadic ties of the scalar tests
        # (exact at tau/pi = 0.5) and signed zeros with a 0/1 target.
        v[-1] = [0.25, 0.75, 0.0, 1.0, 0.0, 1.0]
        b[-1] = [1.0, -1.0, 0.0, 0.0, -0.0, -0.0]
        rho = tau / pi
        # The oracles' entrywise path, which the kept-block certificate
        # skips, is held to the scalar prox too.
        for out in (prox_step_matrix(v, b, tau, pi), prox_step_matrix_full(v, b, tau, pi)):
            for j in range(5):
                for r in range(6):
                    want = prox_step_scalar(v[j, r], b[j, r], rho)
                    assert out[j, r] == want and np.signbit(out[j, r]) == np.signbit(want)

    def test_minimizes_weighted_entry_objective(self):
        # the matrix op must minimize (tau/2)(u-b)^2 + (pi/2)(a-step(u))^2
        rng = make_rng(33)
        v = rng.uniform(0.0, 1.0, (4, 5))
        b = rng.uniform(-2.0, 2.0, (4, 5))
        tau, pi = 0.7, 0.3
        out = prox_step_matrix(v, b, tau, pi)
        grid = np.arange(-4.0, 4.0, 1e-4)
        for j in range(4):
            for r in range(5):
                vals = 0.5 * tau * (grid - b[j, r]) ** 2 + 0.5 * pi * (v[j, r] - (grid > 0)) ** 2
                got = 0.5 * tau * (out[j, r] - b[j, r]) ** 2 + 0.5 * pi * (v[j, r] - (out[j, r] > 0)) ** 2
                limit = 0.5 * tau * (1e-10 - b[j, r]) ** 2 + 0.5 * pi * (v[j, r] - 1.0) ** 2
                assert got <= min(vals.min(), limit) + 1e-6

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
        st.one_of(st.sampled_from([(1e-6, 1e-7), (1.0, 0.5)]), st.tuples(st.floats(1e-6, 1.0), st.floats(1e-7, 0.5))),
        st.booleans(),
    )
    def test_certified_block_is_b_itself(self, data, shape, tau_pi, certified):
        # b holds exact signed zeros; v sits below, exactly at and just
        # above 1/2.  A certified draw puts every v on b's side of 1/2;
        # another moves some entries across, where a b = 0 entry with
        # v > 1/2 must be bumped.
        tau, pi = tau_pi
        b = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))))
        above = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([np.nextafter(0.5, 1.0), 1.0]), st.floats(0.5, 1.5, exclude_min=True))))
        below = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.5, np.nextafter(0.5, 0.0), 0.0]), st.floats(-0.5, 0.5))))
        side = b > 0.0
        if not certified:
            side ^= data.draw(hnp.arrays(np.bool_, shape))
        v = np.where(side, above, below)
        out = prox_step_matrix(v, b, tau, pi)
        assert out.tobytes() == prox_step_matrix_full(v, b, tau, pi).tobytes()
        assert (out is b) == np.array_equal(b > 0.0, v > 0.5)
        if certified:
            assert out is b

    def test_kept_block_forms_no_full_size_boolean(self):
        # The kept path compares the sides b > 0 and v > 1/2 one row block
        # at a time; two whole 400x1000 booleans were 800 KB.
        b = make_rng(35).standard_normal((400, 1000))
        v = step(b)
        tracemalloc.start()
        try:
            out = prox_step_matrix(v, b, 1e-6, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is b
        assert peak < b.size, f"the kept path adds {peak} B; a whole boolean is {b.size} B"

    def test_uncertified_kept_block_is_a_new_array(self):
        # b > 0 with v <= 1/2 fails the certificate, but tau b^2 outweighs
        # pi |t|, so the entrywise path keeps it, in a copy.
        b = np.array([[2.0, -1.0]])
        v = np.array([[0.25, 0.0]])
        out = prox_step_matrix(v, b, 1.0, 0.5)
        assert out is not b and np.array_equal(out, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            prox_step_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 1.0, 1.0)

    def test_entry_permutation_equivariance(self):
        rng = make_rng(34)
        v = rng.uniform(0, 1, (3, 8))
        b = rng.standard_normal((3, 8))
        perm = rng.permutation(8)
        a = prox_step_matrix(v, b, 0.2, 0.5)
        b_out = prox_step_matrix(v[:, perm], b[:, perm], 0.2, 0.5)
        assert np.array_equal(a[:, perm], b_out)


def l20_prox_oracle(h, beta, lam):
    """Per-row two-candidate comparison of lam*[row nonzero] + (1/2b)||x - h||^2."""
    out = h.copy()
    for s in range(h.shape[0]):
        keep_cost = lam * float(np.any(h[s] != 0.0))
        zero_cost = float((h[s] ** 2).sum()) / (2.0 * beta)
        if zero_cost < keep_cost:
            out[s] = 0.0
    return out


class TestProxL20Rows:
    # prox_l20_rows thresholds a float64 input in place, so each check
    # passes a copy and compares against the untouched original.
    def test_exact_tie_keeps_row(self):
        h = np.array([[0.6, 0.8]])  # norm exactly 1.0 = sqrt(2 * 0.5 * 1)
        assert np.array_equal(prox_l20_rows(h.copy(), beta=0.5, lam=1.0), h)

    def test_lambda_zero_is_identity(self):
        rng = make_rng(41)
        h = rng.standard_normal((6, 4))
        h[2] = 0.0
        assert np.array_equal(prox_l20_rows(h.copy(), beta=0.5, lam=0.0), h)

    def test_thresholds_a_float64_input_in_place(self):
        h = np.array([[0.5, 0.0], [2.0, 0.0]])
        out = prox_l20_rows(h, beta=0.5, lam=1.0)
        assert out is h
        assert np.array_equal(h, np.array([[0.0, 0.0], [2.0, 0.0]]))
        # Any other input is converted first, and the conversion is thresholded.
        f32 = np.array([[0.5, 0.0], [2.0, 0.0]], dtype=np.float32)
        assert np.array_equal(prox_l20_rows(f32, beta=0.5, lam=1.0), h)
        assert np.array_equal(f32, np.array([[0.5, 0.0], [2.0, 0.0]]))

    def test_below_and_above_threshold(self):
        h = np.array([[0.5, 0.0], [2.0, 0.0]])
        out = prox_l20_rows(h, beta=0.5, lam=1.0)
        assert np.array_equal(out, np.array([[0.0, 0.0], [2.0, 0.0]]))

    def test_matches_two_candidate_oracle(self):
        rng = make_rng(42)
        for _ in range(200):
            h = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 6))))
            beta = float(rng.uniform(0.01, 2.0))
            lam = float(rng.uniform(0.0, 2.0))
            assert np.array_equal(prox_l20_rows(h.copy(), beta, lam), l20_prox_oracle(h, beta, lam))

    @settings(max_examples=100, deadline=None)
    @given(finite_arrays, st.floats(1e-3, 10.0), st.floats(0.0, 10.0))
    def test_rows_kept_or_zeroed_never_shrunk(self, h, beta, lam):
        out = prox_l20_rows(h.copy(), beta, lam)
        for s in range(h.shape[0]):
            assert np.array_equal(out[s], h[s]) or not np.any(out[s])

    @pytest.mark.parametrize("shape, order", [((2000, 2000), "C"), ((784, 2000), "C"), ((200, 200), "C"),
                                              ((784, 200), "C"), ((2000, 10), "C"), ((784, 200), "F"),
                                              ((300, 2), "C"), ((3, 40000), "F"), ((5, 70000), "F"),
                                              ((328, 200), "F")])
    def test_row_norms_have_the_bits_of_numpy_norm(self, shape, order):
        # Each row is scaled to unit norm, so its computed norm lands on the
        # threshold 1 = sqrt(2 * 0.5 * 1) or an ulp or two beside it: a norm
        # with other bits than np.linalg.norm(h, axis=1) keeps or zeroes
        # some row differently.  The first row sits exactly on it.
        rng = make_rng(shape[0] + shape[1])
        h = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        h[0] = 0.0
        h[0, 0] = 1.0
        h = np.asarray(h, order=order)
        norms = np.linalg.norm(h, axis=1)
        assert norms[0] == 1.0 and np.any(norms < 1.0)
        expected = np.where((norms < 1.0)[:, None], 0.0, h)
        assert prox_l20_rows(h.copy(order="K"), beta=0.5, lam=1.0).tobytes() == expected.tobytes()

    def test_row_norms_form_no_full_size_square(self):
        # The norms take one row block of about V_BLOCK entries at a time:
        # the call adds about one block's square to its input.  Squaring
        # the 784x2000 input whole adds 24 blocks.
        h = make_rng(43).standard_normal((784, 2000))
        block = prox.V_BLOCK * 8
        tracemalloc.start()
        try:
            prox_l20_rows(h, beta=0.5, lam=1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not h.any()
        assert peak <= 1.2 * block, f"prox_l20_rows adds {peak / block:.2f} blocks"

    def test_validation(self):
        with pytest.raises(ValueError):
            prox_l20_rows(np.zeros((2, 2)), beta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            prox_l20_rows(np.zeros((2, 2)), beta=1.0, lam=-0.1)


def test_norm_l20_counts_nonzero_columns():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert norm_l20(w) == 2
    assert norm_l20(np.zeros((3, 3))) == 0


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (300, 500), (2, 70000), (784, 2000)])
def test_norm_l20_counts_one_row_block_at_a_time(order, shape):
    # The count and the mask over row blocks equal the whole-array ones, in
    # either layout.  A nonzero entry sits alone in the last row of some
    # columns.  On a C-ordered 784x2000 block, the layout of every weight
    # block the package makes, the call adds under a block-sized boolean:
    # the whole mask is 1.5 MB, three blocks.
    rng = make_rng(shape[0] * 7 + shape[1])
    w = rng.standard_normal(shape) * (rng.uniform(size=shape[1]) < 0.5)
    w[-1, rng.uniform(size=shape[1]) < 0.1] = 1e-300
    w = np.asarray(w, order=order)
    block = prox.V_BLOCK * 8
    tracemalloc.start()
    try:
        count = norm_l20(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == int(np.any(w != 0.0, axis=0).sum())
    assert np.array_equal(prox._nonzero_cols(w), np.any(w != 0.0, axis=0))
    assert (shape, order) != ((784, 2000), "C") or peak <= 0.2 * block, f"norm_l20 adds {peak / block:.2f} blocks"


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (5, 8), (9, 255), (4, 257), (300, 513), (2, 70000)])
def test_packed_step_packs_row_blocks_as_packbits_packs_the_whole(monkeypatch, shape):
    # Packed one row block at a time (two rows a block here), the pattern
    # has the bytes of np.packbits over the whole mask, zero padding bits
    # included; -0.0, 0.0 and NaN are off, a positive denormal is on.
    # Any column range unpacks to the mask's columns, on a byte boundary
    # or not.
    monkeypatch.setattr(prox, "V_BLOCK", 2 * shape[1])
    rng = make_rng(shape[0] * 11 + shape[1])
    u = rng.standard_normal(shape)
    u.flat[rng.integers(0, u.size, 4)] = [-0.0, 0.0, np.nan, 1e-320]
    bits = prox._packed_step(u)
    assert bits.dtype == np.uint8 and bits.tobytes() == packed_pattern(u).tobytes()
    n = shape[1]
    for lo, hi in {(0, n), (0, n // 2), (n // 2, n), (n // 3, 2 * n // 3 + 1), (min(8, n), n)}:
        cols = prox._unpacked(bits, lo, hi)
        assert cols.dtype == np.bool_ and np.array_equal(cols, u[:, lo:hi] > 0)
