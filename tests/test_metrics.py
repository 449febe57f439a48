import numpy as np
import pytest

from stepbcd.core import make_rng
from stepbcd.dataio import Dataset, write_csv
from stepbcd.metrics import (
    METRICS_FIELDS,
    EvalResult,
    evaluate,
    filter_count,
    flops_estimate,
    param_count,
    predict_classes,
)

from datagen import make_cluster_dataset


def forward_oracle(w_list, x):
    """Straight-line single-sample forward pass with the lowest-index tie rule."""
    z = np.array(x, dtype=float)
    for i, w in enumerate(w_list):
        if i > 0:
            z = np.array([1.0 if t > 0 else 0.0 for t in z])
        z = w @ z
    best, best_val = 0, z[0]
    for i, t in enumerate(z):
        if t > best_val:
            best, best_val = i, t
    return best


class TestForwardPredict:
    """Class prediction of one sample through the 0/1 forward pass."""

    def test_identity_single_layer(self):
        assert predict_classes([np.eye(3)], np.array([[0.0], [1.0], [0.0]]))[0] == 1

    def test_all_tie_resolves_to_lowest_index(self):
        assert predict_classes([np.zeros((4, 2))], np.array([[1.0], [1.0]]))[0] == 0

    def test_matches_straight_line_oracle(self):
        rng = make_rng(1)
        w = [rng.standard_normal((6, 4)), rng.standard_normal((5, 6)), rng.standard_normal((3, 5))]
        for _ in range(50):
            x = rng.standard_normal(4)
            assert predict_classes(w, x.reshape(-1, 1))[0] == forward_oracle(w, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="layer 1"):
            predict_classes([np.zeros((3, 2)), np.zeros((2, 4))], np.zeros((2, 1)))

    def test_positive_rescaling_invariance(self):
        rng = make_rng(2)
        w = [rng.standard_normal((8, 4)), rng.standard_normal((6, 8)), rng.standard_normal((3, 6))]
        x = rng.standard_normal((4, 20))
        base = predict_classes(w, x)
        for _ in range(100):
            c = float(rng.uniform(1e-3, 1e3))
            layer = int(rng.integers(0, 3))
            scaled = [m.copy() for m in w]
            scaled[layer] *= c
            if layer < 2:
                # hidden rescaling flows through the step function unchanged
                assert np.array_equal(predict_classes(scaled, x), base)
            else:
                # output rescaling preserves the argmax
                assert np.array_equal(predict_classes(scaled, x), base)


class TestEvaluate:
    def test_perfect_predictor(self):
        data = Dataset(np.eye(3), np.eye(3))
        res = evaluate([np.eye(3)], data)
        assert res == EvalResult(0.0, correct=3, total=3)

    def test_single_sample_wrong(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])
        res = evaluate([np.eye(2)], Dataset(x, y))
        assert res == EvalResult(1.0, correct=0, total=1)

    def test_constructed_fifty_fifty(self):
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = evaluate([np.eye(2)], Dataset(x, y))
        assert res.error_rate == 0.5

    def test_order_independence(self, tiny_data):
        rng = make_rng(3)
        w = [rng.standard_normal((8, 4)), rng.standard_normal((3, 8))]
        base = evaluate(w, tiny_data)
        perm = rng.permutation(tiny_data.n)
        shuffled = evaluate(w, tiny_data.subset(perm))
        assert base == shuffled

    def test_empty_split_rejected(self):
        data = make_cluster_dataset(3, 2, 4, make_rng(4))
        with pytest.raises(ValueError, match="empty split"):
            evaluate([np.eye(3)], data.subset(np.array([], dtype=int)))


class TestFilterCount:
    def test_single_block_counts_its_columns(self):
        assert filter_count([np.eye(3)]) == 3

    def test_all_zero_network(self):
        assert filter_count([np.zeros((4, 3)), np.zeros((2, 4))]) == 0

    def test_dense_reference_architecture(self):
        w = [np.ones((2000, 784)), np.ones((2000, 2000)), np.ones((10, 2000))]
        assert filter_count(w) == 4000

    def test_outgoing_vs_incoming(self):
        w1 = np.ones((4, 3))
        w2 = np.ones((2, 4))
        w2[:, 1] = 0.0  # unit 1 of the hidden layer feeds nothing
        assert filter_count([w1, w2], "outgoing") == 3
        w1_in = w1.copy()
        w1_in[2, :] = 0.0  # unit 2 receives nothing
        assert filter_count([w1_in, w2], "incoming") == 3
        with pytest.raises(ValueError):
            filter_count([w1, w2], "sideways")

    def test_never_exceeds_hidden_width_sum(self):
        rng = make_rng(5)
        for _ in range(20):
            dims = rng.integers(1, 6, size=4)
            w = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(3)]
            assert filter_count(w) <= int(dims[1] + dims[2])


class TestParamCount:
    def test_dense_reference_architecture(self):
        w = [np.ones((2000, 784)), np.ones((2000, 2000)), np.ones((10, 2000))]
        assert param_count(w) == 784 * 2000 + 2000 * 2000 + 2000 * 10 == 5_588_000

    def test_all_zero_with_exclusion(self):
        assert param_count([np.zeros((3, 3))], count_pruned=False) == 0

    def test_one_zeroed_column(self):
        w = np.ones((4, 4))
        w[:, 2] = 0.0
        assert param_count([w], count_pruned=False) == 12
        assert param_count([w], count_pruned=True) == 16

    def test_pruned_never_exceeds_raw(self):
        rng = make_rng(6)
        w = [rng.standard_normal((5, 4)), rng.standard_normal((3, 5))]
        w[0][:, 1] = 0.0
        assert param_count(w, count_pruned=False) <= param_count(w, count_pruned=True)


class TestFlops:
    def test_dense_layer(self):
        assert flops_estimate([np.ones((3, 4))]) == 24.0

    def test_zeroed_column_reduces_by_two_rows(self):
        w = np.ones((3, 4))
        dense = flops_estimate([w])
        w = w.copy()
        w[:, 0] = 0.0
        assert flops_estimate([w]) == dense - 2 * 3

    def test_direction_under_pruning(self):
        rng = make_rng(7)
        w = [rng.standard_normal((6, 4)), rng.standard_normal((3, 6))]
        dense = flops_estimate(w)
        pruned = [m.copy() for m in w]
        pruned[1][:, :3] = 0.0
        assert flops_estimate(pruned) < dense
        assert filter_count(pruned) < filter_count(w)


def test_metrics_csv_format(tmp_path):
    path = tmp_path / "metrics.csv"
    write_csv(path, METRICS_FIELDS, [("test", 0.125, 40, 1000, 2048.0), ("train", 0.1, 40, 1000, 2048.0)])
    assert path.read_bytes() == (b"split,error,fil_num,par_num,flops\r\n"
                                 b"test,0.125,40,1000,2048\r\n"
                                 b"train,0.10000000000000001,40,1000,2048\r\n")
