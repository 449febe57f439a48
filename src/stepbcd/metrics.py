"""Prediction, error rates, and network-scale statistics.

Prediction uses the trained weights only: step activation after every
layer but the last, argmax at the output.  Argmax ties resolve to the
lowest index here; the training-side hardmax keeps its multi-hot
definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _layers
from .prox import norm_l20

__all__ = [
    "EvalResult",
    "forward_scores",
    "predict_classes",
    "evaluate",
    "filter_count",
    "param_count",
    "flops_estimate",
]

METRICS_FIELDS = ("split", "error", "fil_num", "par_num", "flops")


@dataclass(frozen=True)
class EvalResult:
    error_rate: float
    correct: int
    total: int


def forward_scores(w_list, x):
    """Output-layer pre-activations of the 0/1 forward pass, columnwise.

    Each hidden layer's blocks are dropped before the next layer's are
    formed, so the pass holds two hidden blocks at most."""
    for u, v in _layers(w_list, x):
        if v is None:
            return u
        del u, v


def predict_classes(w_list, x):
    """Predicted class per column; argmax ties break to the lowest index."""
    return np.argmax(forward_scores(w_list, x), axis=0)


def evaluate(w_list, data):
    """Top-1 evaluation over a dataset; order-independent."""
    if data.n == 0:
        raise ValueError("empty split")
    correct = int((predict_classes(w_list, data.X) == data.labels()).sum())
    return EvalResult(1.0 - correct / data.n, correct, data.n)


def filter_count(w_list):
    """Number of hidden units that survive column pruning (``fil_num``).

    Hidden unit j of layer i is live iff column j of the next weight block
    is nonzero, so the count sums nonzero columns over the second through
    last blocks.  A single-block network has no hidden layers; its lone
    block's columns are counted so the degenerate case still reflects
    pruning.
    """
    if len(w_list) == 1:
        return norm_l20(w_list[0])
    return sum(norm_l20(w) for w in w_list[1:])


def param_count(w_list, count_pruned=True):
    """Total weight entries; pruned columns excluded when ``count_pruned`` is false."""
    if count_pruned:
        return sum(w.size for w in w_list)
    return sum(w.shape[0] * norm_l20(w) for w in w_list)


def flops_estimate(w_list):
    """Multiply-accumulate estimate per sample: 2 x rows x live columns per layer.

    Counts only non-pruned columns, i.e. a zeroed column removes
    ``2 x rows`` operations.  This is a counting convention, not a
    measured cost.
    """
    return float(sum(2 * w.shape[0] * norm_l20(w) for w in w_list))
