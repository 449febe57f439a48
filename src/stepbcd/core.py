"""Shared containers and primitives: shapes, state, hyperparameters, RNG
streams and the 0/1 forward pass.

Matrices are plain 2-D float64 numpy arrays (row-major).  64-bit floats are
required throughout: the thresholding solvers sit on knife-edge equalities
that 32-bit arithmetic would resolve differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import _row_blocks, step

__all__ = [
    "STAGE_INIT",
    "STAGE_NOISE",
    "STAGE_SHUFFLE",
    "STAGE_TRAIN_NOISE",
    "make_rng",
    "NetworkShape",
    "Hyperparams",
    "TrainState",
    "forward_blocks",
    "init_gaussian",
]

# Stage codes for derived random streams.  Each randomized stage draws from
# its own stream keyed by (seed, stage, ...), so toggling one stage never
# shifts another stage's draws.  STAGE_NOISE keys the noise levels of a
# robustness sweep, STAGE_TRAIN_NOISE the noise on the training inputs.
STAGE_INIT = 0
STAGE_NOISE = 1
STAGE_SHUFFLE = 2
STAGE_TRAIN_NOISE = 3


def make_rng(seed, *path):
    """Seeded generator for the stream keyed by ``(seed, *path)``.

    Identical keys give identical streams across runs and processes.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


def _is_integer(n):
    """Whether ``n`` is an ``int`` or numpy integer and not a ``bool``."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths ``(d_0, ..., d_h)`` of a fully-connected network.

    ``h = len(dims) - 1`` is the number of weight layers; weight i maps
    layer i to layer i+1 and has shape ``(dims[i+1], dims[i])``.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if not all(_is_integer(d) for d in self.dims):
            raise ValueError(f"widths must be integers, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 2:
            raise ValueError(f"need at least input and output widths, got {self.dims}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all widths must be >= 1, got {self.dims}")

    @property
    def h(self):
        return len(self.dims) - 1

    def weight_shape(self, i):
        return (self.dims[i + 1], self.dims[i])


@dataclass(frozen=True)
class Hyperparams:
    """Penalty, regularization, and step-size constants.

    Defaults are the reference experimental values: tau/pi weight the two
    coupling penalties, gamma the Frobenius term, lam the group-sparsity
    term, beta the proximal step, L the inner proximal-gradient iterations,
    K the outer iterations.  The closed-form solvers' one-sided limits use
    the constant ``prox.EPS_TINY``, which is not a hyperparameter.
    """

    tau: float = 1e-6
    pi: float = 1e-7
    gamma: float = 1e-8
    lam: float = 0.052
    beta: float = 0.00072
    L: int = 1
    K: int = 35

    def __post_init__(self):
        for name in ("tau", "pi", "gamma", "beta"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if not (_is_integer(self.L) and _is_integer(self.K)):
            raise ValueError(f"L and K must be integers, got L={self.L!r} K={self.K!r}")
        if not (0 <= self.L < 2**32 and 0 <= self.K < 2**32):
            raise ValueError(f"L and K must lie in [0, 2^32), the range of the checkpoint's "
                             f"32-bit fields, got L={self.L} K={self.K}")


@dataclass
class TrainState:
    """The three matrix blocks the outer loop updates, over ``n_samples`` samples.

    ``W[i]`` is ``dims[i+1] x dims[i]``; ``U[i]`` is ``dims[i+1] x N``;
    ``V[i]`` is the post-activation state of hidden layer i+1
    (``dims[i+1] x N``, one fewer entry than U since the input matrix is
    held by the dataset).  A trained or loaded state holds the weights
    alone: ``U`` and ``V`` are empty and ``n_samples`` keeps the N it was
    trained on.  Left unset, ``n_samples`` is read from ``U[-1]``.

    Between full-batch sweeps a hidden ``U[i]`` (``i < h-1``) is held as
    its step pattern ``U[i] > 0``, packed along each row by
    ``prox._packed_step``: a ``uint8`` block of ``dims[i+1] x ceil(N/8)``
    bytes.  The next sweep's state solve reads it as it is, and nothing
    else reads the old ``U[i]``.  ``U[h-1]`` stays float.
    ``check_consistent`` and ``check_finite`` accept such a state;
    ``trainer.objective_f`` scores float ones.
    """

    W: list[np.ndarray]
    U: list[np.ndarray]
    V: list[np.ndarray]
    n_samples: int | None = None

    def __post_init__(self):
        if self.n_samples is None and self.U:
            self.n_samples = self.U[-1].shape[1]

    def copy(self):
        return TrainState([w.copy() for w in self.W], [u.copy() for u in self.U], [v.copy() for v in self.V],
                          self.n_samples)

    @staticmethod
    def layout(shape, n_samples):
        """Name and ``(rows, cols)`` of each block of a ``shape`` state over
        ``n_samples`` samples, in the order W, U, V."""
        w = [(f"W[{i}]", shape.weight_shape(i)) for i in range(shape.h)]
        u = [(f"U[{i}]", (d, n_samples)) for i, d in enumerate(shape.dims[1:])]
        v = [(f"V[{i}]", (d, n_samples)) for i, d in enumerate(shape.dims[1:-1])]
        return w + u + v

    def check_consistent(self, shape, n_samples):
        """Raise ValueError naming the first block whose shape is not its
        ``layout`` one.  The state holds every block, or the weights alone.
        A hidden ``U[i]`` may be its packed step pattern, a ``uint8`` block
        of ``ceil(N/8)`` columns."""
        h = shape.h
        if len(self.W) != h or (len(self.U), len(self.V)) not in ((h, h - 1), (0, 0)):
            raise ValueError(f"block counts {len(self.W)}/{len(self.U)}/{len(self.V)} inconsistent with h={h}")
        packable = {f"U[{i}]" for i in range(h - 1)}
        for (name, (rows, cols)), m in zip(self.layout(shape, n_samples), (*self.W, *self.U, *self.V)):
            if name in packable and m.dtype == np.uint8:
                cols = (cols + 7) // 8
            if m.shape != (rows, cols):
                raise ValueError(f"{name} has shape {m.shape}, expected {(rows, cols)}")

    def check_finite(self):
        """Raise ``FloatingPointError`` naming the first block with a
        non-finite entry (``_check_finite``).  A packed ``U`` block holds
        bits, which are finite."""
        for name, blocks in (("W", self.W), ("U", self.U), ("V", self.V)):
            for i, m in enumerate(blocks):
                _check_finite(f"{name}[{i}]", m)


def _check_finite(name, m):
    """Raise ``FloatingPointError`` naming ``name`` when the block ``m`` has
    a non-finite entry.  It is tested one row block at a time, so no
    full-size boolean is formed; an F-ordered block through its C-ordered
    transpose."""
    t = m.T if m.flags.f_contiguous else m
    if not all(np.isfinite(t[lo:hi]).all() for lo, hi in _row_blocks(*t.shape)):
        raise FloatingPointError(f"{name} contains non-finite entries")


def _layers(w_list, x):
    """Each layer's ``(U_i, V_i)`` of the 0/1 forward pass from ``x``, with
    ``U_i = W_i V_(i-1)``, ``V_i = step(U_i)`` and no ``V`` at the output.

    On resuming, the generator drops ``U_i`` before it forms ``U_(i+1)``,
    and ``V_i`` once ``U_(i+1)`` is formed, so a caller that drops each
    pair before asking for the next holds two hidden blocks at most.  A
    weight block that does not accept its layer's input raises
    ``ValueError`` naming the layer.
    """
    v = x
    for i, w in enumerate(w_list):
        if w.shape[1] != v.shape[0]:
            raise ValueError(f"layer {i}: weight {w.shape} does not accept input {v.shape}")
        u = w @ v
        del v
        v = step(u) if i < len(w_list) - 1 else None
        yield u, v
        del u


def forward_blocks(w_list, x):
    """Pre- and post-activation blocks of a 0/1 forward pass from ``x``.

    Returns ``(U, V)`` with ``U_i = W_i V_(i-1)`` and ``V_i = step(U_i)``,
    a feasible point for the coupling constraints.  A weight block that
    does not accept its layer's input raises ``ValueError`` naming the layer.
    """
    u_list, v_list = [], []
    for u, v in _layers(w_list, x):
        u_list.append(u)
        if v is not None:
            v_list.append(v)
    return u_list, v_list


def _gaussian_weights(shape, scale, rng):
    """I.i.d. ``Normal(0, scale^2)`` weight blocks of ``shape``, drawn from
    ``rng`` in layer order."""
    if not (scale > 0.0 and np.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return [rng.normal(0.0, scale, size=shape.weight_shape(i)) for i in range(shape.h)]


def init_gaussian(shape, scale, rng, x):
    """Gaussian weight init plus a 0/1 forward pass for the U/V blocks.

    Weights are i.i.d. ``Normal(0, scale^2)``.  The forward-pass start
    makes both coupling penalties exactly zero initially.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != shape.dims[0]:
        raise ValueError(f"input matrix {x.shape} does not match d0={shape.dims[0]}")

    w_list = _gaussian_weights(shape, scale, rng)
    u_list, v_list = forward_blocks(w_list, x)
    return TrainState(w_list, u_list, v_list)
