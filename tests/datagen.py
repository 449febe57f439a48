"""Synthetic corpora, IDX writers and hand-made checkpoints for the tests.

The package only reads IDX files and ingests real data; the tests build
their inputs with these helpers.
"""

import struct
import zlib

import numpy as np

from stepbcd.dataio import CHECKPOINT_MAGIC, IMAGE_MAGIC, LABEL_MAGIC, Dataset


def write_idx_images(path, images):
    """Write a ``(count, rows, cols)`` uint8 tensor in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"expected a 3-D image tensor, got shape {images.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a label vector in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"expected a 1-D label vector, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def write_v1_checkpoint(path, state, shape, hp):
    """Write a full ``state`` in the retired version-1 checkpoint layout,
    which the package no longer reads: magic, u64 payload length, payload,
    u32 CRC-32.  The payload's header is u32 version 1, h, the h+1 widths
    and N; f64 tau, pi, gamma, lam, beta; u32 L, K; a reserved f64.  Every
    W, U and V block follows, each as u32 rows and cols and its row-major
    little-endian f64 entries."""
    n = state.U[0].shape[1]
    payload = struct.pack(f"<{shape.h + 4}I5d2Id", 1, shape.h, *shape.dims, n, hp.tau, hp.pi, hp.gamma,
                          hp.lam, hp.beta, hp.L, hp.K, 1e-10)
    for m in (*state.W, *state.U, *state.V):
        payload += struct.pack("<II", *m.shape) + np.ascontiguousarray(m, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload
                + struct.pack("<I", zlib.crc32(payload)))


# Headers a version-2 file may carry that no net or run accepts, as
# ``(dims, tau, the error's message)``.
INVALID_HEADERS = {
    "h-0": ((5,), 1.0, "need at least input and output widths, got (5,)"),
    "zero-width": ((5, 0), 1.0, "all widths must be >= 1, got (5, 0)"),
    "nan-tau": ((5, 3), float("nan"), "tau must be positive and finite, got nan"),
}


def write_checkpoint_header(path, dims, tau=1.0):
    """Write a version-2 checkpoint that holds a header alone, with a valid
    length and CRC-32: u32 version 2, h, the widths ``dims`` and N = 1;
    f64 tau, pi, gamma, lam, beta; u32 L, K.  ``dims`` may be a net no
    package call builds."""
    h = len(dims) - 1
    payload = struct.pack(f"<{h + 4}I5d2I", 2, h, *dims, 1, tau, 1.0, 1.0, 0.0, 1.0, 1, 1)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload
                + struct.pack("<I", zlib.crc32(payload)))


def make_synthetic_images(n, num_classes, rng, rows=28, cols=28, block=4):
    """Deterministic image-classification surrogate in IDX-compatible form.

    Each class gets a random blocky prototype; samples are the prototype
    plus pixel noise, quantized to uint8.  Returns ``(images, labels)``
    with balanced labels in a seeded shuffled order.
    """
    if rows % block or cols % block:
        raise ValueError(f"block {block} must divide rows {rows} and cols {cols}")
    protos = np.kron(
        rng.integers(0, 2, size=(num_classes, rows // block, cols // block)) * 160.0,
        np.ones((block, block)),
    )
    labels = (np.arange(n) % num_classes).astype(np.uint8)
    rng.shuffle(labels)
    images = protos[labels] + rng.normal(0.0, 32.0, size=(n, rows, cols))
    return np.clip(images, 0.0, 255.0).astype(np.uint8), labels


def make_cluster_dataset(input_dim, num_classes, n, rng, spread=0.05):
    """Small separable dataset: one prototype per class plus jitter, in [0, 1]."""
    protos = rng.random((input_dim, num_classes))
    labels = (np.arange(n) % num_classes).astype(np.intp)
    rng.shuffle(labels)
    x = protos[:, labels] + spread * rng.standard_normal((input_dim, n))
    np.clip(x, 0.0, 1.0, out=x)
    y = np.zeros((num_classes, n), dtype=np.float64)
    y[labels, np.arange(n)] = 1.0
    return Dataset(x, y)
