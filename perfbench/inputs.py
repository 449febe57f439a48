"""Seeded benchmark inputs: a blocky ten-class 28x28 image corpus and its IDX files.

The corpus is generated here rather than by ``stepbcd.dataio`` so that
changes to the library never move the benchmark's inputs.  Train and test
images are drawn from one set of class prototypes, so what is learned on
the train split carries over to the test split.
"""

from __future__ import annotations

import struct

import numpy as np

ROWS = COLS = 28
BLOCK = 4
CLASSES = 10
CONTRAST = 160.0
PIXEL_NOISE = 32.0

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

# Mixed into the seed so the corpus stream is not the stream a bare
# ``np.random.default_rng(seed)`` would give.
_STREAM_TAG = 0x5EBC


def make_corpus(seed, n_train, n_test):
    """Return ``(prototypes, (train_images, train_labels), (test_images, test_labels))``.

    Each class has one random blocky prototype of 0 and ``CONTRAST``
    pixels; a sample is its prototype plus Gaussian pixel noise, clipped
    and quantized to uint8.  Labels are balanced and shuffled.  The same
    seed gives the same arrays, bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), _STREAM_TAG])))
    cells = rng.integers(0, 2, size=(CLASSES, ROWS // BLOCK, COLS // BLOCK))
    protos = np.kron(cells * CONTRAST, np.ones((BLOCK, BLOCK)))
    n = n_train + n_test
    labels = (np.arange(n) % CLASSES).astype(np.uint8)
    rng.shuffle(labels)
    noisy = protos[labels] + rng.normal(0.0, PIXEL_NOISE, size=(n, ROWS, COLS))
    images = np.clip(noisy, 0.0, 255.0).astype(np.uint8)
    return protos, (images[:n_train], labels[:n_train]), (images[n_train:], labels[n_train:])


def write_idx_images(path, images):
    """Write a ``(count, rows, cols)`` uint8 tensor as an IDX3 image file."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a uint8 label vector as an IDX1 label file."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())
