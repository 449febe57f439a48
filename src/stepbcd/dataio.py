"""Every file format the package reads or writes; dataset assembly; noise corruption.

IDX and CSV datasets share one label encoder, and ``write_csv`` writes all
CSV outputs (``report.csv``, ``metrics.csv``, ``robustness.csv``).  IDX
headers are big-endian regardless of host byte order.  Checkpoints hold
the weights alone, in a fixed little-endian layout with a trailing CRC-32
so round trips are bit-exact and corruption is detected.

Layout contract: every ``Dataset`` this module returns holds ``X`` as a
C-contiguous float64 matrix of features x samples (one column per sample)
and ``Y`` as the C-contiguous one-hot matrix of classes x samples.  Each
step of the input path copies
the data once: ``to_dataset`` and ``load_csv_dataset`` make one transposing
copy, ``Dataset.subset`` one column gather, and ``add_gaussian_noise`` adds
the inputs into its noise draw, or at sigma 0 into one new array.
"""

from __future__ import annotations

import csv
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .core import Hyperparams, NetworkShape, TrainState
from .prox import _row_blocks, check_one_hot

__all__ = [
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "IdxFormatError",
    "CheckpointError",
    "ChecksumError",
    "VersionError",
    "TruncatedCheckpointError",
    "Dataset",
    "load_idx_images",
    "load_idx_labels",
    "to_dataset",
    "load_csv_dataset",
    "write_csv",
    "add_gaussian_noise",
    "save_checkpoint",
    "load_checkpoint",
]

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

CHECKPOINT_MAGIC = b"01BCDCKP"
CHECKPOINT_VERSION = 2

# Refuse IDX headers whose element count cannot be a real dataset; guards
# against reading garbage headers as multi-terabyte allocations.
_MAX_IDX_ELEMENTS = 1 << 40


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or absurd dimensions."""


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


class ChecksumError(CheckpointError):
    """Checkpoint payload does not match its CRC-32."""


class VersionError(CheckpointError):
    """Checkpoint was written by an unsupported format version."""


class TruncatedCheckpointError(CheckpointError):
    """Checkpoint file is shorter than its declared length."""


@dataclass(frozen=True)
class Dataset:
    """Input matrix (columns are samples) and one-hot label matrix.

    One-hot validity of ``Y`` is checked on construction.  The [0, 1]
    input range is enforced where normalization happens (``to_dataset``,
    CSV import), not here, so noise-corrupted variants with clamping
    disabled remain representable.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be 2-D")
        if self.X.shape[1] != self.Y.shape[1]:
            raise ValueError(f"sample counts differ: X has {self.X.shape[1]}, Y has {self.Y.shape[1]}")
        check_one_hot(self.Y)

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def input_dim(self):
        return self.X.shape[0]

    def labels(self):
        return np.argmax(self.Y, axis=0)

    def subset(self, indices):
        """The samples at integer ``indices`` (any order, repeats and negatives allowed),
        gathered in one C-contiguous copy each of ``X`` and ``Y``; a boolean mask raises
        ValueError."""
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        elif not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"subset takes integer indices, not a {idx.dtype} array")
        return Dataset(self.X.take(idx, axis=1), self.Y.take(idx, axis=1))


def _read_exact(f, nbytes, path, what):
    data = f.read(nbytes)
    if len(data) != nbytes:
        raise IdxFormatError(f"{path}: truncated file while reading {what}")
    return data


def _read_idx(path, magic, ndim):
    """The uint8 tensor of an IDX file whose header has ``magic`` and ``ndim`` dimensions."""
    kinds = {IMAGE_MAGIC: "image", LABEL_MAGIC: "label"}
    with open(path, "rb") as f:
        found, *dims = struct.unpack(f">{ndim + 1}I", _read_exact(f, 4 * (ndim + 1), path, "header"))
        if found != magic:
            hint = f" (that is the {kinds[found]} magic)" if found in kinds else ""
            raise IdxFormatError(f"{path}: expected {kinds[magic]} magic {magic}, found {found}{hint}")
        total = math.prod(dims)
        if total > _MAX_IDX_ELEMENTS:
            raise IdxFormatError(f"{path}: dimension overflow: {' x '.join(map(str, dims))}")
        payload = _read_exact(f, total, path, f"{kinds[magic]} data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx_images(path):
    """Parse an IDX image file into a ``(count, rows, cols)`` uint8 tensor."""
    return _read_idx(path, IMAGE_MAGIC, 3)


def load_idx_labels(path):
    """Parse an IDX label file into a uint8 vector of class indices."""
    return _read_idx(path, LABEL_MAGIC, 1)


def _one_hot(labels, num_classes, where=""):
    """One-hot ``(num_classes, n)`` matrix of ``labels``; a label that is not an integer
    in ``[0, num_classes)`` raises ValueError naming it, its index and ``where``."""
    labels = np.asarray(labels)
    bad = ~((labels >= 0) & (labels < num_classes) & (labels == np.trunc(labels)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{where}label {labels[i]:g} at index {i} is not a class in [0, {num_classes})")
    y = np.zeros((num_classes, labels.shape[0]), dtype=np.float64)
    y[labels.astype(np.intp), np.arange(labels.shape[0])] = 1.0
    return y


def to_dataset(images, labels, num_classes, where=""):
    """Flatten, scale to [0, 1], and one-hot encode into a Dataset.

    Columns of X are samples (pixels / 255); Y[c, s] = 1 iff label s is c.
    A label error starts with ``where``, such as the label file's name.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    y = _one_hot(labels, num_classes, where)
    n = images.shape[0]
    x = images.reshape(n, int(np.prod(images.shape[1:]))).T.astype(np.float64, order="C")
    x /= 255.0
    return Dataset(x, y)


def load_csv_dataset(path, num_classes):
    """Read one sample per line, features first, integer label last.

    Features are taken as already normalized and must lie in [0, 1].
    """
    raw = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    features = np.ascontiguousarray(raw[:, :-1].T)
    if not np.all((features >= 0.0) & (features <= 1.0)):
        raise ValueError(f"{path}: a feature is NaN or outside [0, 1]")
    return Dataset(features, _one_hot(raw[:, -1], num_classes, f"{path}: "))


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` with ``csv.writer`` (CRLF line ends); floats as
    ``.17g``, which reads back to the same float, other values as ``str``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)


def add_gaussian_noise(data, sigma, rng, clamp=True):
    """Corrupt inputs with i.i.d. Gaussian noise; labels are untouched.

    ``sigma = 0`` draws nothing from ``rng`` and returns ``X + 0.0``,
    which has the bits of adding ``X`` into a draw of zeros: a ``-0.0``
    entry becomes ``+0.0``.  Every caller passes a stream of its own
    (``core.STAGE_NOISE`` per level, ``core.STAGE_TRAIN_NOISE``), so no
    other stage's draws depend on whether this one draws.  Clamping back
    to [0, 1] is on by default since pixels are intensities.  A negative
    or non-finite ``sigma`` raises ValueError.
    """
    if not (sigma >= 0.0 and np.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        x = np.add(data.X, 0.0, dtype=np.float64, order="C")
    else:
        x = rng.normal(0.0, sigma, size=data.X.shape)
        x += data.X
    if clamp:
        np.clip(x, 0.0, 1.0, out=x)
    return Dataset(x, data.Y.copy())


def _header_format(h):
    """The version-2 header of an ``h``-layer net: u32 version, h, the h+1
    widths and N; f64 tau, pi, gamma, lam, beta; u32 L, K."""
    return struct.Struct(f"<{h + 4}I5d2I")


def _weight_layout(shape):
    """Name and ``(rows, cols)`` of each block the file stores: the weights."""
    return TrainState.layout(shape, 0)[: shape.h]


def _payload(header, layout, state):
    """The payload in file order: the header, then each ``layout`` block's u32
    rows and cols and its row-major little-endian f64 entries, one row block
    at a time, copied only from a block that is not C-ordered."""
    yield header
    for (_, rows_cols), m in zip(layout, state.W):
        yield struct.pack("<II", *rows_cols)
        for lo, hi in _row_blocks(*m.shape):
            yield np.ascontiguousarray(m[lo:hi], dtype="<f8")


def save_checkpoint(state, shape, hp, path):
    """Serialize the weights of ``state``, ``shape`` and the hyperparameters
    with a trailing CRC-32.  Only the weights are stored: a state that still
    holds its U/V blocks writes the bytes of its weights alone.  The header
    keeps N, the state's ``n_samples``.

    Layout: magic, u64 payload length, payload (``_payload``), u32 CRC-32
    of the payload, each part written straight to the file."""
    n = state.n_samples
    if n is None:
        raise ValueError("the state names no sample count N for the checkpoint header")
    state.check_consistent(shape, n)
    state.check_finite()
    header = _header_format(shape.h).pack(CHECKPOINT_VERSION, shape.h, *shape.dims, n, hp.tau, hp.pi,
                                          hp.gamma, hp.lam, hp.beta, hp.L, hp.K)
    layout = _weight_layout(shape)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(header) + sum(8 + 8 * r * c for _, (r, c) in layout)))
        crc = 0
        for part in _payload(header, layout, state):
            f.write(part)
            crc = zlib.crc32(part, crc)
            del part  # else it is live while the next row block is copied
        f.write(struct.pack("<I", crc))


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``; returns ``(state, shape, hp)``, where
    ``state`` holds the weights and the header's N as ``n_samples``.

    Bad magic, truncation, checksum failure, and version mismatch raise
    distinct errors.  The CRC is checked before the header is read, the
    header's block sizes before any block is allocated, and each block's
    stored ``(rows, cols)`` against the header's before it is read."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(CHECKPOINT_MAGIC) + 8
    if len(data) < head + 8 + 4:  # the version and h, and the CRC
        raise TruncatedCheckpointError(f"{path}: file too short for a checkpoint")
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (payload_len,) = struct.unpack_from("<Q", data, len(CHECKPOINT_MAGIC))
    expected = head + payload_len + 4
    if len(data) < expected:
        raise TruncatedCheckpointError(f"{path}: expected {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise CheckpointError(f"{path}: {len(data) - expected} bytes of trailing data")
    # A memoryview slice: a bytes slice would copy the whole payload.
    payload = memoryview(data)[head : head + payload_len]
    (stored_crc,) = struct.unpack_from("<I", data, head + payload_len)
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")

    version, h = struct.unpack_from("<II", payload)
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    header = _header_format(h)
    if header.size > len(payload):
        raise TruncatedCheckpointError(f"{path}: payload ends inside the header")
    _, _, *dims, n, tau, pi, gamma, lam, beta, big_l, big_k = header.unpack_from(payload)
    shape = NetworkShape(dims)
    hp = Hyperparams(tau=tau, pi=pi, gamma=gamma, lam=lam, beta=beta, L=big_l, K=big_k)
    layout = _weight_layout(shape)
    claimed = header.size + sum(8 + 8 * r * c for _, (r, c) in layout)
    if claimed != len(payload):
        error = TruncatedCheckpointError if claimed > len(payload) else CheckpointError
        raise error(f"{path}: the header's blocks end at byte {claimed} of a {len(payload)}-byte payload")
    blocks, off = [], header.size
    for name, (rows, cols) in layout:
        stored = struct.unpack_from("<II", payload, off)
        if stored != (rows, cols):
            raise CheckpointError(f"{path}: {name} is stored as {stored}, the header gives {(rows, cols)}")
        # frombuffer views are read-only, so each block is copied out.
        blocks.append(np.frombuffer(payload, "<f8", rows * cols, off + 8).reshape(rows, cols).copy())
        off += 8 + 8 * rows * cols
    # The file's bytes go before the finiteness check, whose boolean row
    # block would otherwise be held on top of them and the blocks.
    del payload, data
    state = TrainState(blocks, [], [], n)
    state.check_finite()
    return state, shape, hp
