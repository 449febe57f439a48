import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from stepbcd.core import Hyperparams, NetworkShape, TrainState, init_gaussian, make_rng
from stepbcd.dataio import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ChecksumError,
    Dataset,
    IdxFormatError,
    TruncatedCheckpointError,
    VersionError,
    add_gaussian_noise,
    load_checkpoint,
    load_idx_images,
    load_idx_labels,
    save_checkpoint,
    to_dataset,
)
from stepbcd.prox import V_BLOCK

from datagen import (
    INVALID_HEADERS,
    make_cluster_dataset,
    make_synthetic_images,
    write_checkpoint_header,
    write_idx_images,
    write_idx_labels,
    write_v1_checkpoint,
)


@pytest.fixture
def image_fixture(tmp_path):
    """Two 2x2 images with hand-chosen bytes, big-endian header."""
    pixels = bytes([0, 64, 128, 255, 1, 2, 3, 4])
    raw = struct.pack(">IIII", 2051, 2, 2, 2) + pixels
    path = tmp_path / "imgs.idx"
    path.write_bytes(raw)
    expected = np.array([[[0, 64], [128, 255]], [[1, 2], [3, 4]]], dtype=np.uint8)
    return path, expected


class TestIdx:
    def test_hand_built_image_fixture_round_trips(self, image_fixture):
        path, expected = image_fixture
        assert np.array_equal(load_idx_images(path), expected)

    def test_hand_built_label_fixture(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 2049, 3) + bytes([0, 5, 9]))
        assert np.array_equal(load_idx_labels(path), [0, 5, 9])

    def test_label_file_passed_to_image_loader(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 2049, 8) + bytes(range(8)))
        with pytest.raises(IdxFormatError, match="expected image magic"):
            load_idx_images(path)

    def test_image_file_passed_to_label_loader(self, image_fixture):
        path, _ = image_fixture
        with pytest.raises(IdxFormatError, match="expected label magic"):
            load_idx_labels(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(3))
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 2051, 2**31, 2**20, 2**20))
        with pytest.raises(IdxFormatError, match="overflow"):
            load_idx_images(path)

    def test_writers_round_trip(self, tmp_path):
        rng = make_rng(1)
        images = rng.integers(0, 256, size=(5, 3, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, size=5).astype(np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        assert np.array_equal(load_idx_images(tmp_path / "i.idx"), images)
        assert np.array_equal(load_idx_labels(tmp_path / "l.idx"), labels)

    def test_header_is_big_endian_on_disk(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((1, 2, 3), dtype=np.uint8))
        raw = (tmp_path / "i.idx").read_bytes()
        assert raw[:16] == bytes([0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3])


class TestToDataset:
    def test_pixel_scaling(self):
        images = np.array([[[0, 255]]], dtype=np.uint8)
        data = to_dataset(images, np.array([1], dtype=np.uint8), 3)
        assert data.X[0, 0] == 0.0 and data.X[1, 0] == 1.0

    def test_one_hot_position(self):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        data = to_dataset(images, np.array([3]), 10)
        assert data.Y[3, 0] == 1.0 and data.Y.sum() == 1.0

    def test_column_sums_are_one(self):
        rng = make_rng(2)
        images = rng.integers(0, 256, (20, 2, 2)).astype(np.uint8)
        data = to_dataset(images, rng.integers(0, 4, 20), 4)
        assert np.array_equal(data.Y.sum(axis=0), np.ones(20))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            to_dataset(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8), 10)

    def test_label_exceeding_class_count_is_named(self):
        with pytest.raises(ValueError, match="label 7 at index 1"):
            to_dataset(np.zeros((2, 2, 2), dtype=np.uint8), np.array([1, 7]), 4)

    @pytest.mark.parametrize("label", [-1, 2.5])
    def test_negative_or_fractional_label_is_rejected(self, label):
        with pytest.raises(ValueError, match=f"label {label:g} at index 0"):
            to_dataset(np.zeros((1, 2, 2), dtype=np.uint8), np.array([label]), 10)


class TestNoise:
    def test_sigma_zero_is_identity(self, tiny_data):
        out = add_gaussian_noise(tiny_data, 0.0, make_rng(3))
        assert np.array_equal(out.X, tiny_data.X)
        assert np.array_equal(out.Y, tiny_data.Y)

    def test_reproducible_given_seed(self, tiny_data):
        a = add_gaussian_noise(tiny_data, 0.1, make_rng(4))
        b = add_gaussian_noise(tiny_data, 0.1, make_rng(4))
        assert np.array_equal(a.X, b.X)

    def test_empirical_std(self):
        x = np.full((1000, 1000), 0.5)
        y = np.zeros((2, 1000))
        y[0] = 1.0
        data = Dataset(x, y)
        noisy = add_gaussian_noise(data, 0.2, make_rng(5), clamp=False)
        emp = (noisy.X - x).std()
        assert abs(emp - 0.2) < 0.002  # 1% on 10^6 entries

    def test_labels_never_altered_and_not_aliased(self, tiny_data):
        noisy = add_gaussian_noise(tiny_data, 0.3, make_rng(6))
        assert np.array_equal(noisy.Y, tiny_data.Y)
        assert not np.shares_memory(noisy.Y, tiny_data.Y)

    def test_clamp_keeps_unit_interval(self, tiny_data):
        noisy = add_gaussian_noise(tiny_data, 5.0, make_rng(7), clamp=True)
        assert noisy.X.min() >= 0.0 and noisy.X.max() <= 1.0
        unclamped = add_gaussian_noise(tiny_data, 5.0, make_rng(7), clamp=False)
        assert unclamped.X.min() < 0.0 or unclamped.X.max() > 1.0

    def test_negative_sigma_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            add_gaussian_noise(tiny_data, -0.1, make_rng(8))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, tiny_data, sigma):
        with pytest.raises(ValueError, match="finite"):
            add_gaussian_noise(tiny_data, sigma, make_rng(8))


@pytest.fixture
def saved_checkpoint(tmp_path, tiny_data):
    shape = NetworkShape((4, 8, 5, 3))
    state = init_gaussian(shape, 0.3, make_rng(9), tiny_data.X)
    hp = Hyperparams(tau=0.5, pi=0.25, gamma=0.125, lam=0.3, beta=0.01, L=2, K=7)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, shape, hp, path)
    return path, state, shape, hp


class TestCheckpoint:
    def test_bit_exact_round_trip(self, saved_checkpoint):
        path, state, shape, hp = saved_checkpoint
        loaded, lshape, lhp = load_checkpoint(path)
        assert lshape == shape and lhp == hp
        # The file holds the weights and the header's N, not the U/V blocks.
        assert loaded.U == loaded.V == [] and loaded.n_samples == state.n_samples == 32
        for a, b in zip(loaded.W, state.W, strict=True):
            assert _same_bits(a, b)
            assert a.dtype == np.float64 and a.flags.c_contiguous

    def test_corrupt_payload_byte_fails_checksum(self, saved_checkpoint):
        path, *_ = saved_checkpoint
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_truncated_file(self, saved_checkpoint):
        path, *_ = saved_checkpoint
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, saved_checkpoint):
        path, *_ = saved_checkpoint
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACKPT"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, saved_checkpoint):
        path, *_ = saved_checkpoint
        payload = bytearray(path.read_bytes()[len(CHECKPOINT_MAGIC) + 8 : -4])
        struct.pack_into("<I", payload, 0, 99)
        _rewrite_payload(path, payload)
        with pytest.raises(VersionError, match="99"):
            load_checkpoint(path)

    def test_version_1_file_is_refused(self, saved_checkpoint, tmp_path):
        _, state, shape, hp = saved_checkpoint
        path = tmp_path / "v1.bin"
        write_v1_checkpoint(path, state, shape, hp)
        with pytest.raises(VersionError, match="format version 1, expected 2"):
            load_checkpoint(path)

    def test_file_holds_the_header_and_weights_alone(self, saved_checkpoint, tmp_path):
        # A state that still holds U/V writes the bytes of its weights alone.
        path, state, shape, hp = saved_checkpoint
        weights = tmp_path / "weights.bin"
        save_checkpoint(TrainState(state.W, [], [], state.n_samples), shape, hp, weights)
        assert weights.read_bytes() == path.read_bytes()
        # Magic, u64 length, the header (4 + h u32s, five f64s, two u32s),
        # each weight block with its u32 rows and cols, the CRC.
        header = 4 * (shape.h + 4) + 5 * 8 + 2 * 4
        blocks = sum(8 + w.nbytes for w in state.W)
        assert path.stat().st_size == len(CHECKPOINT_MAGIC) + 8 + header + blocks + 4

    def test_f_ordered_weights_round_trip_bit_exact(self, saved_checkpoint, tmp_path):
        # The trainer's weights are C-ordered, but an API caller may pass
        # any layout; the file is row-major either way.  A negative zero
        # keeps its sign bit.
        path, state, shape, hp = saved_checkpoint
        state.W[1][2, 3] = -0.0
        fortran = TrainState([np.asfortranarray(w) for w in state.W], [], [], state.n_samples)
        save_checkpoint(fortran, shape, hp, path)
        loaded, _, _ = load_checkpoint(path)
        for a, b in zip(loaded.W, state.W, strict=True):
            assert _same_bits(a, b) and a.flags.c_contiguous
        assert np.signbit(loaded.W[1][2, 3])

    def test_state_without_a_sample_count_is_refused(self, saved_checkpoint, tmp_path):
        _, state, shape, hp = saved_checkpoint
        with pytest.raises(ValueError, match="sample count"):
            save_checkpoint(TrainState(state.W, [], []), shape, hp, tmp_path / "none.bin")
        assert not (tmp_path / "none.bin").exists()

    def test_trailing_data_rejected(self, saved_checkpoint):
        path, *_ = saved_checkpoint
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_load_holds_the_file_once(self, tmp_path):
        # The file's bytes and the loaded blocks, about 2.01x the file; a
        # copy of the payload would make it 3x.  The file's bytes are
        # released before the finiteness check: its boolean row block, here
        # the whole 120x120 W[1], held on top of them read 2.10x.
        shape = NetworkShape((60, 120, 120, 10))
        state = init_gaussian(shape, 0.3, make_rng(16), make_rng(17).random((60, 300)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, shape, Hyperparams(), path)
        (loaded, _, _), peak = _traced(load_checkpoint, path)
        for a, b in zip(loaded.W, state.W, strict=True):
            assert _same_bits(a, b)
        size = path.stat().st_size
        assert peak <= 2.1 * size, f"peak {peak / size:.2f}x the file"

    def test_save_copies_one_row_block_at_a_time(self, tmp_path):
        # An API caller may pass F-ordered weights, and the file is
        # row-major: each row block is copied and written before the next.
        # Staging the payload held about 1.2x the file, a whole-block copy 1x
        # the largest block.
        shape = NetworkShape((400, 400, 400, 10))
        state = init_gaussian(shape, 0.3, make_rng(18), make_rng(19).random((400, 100)))
        state.W = [np.asfortranarray(w) for w in state.W]
        path = tmp_path / "ckpt.bin"
        _, peak = _traced(save_checkpoint, state, shape, Hyperparams(), path)
        largest = max(w.nbytes for w in state.W)
        assert peak <= 1.1 * largest, f"peak {peak / largest:.2f}x the largest block"
        assert peak <= 8 * V_BLOCK + 65536, f"peak {peak} B"
        loaded, _, _ = load_checkpoint(path)
        assert all(_same_bits(a, b) for a, b in zip(loaded.W, state.W))

    @pytest.mark.parametrize("block", ["W[0]", "W[1]", "W[2]"])
    def test_block_stored_with_other_rows_and_cols_names_it(self, saved_checkpoint, block):
        path, state, shape, _ = saved_checkpoint
        layout = TrainState.layout(shape, state.n_samples)[: shape.h]  # the stored blocks
        names = [name for name, _ in layout]
        rows, cols = dict(layout)[block]
        # The block's u32 rows and cols, counted back from the payload's end;
        # swapped, they keep its size, and the CRC is made to match.
        payload = bytearray(path.read_bytes()[len(CHECKPOINT_MAGIC) + 8 : -4])
        at = len(payload) - sum(8 + 8 * r * c for _, (r, c) in layout[names.index(block):])
        assert struct.unpack_from("<II", payload, at) == (rows, cols)
        struct.pack_into("<II", payload, at, cols, rows)
        _rewrite_payload(path, payload)
        with pytest.raises(CheckpointError, match=re.escape(f"{block} is stored as ({cols}, {rows})")) as e:
            load_checkpoint(path)
        assert type(e.value) is CheckpointError

    @pytest.mark.parametrize("field, offset", [("d1", 12), ("h", 4)])
    def test_header_claiming_more_than_the_payload_allocates_nothing(self, tmp_path, field, offset):
        shape = NetworkShape((60, 120, 120, 10))
        state = init_gaussian(shape, 0.3, make_rng(20), make_rng(21).random((60, 300)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, shape, Hyperparams(), path)
        payload = bytearray(path.read_bytes()[len(CHECKPOINT_MAGIC) + 8 : -4])
        # u32 version, h, the four widths d0..d3, then N.
        assert struct.unpack_from("<I", payload, offset)[0] == {"d1": 120, "h": 3}[field]
        struct.pack_into("<I", payload, offset, 1 << 31)
        _rewrite_payload(path, payload)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(TruncatedCheckpointError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The file's bytes alone; its weight blocks would add 182 KB, and a
        # 2^31-wide layer would claim terabytes.
        assert peak <= path.stat().st_size + 65536

    @pytest.mark.parametrize("dims, tau, message", INVALID_HEADERS.values(), ids=INVALID_HEADERS)
    def test_invalid_header_names_the_file(self, tmp_path, dims, tau, message):
        # A CRC-valid header whose widths or hyperparameters no net or run
        # accepts raises a CheckpointError that starts with the file.
        path = tmp_path / "bad.bin"
        write_checkpoint_header(path, dims, tau)
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert str(e.value) == f"{path}: {message}"


def _rewrite_payload(path, payload):
    """Write ``payload`` over the checkpoint at ``path``, with its length and CRC."""
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + bytes(payload)
                     + struct.pack("<I", zlib.crc32(payload)))


class TestSynthetic:
    def test_images_deterministic_and_typed(self):
        a_imgs, a_labels = make_synthetic_images(40, 10, make_rng(10))
        b_imgs, b_labels = make_synthetic_images(40, 10, make_rng(10))
        assert a_imgs.shape == (40, 28, 28) and a_imgs.dtype == np.uint8
        assert np.array_equal(a_imgs, b_imgs) and np.array_equal(a_labels, b_labels)
        assert set(np.unique(a_labels)) <= set(range(10))

    def test_cluster_dataset_valid(self):
        data = make_cluster_dataset(6, 4, 21, make_rng(11))
        assert data.X.shape == (6, 21) and data.Y.shape == (4, 21)
        assert data.X.min() >= 0.0 and data.X.max() <= 1.0
        assert np.array_equal(data.Y.sum(axis=0), np.ones(21))


class TestDatasetValidation:
    def test_one_hot_checked_on_construction(self):
        x = np.zeros((2, 3))
        y = np.zeros((2, 3))
        y[0, :2] = 1.0  # column 2 is all-zero
        with pytest.raises(ValueError, match="column 2"):
            Dataset(x, y)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="sample counts"):
            Dataset(np.zeros((2, 3)), np.eye(2))

    def test_subset(self, tiny_data):
        sub = tiny_data.subset(np.array([0, 5, 7]))
        assert sub.n == 3
        assert np.array_equal(sub.X, tiny_data.X[:, [0, 5, 7]])


def _traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes it held beyond what was live when it started."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak


def _same_bits(a, b):
    """Equal shape and float64 bit patterns, so -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def signed_zero_data():
    """784 features x 40 samples in [0, 1] with -0.0 entries; X far outweighs Y.

    X (245 KiB) stays under numpy's 256 KiB temporary-elision threshold, so an
    expression such as ``X + draw`` would really hold two X-sized arrays.
    """
    rng = make_rng(12)
    x = rng.random((784, 40))
    x[:, ::7] = -0.0
    y = np.zeros((10, 40))
    y[rng.integers(0, 10, 40), np.arange(40)] = 1.0
    return Dataset(x, y)


class TestOneCopyDataPath:
    """Each step of the input path makes one C-contiguous copy with the old expression's bits."""

    def test_to_dataset_peak_is_one_float64_x(self):
        rng = make_rng(13)
        images = rng.integers(0, 256, (500, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 500)
        data, peak = _traced(to_dataset, images, labels, 10)
        old = np.ascontiguousarray(images.reshape(500, 784).T.astype(np.float64) / 255.0)
        assert _same_bits(data.X, old)
        assert data.X.flags.c_contiguous and data.Y.flags.c_contiguous
        assert peak <= 1.25 * data.X.nbytes

    @pytest.mark.parametrize("indices", [
        np.arange(0, 40, 2),
        make_rng(15).permutation(40)[:20],
        np.repeat(np.arange(10), 3),
        -1 - np.arange(0, 40, 2),
    ], ids=["sorted", "unsorted", "repeated", "negative"])
    def test_subset_gathers_once(self, signed_zero_data, indices):
        sub, peak = _traced(signed_zero_data.subset, indices)
        assert _same_bits(sub.X, np.ascontiguousarray(signed_zero_data.X[:, indices]))
        assert _same_bits(sub.Y, np.ascontiguousarray(signed_zero_data.Y[:, indices]))
        assert sub.X.flags.c_contiguous and sub.Y.flags.c_contiguous
        # The outputs, check_one_hot's boolean temporaries (under one Y) and a few
        # object headers; an X-sized temporary would add at least 125 KB.
        assert peak <= sub.X.nbytes + 2 * sub.Y.nbytes + 4096

    def test_subset_of_an_empty_list_is_empty(self, signed_zero_data):
        sub = signed_zero_data.subset([])
        assert sub.X.shape == (784, 0) and sub.Y.shape == (10, 0)
        assert sub.X.dtype == np.float64 and sub.X.flags.c_contiguous

    def test_subset_rejects_a_boolean_mask(self, signed_zero_data):
        mask = np.zeros(40, dtype=bool)
        mask[[1, 4]] = True
        with pytest.raises(ValueError, match="integer indices"):
            signed_zero_data.subset(mask)

    @pytest.mark.parametrize("sigma, clamp", [(0.0, True), (0.0, False), (0.3, True), (0.3, False)])
    def test_noise_adds_into_the_draw(self, signed_zero_data, sigma, clamp):
        noisy, peak = _traced(add_gaussian_noise, signed_zero_data, sigma, make_rng(14), clamp=clamp)
        old = signed_zero_data.X + make_rng(14).normal(0.0, sigma, size=signed_zero_data.X.shape)
        if clamp:
            np.clip(old, 0.0, 1.0, out=old)
        assert _same_bits(noisy.X, old)
        assert noisy.X.flags.c_contiguous and noisy.Y.flags.c_contiguous
        # The noisy X, the copy of Y, check_one_hot's temporaries and object headers.
        assert peak <= noisy.X.nbytes + 2 * noisy.Y.nbytes + 4096

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_sigma_zero_draws_nothing(self, clamp, order):
        # Zeros of both signs and entries outside [0, 1]: sigma 0 leaves the
        # stream where it was and gives the bits of adding X into a draw,
        # each -0.0 turned into +0.0, in a new C-ordered float64 array.
        x = np.array([[-0.0, 0.0, -1.5, 2.5, 0.3], [0.25, -0.0, 1.0, -1e-300, 1.0 + 1e-15]], order=order)
        data = Dataset(x, np.eye(2)[:, [0, 1, 0, 1, 0]])
        rng = make_rng(21)
        before = rng.bit_generator.state
        out = add_gaussian_noise(data, 0.0, rng, clamp=clamp)
        assert rng.bit_generator.state == before
        drawn = make_rng(21).normal(0.0, 0.0, size=x.shape)
        drawn += x
        if clamp:
            np.clip(drawn, 0.0, 1.0, out=drawn)
        assert _same_bits(out.X, drawn)
        assert not np.signbit(out.X[x == 0.0]).any()
        assert out.X.flags.c_contiguous and out.X.dtype == np.float64
        assert not np.shares_memory(out.X, x) and np.array_equal(out.Y, data.Y)
