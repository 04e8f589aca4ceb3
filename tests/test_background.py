"""Median background generation against a naive per-pixel sort oracle."""

import tracemalloc

import numpy as np
import pytest

from videosynopsis.ingest import BackgroundSampleStore, median_background
from videosynopsis.render import generate_background


def sort_oracle(samples, validities):
    """Literal per-pixel median: collect valid values, sort, floor-mean middles."""
    shape = samples[0].shape
    out = np.zeros(shape, dtype=np.int64)
    height, width = shape[:2]
    channels = shape[2] if len(shape) == 3 else 1
    for y in range(height):
        for x in range(width):
            for c in range(channels):
                values = []
                everything = []
                for pixels, valid in zip(samples, validities):
                    v = pixels[y, x, c] if channels > 1 else pixels[y, x]
                    everything.append(int(v))
                    if valid is None or valid[y, x]:
                        values.append(int(v))
                if not values:
                    values = everything
                values.sort()
                n = len(values)
                med = (values[(n - 1) // 2] + values[n // 2]) // 2
                if channels > 1:
                    out[y, x, c] = med
                else:
                    out[y, x] = med
    return out.astype(samples[0].dtype)


def fill_store(samples, validities=None):
    store = BackgroundSampleStore(capacity=len(samples))
    validities = validities or [None] * len(samples)
    for pixels, valid in zip(samples, validities):
        store.push(pixels, valid)
    return store


class TestMedianBackground:
    def test_identical_samples(self):
        plate = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        store = fill_store([plate.copy() for _ in range(10)])
        assert np.array_equal(median_background(store), plate)

    def test_majority_wins(self):
        samples = [np.full((3, 3, 3), 100, dtype=np.uint8) for _ in range(7)]
        samples += [np.full((3, 3, 3), 255, dtype=np.uint8) for _ in range(3)]
        assert np.array_equal(median_background(fill_store(samples)), np.full((3, 3, 3), 100))

    def test_even_split_takes_mean_of_middles(self):
        samples = [np.full((2, 2, 3), 10, dtype=np.uint8) for _ in range(5)]
        samples += [np.full((2, 2, 3), 20, dtype=np.uint8) for _ in range(5)]
        assert np.array_equal(median_background(fill_store(samples)), np.full((2, 2, 3), 15))

    def test_empty_store_errors(self):
        with pytest.raises(ValueError):
            median_background(BackgroundSampleStore(5))

    def test_matches_sort_oracle_plain(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 11))
            samples = [rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8) for _ in range(n)]
            store = fill_store(samples)
            assert np.array_equal(median_background(store), sort_oracle(samples, [None] * n))

    def test_matches_sort_oracle_with_validity(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            samples = [rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8) for _ in range(n)]
            validities = [rng.random(size=(8, 8)) < 0.7 for _ in range(n)]
            store = fill_store(samples, validities)
            assert np.array_equal(
                median_background(store), sort_oracle(samples, validities)
            )

    def test_grayscale_buffers(self):
        rng = np.random.default_rng(33)
        samples = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(7)]
        store = fill_store(samples)
        assert np.array_equal(median_background(store), sort_oracle(samples, [None] * 7))

    def test_invalid_pixels_excluded(self):
        clean = np.full((4, 4, 3), 77, dtype=np.uint8)
        dirty = np.full((4, 4, 3), 200, dtype=np.uint8)
        blocked = np.zeros((4, 4), dtype=bool)  # nothing valid in dirty samples
        samples = [clean.copy() for _ in range(6)] + [dirty.copy() for _ in range(4)]
        validities = [None] * 6 + [blocked] * 4
        assert np.array_equal(
            median_background(fill_store(samples, validities)), clean
        )

    def test_pixel_valid_nowhere_falls_back_to_all_samples(self):
        rng = np.random.default_rng(34)
        samples = [rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8) for _ in range(5)]
        validities = [np.zeros((4, 4), dtype=bool) for _ in range(5)]
        assert np.array_equal(
            median_background(fill_store(samples, validities)),
            sort_oracle(samples, [None] * 5),
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_sort_oracle_every_n(self, n):
        rng = np.random.default_rng(40 + n)
        samples = [rng.integers(0, 256, size=(6, 6, 3)).astype(np.uint8) for _ in range(n)]
        validities = [None if k % 3 == 2 else rng.random(size=(6, 6)) < 0.5 for k in range(n)]
        assert np.array_equal(
            median_background(fill_store(samples)), sort_oracle(samples, [None] * n)
        )
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_mixed_masks(self):
        # no mask, partial masks and masks valid nowhere in one stack
        rng = np.random.default_rng(37)
        samples = [rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8) for _ in range(9)]
        validities = [None, np.zeros((8, 8), dtype=bool), rng.random(size=(8, 8)) < 0.3] * 3
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_single_masked_sample(self):
        rng = np.random.default_rng(38)
        samples = [rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)]
        validities = [rng.random(size=(8, 8)) < 0.5]
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_uint8_masks(self):
        rng = np.random.default_rng(39)
        samples = [rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8) for _ in range(6)]
        validities = [rng.integers(0, 2, size=(8, 8)).astype(np.uint8) for _ in range(6)]
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_grayscale_with_masks(self):
        rng = np.random.default_rng(40)
        samples = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(7)]
        validities = [None if k % 2 else rng.random(size=(8, 8)) < 0.4 for k in range(7)]
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_across_blocks(self):
        # 40 samples of 64x64 pixels span more than one block of the sort
        rng = np.random.default_rng(41)
        samples = [rng.integers(0, 256, size=(64, 64)).astype(np.uint8) for _ in range(40)]
        validities = [None if k % 4 else rng.random(size=(64, 64)) < 0.2 for k in range(40)]
        assert np.array_equal(
            median_background(fill_store(samples, validities)), sort_oracle(samples, validities)
        )

    def test_matches_sort_oracle_across_a_partial_rgb_block(self):
        # 64 RGB samples of 40x60: one full block of the sort, then a partial
        # one; around the boundary, pixels every sample masks and pixels some mask
        n, height, width = 64, 40, 60
        step = (1 << 17) // n  # pixels per block of the sort
        assert step < height * width < 2 * step
        rng = np.random.default_rng(42)
        samples = [rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8) for _ in range(n)]
        validities = [rng.random(size=(height, width)) < 0.9 for _ in range(n)]
        every, some = [step - 2, step - 1, step, step + 1], [step - 4, step - 3, step + 2, step + 3]
        for k, valid in enumerate(validities):
            valid.ravel()[every] = False
            valid.ravel()[some] = k % 3 != 0
        store = fill_store(samples, validities)
        assert all(valid is not None for _, valid in store)
        assert np.array_equal(median_background(store), sort_oracle(samples, validities))

    def test_median_does_not_stack_the_samples(self):
        # ten 480x640 RGB samples, half of them masked: the traced peak stays
        # a few samples' bytes, far below the n x 2-byte stack of keys
        rng = np.random.default_rng(43)
        plate = rng.integers(0, 256, size=(480, 640, 3), dtype=np.uint8)
        samples = [np.roll(plate, k, axis=1) for k in range(10)]
        validities = [rng.random(size=(480, 640)) < 0.8 if k % 2 else None for k in range(10)]
        store = fill_store(samples, validities)
        tracemalloc.start()
        try:
            median_background(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * plate.nbytes

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.float64])
    def test_non_uint8_samples_rejected(self, dtype):
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            fill_store([np.full((4, 4, 3), 9, dtype=dtype) for _ in range(3)])

    def test_push_keeps_one_mask_form(self):
        store = BackgroundSampleStore(capacity=3)
        plate = np.zeros((2, 2, 3), dtype=np.uint8)
        store.push(plate, np.ones((2, 2), dtype=np.uint8))
        store.push(plate, np.array([[1, 0], [1, 1]], dtype=np.uint8))
        (_, all_valid), (_, partial) = store.samples
        assert all_valid is None
        assert partial.dtype == bool and not partial[0, 1]

    def test_fifo_evicts_oldest(self):
        store = BackgroundSampleStore(capacity=3)
        for value in (10, 20, 30, 40):
            store.push(np.full((2, 2, 3), value, dtype=np.uint8))
        values = [int(p[0, 0, 0]) for p, _ in store]
        assert values == [20, 30, 40]


class TestGenerateBackground:
    def test_delegates_to_median(self):
        plate = np.full((5, 5, 3), 42, dtype=np.uint8)
        store = fill_store([plate.copy() for _ in range(4)])
        assert np.array_equal(generate_background(store), plate)

    def test_clean_majority_recovers_plate(self):
        # a pixel masked invalid in 4 of 10 samples, remaining 6 equal
        rng = np.random.default_rng(35)
        plate = rng.integers(0, 256, size=(6, 6, 3)).astype(np.uint8)
        samples, validities = [], []
        for k in range(10):
            if k < 4:
                noisy = plate.copy()
                noisy[2:4, 2:4] = 255
                valid = np.ones((6, 6), dtype=bool)
                valid[2:4, 2:4] = False
                samples.append(noisy)
                validities.append(valid)
            else:
                samples.append(plate.copy())
                validities.append(None)
        out = generate_background(fill_store(samples, validities))
        assert np.array_equal(out, plate)

    def test_transient_objects_removed_without_masks(self):
        # objects covering <= 40% of samples per pixel vanish in the median
        rng = np.random.default_rng(36)
        plate = rng.integers(0, 200, size=(8, 8, 3)).astype(np.uint8)
        samples = []
        for k in range(10):
            frame = plate.copy()
            if k < 4:
                frame[k : k + 3, 1:5] = 255
            samples.append(frame)
        out = generate_background(fill_store(samples))
        assert np.array_equal(out, plate)
