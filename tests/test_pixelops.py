"""Oracles for the numpy pixel kernels: scipy morphology and labelling,
the float channel mean, and the float/scipy empty-frame gate they replace."""

import time

import numpy as np
import pytest

try:
    from scipy import ndimage
except ImportError:  # the numpy-only tests still run
    ndimage = None

from videosynopsis.ingest import EmptyFrameConfig, is_frame_empty
from videosynopsis.pixelops import (
    binary_close,
    binary_open,
    channel_absdiff_sum,
    component_slices,
    largest_component,
)
from videosynopsis.render import SegmentationConfig, segment


# on the tests whose oracle calls scipy.ndimage
needs_scipy = pytest.mark.skipif(ndimage is None, reason="scipy.ndimage oracle not installed")


def square(radius):
    return np.ones((2 * radius + 1,) * 2, dtype=bool)


def float_mean_absdiff(a, b):
    """The channel mean as float: int16 difference, abs, mean."""
    diff = np.abs(a.astype(np.int16) - b.astype(np.int16))
    return diff.mean(axis=2) if diff.ndim == 3 else diff.astype(np.float64)


def random_masks(seed, count):
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 5), (7, 7)]
    shapes += [tuple(int(v) for v in rng.integers(1, 40, size=2)) for _ in range(count)]
    for shape in shapes:
        density = rng.choice([0.1, 0.5, 0.8, 0.95])
        yield rng.random(shape) < density


class TestMorphology:
    @needs_scipy
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_open_matches_scipy(self, radius):
        for mask in random_masks(10 + radius, 150):
            want = ndimage.binary_opening(mask, structure=square(radius))
            got = binary_open(mask, radius)
            assert got.dtype == bool and got.shape == mask.shape
            assert np.array_equal(got, want), (mask.shape, radius)

    @needs_scipy
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_close_matches_scipy(self, radius):
        for mask in random_masks(20 + radius, 150):
            want = ndimage.binary_closing(mask, structure=square(radius))
            got = binary_close(mask, radius)
            assert got.dtype == bool and got.shape == mask.shape
            assert np.array_equal(got, want), (mask.shape, radius)

    def test_full_mask_smaller_than_square(self):
        # scipy counts pixels outside the mask as unset, so both vanish
        full = np.ones((3, 4), dtype=bool)
        assert not binary_open(full, 2).any()
        assert not binary_close(full, 2).any()

    def test_input_not_modified(self):
        mask = next(random_masks(3, 0))
        before = mask.copy()
        binary_open(mask, 2)
        binary_close(mask, 2)
        assert np.array_equal(mask, before)


EIGHT = np.ones((3, 3), dtype=bool)


def reference_slices(mask):
    labels, _ = ndimage.label(mask, structure=EIGHT)
    return [s for s in ndimage.find_objects(labels) if s is not None]


def reference_largest(mask):
    labels, count = ndimage.label(mask, structure=EIGHT)
    if count == 0:
        return None
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
    return ndimage.binary_fill_holes(labels == int(np.argmax(sizes)) + 1)


def assert_labelling_matches(mask, note=None):
    assert component_slices(mask) == reference_slices(mask), note
    got, want = largest_component(mask), reference_largest(mask)
    if want is None:
        assert got is None, note
    else:
        assert got.dtype == bool and np.array_equal(got, want), note


def picture(*rows):
    return np.array([[c == "#" for c in row] for row in rows])


class TestLabellingOracle:
    @needs_scipy
    def test_seeded_masks(self):
        rng = np.random.default_rng(90)
        for trial in range(1200):
            shape = tuple(int(v) for v in rng.integers(1, 41, size=2))
            mask = rng.random(shape) < rng.uniform(0.05, 0.9)
            if trial % 2:
                mask = binary_open(mask, int(rng.integers(1, 3)))
            assert_labelling_matches(mask, (trial, shape))

    @needs_scipy
    def test_720p_mask(self):
        rng = np.random.default_rng(91)
        mask = binary_open(rng.random((720, 1280)) < 0.6, 1)
        mask[100:300, 200:500] = True
        mask[150:250, 300:400] = False
        assert len(reference_slices(mask)) > 100
        assert_labelling_matches(mask)

    def test_empty_mask(self):
        mask = np.zeros((6, 9), dtype=bool)
        assert component_slices(mask) == []
        assert largest_component(mask) is None

    def test_full_mask(self):
        mask = np.ones((6, 9), dtype=bool)
        assert component_slices(mask) == [(slice(0, 6), slice(0, 9))]
        assert np.array_equal(largest_component(mask), mask)

    @needs_scipy
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7)])
    def test_one_pixel(self, shape):
        mask = np.zeros(shape, dtype=bool)
        mask[shape[0] // 2, shape[1] // 2] = True
        assert_labelling_matches(mask)
        assert len(component_slices(mask)) == 1

    @needs_scipy
    def test_one_pixel_wide_lines(self):
        for mask in [np.ones((1, 12), dtype=bool), np.ones((12, 1), dtype=bool)]:
            assert_labelling_matches(mask)
        mask = np.zeros((9, 11), dtype=bool)
        mask[2, 1:10] = mask[4:9, 5] = mask[6, :3] = True
        assert_labelling_matches(mask)
        assert len(component_slices(mask)) == 3

    @needs_scipy
    def test_diagonal_chain_is_one_component(self):
        # one component under 8-connectivity, six under 4-connectivity
        mask = np.eye(6, dtype=bool)
        assert ndimage.label(mask)[1] == 6
        assert component_slices(mask) == [(slice(0, 6), slice(0, 6))]
        assert np.array_equal(largest_component(mask), mask)
        assert_labelling_matches(np.fliplr(mask))

    @needs_scipy
    def test_checkerboard(self):
        mask = np.indices((9, 10)).sum(axis=0) % 2 == 0
        assert_labelling_matches(mask)
        assert len(component_slices(mask)) == 1
        # the unset squares inside are holes; those on the border are not
        assert largest_component(mask)[1:-1, 1:-1].all()

    @needs_scipy
    def test_equal_sizes_lowest_label_wins(self):
        mask = picture(
            "......##",
            "##....##",
            "##......",
        )
        want = np.zeros_like(mask)
        want[:2, 6:] = True
        assert np.array_equal(largest_component(mask), want)
        assert_labelling_matches(mask)

    @needs_scipy
    def test_hole_open_only_through_a_diagonal_is_filled(self):
        mask = picture(
            ".....",
            ".###.",
            ".#.#.",
            ".##..",
            ".....",
        )
        want = mask.copy()
        want[2, 2] = True
        assert np.array_equal(largest_component(mask), want)
        assert_labelling_matches(mask)

    @needs_scipy
    def test_component_nested_in_a_hole(self):
        mask = picture(
            "#######",
            "#.....#",
            "#.....#",
            "#..#..#",
            "#.....#",
            "#######",
        )
        assert component_slices(mask) == [(slice(0, 6), slice(0, 7)), (slice(3, 4), slice(3, 4))]
        assert largest_component(mask).all()
        assert_labelling_matches(mask)

    @needs_scipy
    def test_720p_serpentine_converges(self):
        # one component: single-pixel columns joined at alternate ends,
        # a chain of more than 400k runs
        mask = np.zeros((720, 1280), dtype=bool)
        mask[:, ::2] = True
        mask[0, 1::4] = True
        mask[-1, 3::4] = True
        start = time.perf_counter()
        slices = component_slices(mask)
        elapsed = time.perf_counter() - start
        assert slices == [(slice(0, 720), slice(0, 1280))]
        assert elapsed < 1.0, elapsed
        assert np.array_equal(largest_component(mask), reference_largest(mask))


class TestChannelAbsdiffSum:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_sum_of_absolute_differences(self, channels):
        rng = np.random.default_rng(5)
        shape = (17, 23) if channels == 1 else (17, 23, 3)
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        total, c = channel_absdiff_sum(a, b)
        diff = np.abs(a.astype(np.int64) - b.astype(np.int64))
        assert c == channels and total.dtype == np.uint16
        assert np.array_equal(total, diff if channels == 1 else diff.sum(axis=2))

    def test_rejects_mismatched_shape_and_dtype(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="shape mismatch"):
            channel_absdiff_sum(a, a[:3])
        with pytest.raises(ValueError, match="uint8"):
            channel_absdiff_sum(a, a.astype(np.int16))

    @staticmethod
    def every_sum(channels):
        """A (1, 2 * (255c + 1)) pixel pair whose channel sums run through
        0..255c twice: first with ``a >= b`` in every channel, then with
        ``a <= b``."""
        sums = np.arange(255 * channels + 1)
        fill = np.clip(sums[:, None] - 255 * np.arange(channels), 0, 255).astype(np.uint8)
        a = np.concatenate([fill, 255 - fill])[None]
        b = np.concatenate([np.zeros_like(fill), np.full_like(fill, 255)])[None]
        if channels == 1:
            a, b = a[..., 0], b[..., 0]
        return a, b

    @pytest.mark.parametrize("channels", [1, 3])
    def test_single_cue_threshold_exhaustive(self, channels):
        a, b = self.every_sum(channels)
        mean = float_mean_absdiff(a, b)[0]
        total, c = channel_absdiff_sum(a, b)
        total = total[0]
        assert c == channels
        assert sorted(set(total.tolist())) == list(range(255 * channels + 1))
        for t in range(256):
            assert np.array_equal(total > c * t, mean > t), t

    @pytest.mark.parametrize("channels", [1, 3])
    def test_clamped_two_cue_threshold_exhaustive(self, channels):
        a, b = self.every_sum(channels)
        half = a.shape[1] // 2
        mean = float_mean_absdiff(a, b)[0, :half]
        total, c = channel_absdiff_sum(a, b)
        total = total[0, :half]
        mean_pair = np.minimum(mean[:, None] + mean[None, :], 255.0)
        sum_pair = total[:, None] + total[None, :]
        np.minimum(sum_pair, 255 * c, out=sum_pair)
        for t in range(256):
            assert np.array_equal(sum_pair > c * t, mean_pair > t), t


def reference_is_empty(frame, background, cfg):
    """The gate in float: channel mean, threshold, scipy opening, labels."""
    binary = float_mean_absdiff(frame, background) > cfg.binary_threshold
    if cfg.morphology_kernel >= 1:
        binary = ndimage.binary_opening(binary, structure=square(cfg.morphology_kernel))
    labels, _ = ndimage.label(binary, structure=np.ones((3, 3), dtype=bool))
    lo, hi = cfg.aspect_ratio_range
    for rows, cols in ndimage.find_objects(labels):
        h, w = rows.stop - rows.start, cols.stop - cols.start
        if cfg.min_contour_area <= h * w <= cfg.max_contour_area and lo <= h / w <= hi:
            return False
    return True


@needs_scipy
class TestGateOracle:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_decisions_match_float_reference(self, channels):
        rng = np.random.default_rng(40 + channels)
        shape = (48, 64) if channels == 1 else (48, 64, 3)
        decisions = {True: 0, False: 0}
        for trial in range(120):
            cfg = EmptyFrameConfig(
                binary_threshold=int(rng.integers(5, 60)),
                min_contour_area=int(rng.integers(20, 200)),
                max_contour_area=2000,
                aspect_ratio_range=(0.5, 3.0),
                morphology_kernel=int(rng.integers(0, 4)),
            )
            background = rng.integers(40, 200, size=shape, dtype=np.uint8)
            noise = rng.integers(-cfg.binary_threshold - 10, cfg.binary_threshold + 10, size=shape)
            frame = np.clip(background + noise * (rng.random(shape) < 0.3), 0, 255).astype(np.uint8)
            for _ in range(int(rng.integers(0, 3))):
                h, w = (int(v) for v in rng.integers(2, 30, size=2))
                top, left = int(rng.integers(0, 48 - h)), int(rng.integers(0, 64 - w))
                frame[top : top + h, left : left + w] = rng.integers(0, 256, dtype=np.uint8)
            want = reference_is_empty(frame, background, cfg)
            assert is_frame_empty(frame, background, cfg) is want, trial
            decisions[want] += 1
        assert min(decisions.values()) >= 20, decisions


def reference_segment(crop, background_crop, previous_crop, cfg):
    """``segment`` in float: channel means, clamped sum, scipy morphology."""
    combined = float_mean_absdiff(crop, background_crop)
    if previous_crop is not None:
        combined = np.minimum(combined + float_mean_absdiff(crop, previous_crop), 255.0)
    threshold = cfg.initial_threshold
    fg = combined > threshold
    while fg.mean() < cfg.min_foreground_ratio and threshold > cfg.threshold_floor:
        threshold = max(threshold - cfg.threshold_decrement, cfg.threshold_floor)
        fg = combined > threshold
    r = cfg.morphology_kernel
    if r >= 1:
        fg = ndimage.binary_closing(ndimage.binary_opening(fg, structure=square(r)), structure=square(r))
    labels, count = ndimage.label(fg, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        return np.ones(crop.shape[:2], dtype=bool), True
    sizes = ndimage.sum_labels(fg, labels, index=np.arange(1, count + 1))
    component = ndimage.binary_fill_holes(labels == int(np.argmax(sizes)) + 1)
    return component, bool(component.mean() < cfg.min_foreground_ratio)


@needs_scipy
class TestSegmentOracle:
    def test_masks_match_float_reference(self):
        rng = np.random.default_rng(77)
        fallbacks = 0
        for trial in range(150):
            cfg = SegmentationConfig(
                # thresholds from 255 up, where the clamp of the summed cues decides
                initial_threshold=int(rng.choice([80, 120, 255, 300])),
                morphology_kernel=int(rng.integers(0, 4)),
            )
            shape = (int(rng.integers(3, 40)), int(rng.integers(3, 40)))
            shape += (3,) if trial % 3 else ()
            background = rng.integers(0, 256, size=shape, dtype=np.uint8)
            crop = background.copy()
            h, w = max(1, shape[0] // 2), max(1, shape[1] // 2)
            top, left = int(rng.integers(0, shape[0] - h + 1)), int(rng.integers(0, shape[1] - w + 1))
            crop[top : top + h, left : left + w] = rng.integers(0, 256, size=(h, w) + shape[2:], dtype=np.uint8)
            crop = np.clip(crop + rng.integers(-25, 26, size=shape), 0, 255).astype(np.uint8)
            previous = None
            if trial % 5 == 0:
                # both cues near their maximum: the summed means pass 255
                background = previous = 255 - crop
            elif rng.random() < 0.7:
                previous = np.clip(background + rng.integers(-90, 91, size=shape), 0, 255).astype(np.uint8)
            pixels, is_fallback = reference_segment(crop, background, previous, cfg)
            mask = segment(crop, background, previous, cfg)
            assert np.array_equal(mask.pixels, pixels), trial
            assert mask.is_fallback is is_fallback, trial
            fallbacks += is_fallback
        assert 0 < fallbacks < 150
