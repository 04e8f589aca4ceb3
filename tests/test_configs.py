"""Validation rules of the stage configuration types."""

import math

import pytest

from videosynopsis.core import VideoMeta
from videosynopsis.grouping import GroupingConfig
from videosynopsis.ingest import EmptyFrameConfig
from videosynopsis.render import SegmentationConfig
from videosynopsis.scheduler import SchedulerConfig

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestVideoMeta:
    @pytest.mark.parametrize("fps", NON_FINITE)
    def test_non_finite_fps_rejected(self, fps):
        with pytest.raises(ValueError, match="fps finite"):
            VideoMeta(96, 64, 40, fps)

    def test_finite_fps_accepted(self):
        assert VideoMeta(96, 64, 40, 1e-3).fps == 1e-3


class TestSchedulerConfig:
    @pytest.mark.parametrize("threshold", NON_FINITE)
    def test_non_finite_collision_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="collision_threshold must be finite"):
            SchedulerConfig(collision_threshold=threshold)

    @pytest.mark.parametrize("threshold", NON_FINITE)
    def test_non_finite_shift_level_rejected(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            SchedulerConfig(collision_threshold=0.1, shift_levels=((threshold, 9), (0.1, 3)))


class TestGroupingConfig:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            GroupingConfig(distance_threshold=0.0)
        with pytest.raises(ValueError):
            GroupingConfig(collision_threshold=-1.0)
        GroupingConfig(distance_threshold=10.0, collision_threshold=0.5)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["distance_threshold", "collision_threshold"])
    def test_non_finite_threshold_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            GroupingConfig(**{field: value})


class TestEmptyFrameConfig:
    def test_fifo_floor(self):
        with pytest.raises(ValueError):
            EmptyFrameConfig(fifo_capacity=2)
        EmptyFrameConfig(fifo_capacity=3)

    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            EmptyFrameConfig(binary_threshold=0)

    def test_area_gates_ordered(self):
        with pytest.raises(ValueError):
            EmptyFrameConfig(min_contour_area=100, max_contour_area=100)
        with pytest.raises(ValueError):
            EmptyFrameConfig(min_contour_area=0)

    def test_aspect_range_ordered(self):
        with pytest.raises(ValueError):
            EmptyFrameConfig(aspect_ratio_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            EmptyFrameConfig(aspect_ratio_range=(0.0, 2.0))

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field",
        [
            "fifo_capacity",
            "binary_threshold",
            "min_contour_area",
            "max_contour_area",
            "background_refresh_period",
            "morphology_kernel",
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite|inf"):
            EmptyFrameConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_aspect_bound_rejected(self, value):
        for bounds in [(value, 2.0), (0.5, value)]:
            with pytest.raises(ValueError, match="inf"):
                EmptyFrameConfig(aspect_ratio_range=bounds)


class TestSegmentationConfig:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            SegmentationConfig(initial_threshold=20, threshold_floor=20)
        with pytest.raises(ValueError):
            SegmentationConfig(threshold_floor=0)

    def test_ratio_open_interval(self):
        with pytest.raises(ValueError):
            SegmentationConfig(min_foreground_ratio=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_foreground_ratio=1.0)
        SegmentationConfig(min_foreground_ratio=0.5)

    def test_decrement_positive(self):
        with pytest.raises(ValueError):
            SegmentationConfig(threshold_decrement=0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field", ["initial_threshold", "min_foreground_ratio", "threshold_decrement", "morphology_kernel"]
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            SegmentationConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_floor_rejected(self, value):
        with pytest.raises(ValueError):
            SegmentationConfig(initial_threshold=value, threshold_floor=value)
