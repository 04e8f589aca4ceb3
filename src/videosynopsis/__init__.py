"""Video synopsis engine: tube grouping, greedy rearrangement, rendering.

Turns a long static-camera video plus per-frame object detections into a
short synopsis video, and scores any synopsis with a metric suite built for
cross-model comparison.
"""

from .core import (
    BoundingBox,
    SynopsisSchedule,
    Tube,
    TubeGroup,
    VideoMeta,
    group_extent,
    tube_placements,
)
from .grouping import GroupingConfig, build_groups
from .ingest import (
    AnnotationError,
    BackgroundSampleStore,
    DetectionRecord,
    EmptyFrameConfig,
    FileDetectionSource,
    is_frame_empty,
    median_background,
    parse_annotations,
    run_extraction,
    serialize_annotations,
)
from .metrics import MetricsReport, score_schedule
from .render import ObjectMask, SegmentationConfig, generate_background, render_synopsis, segment, stitch_frame
from .scheduler import SchedulerConfig, SchedulerTrace, rearrange

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "Tube",
    "TubeGroup",
    "VideoMeta",
    "SynopsisSchedule",
    "group_extent",
    "tube_placements",
    "GroupingConfig",
    "build_groups",
    "SchedulerConfig",
    "SchedulerTrace",
    "rearrange",
    "AnnotationError",
    "DetectionRecord",
    "EmptyFrameConfig",
    "BackgroundSampleStore",
    "FileDetectionSource",
    "parse_annotations",
    "serialize_annotations",
    "median_background",
    "is_frame_empty",
    "run_extraction",
    "SegmentationConfig",
    "ObjectMask",
    "generate_background",
    "segment",
    "stitch_frame",
    "render_synopsis",
    "MetricsReport",
    "score_schedule",
]
