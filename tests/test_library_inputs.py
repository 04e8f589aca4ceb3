"""Library types and functions refuse bad input with a ``ValueError`` that
says what is wrong, and the metrics report serialises as the README shows."""

import json

import numpy as np
import pytest

from videosynopsis.core import BoundingBox, SynopsisSchedule, TubeGroup, VideoMeta
from videosynopsis.frames import write_image
from videosynopsis.ingest import BackgroundSampleStore, DetectionRecord
from videosynopsis.metrics import score_schedule
from videosynopsis.render import ObjectMask, SegmentationConfig, render_synopsis, stitch_frame
from videosynopsis.scheduler import SchedulerConfig

from synth import make_tube


def group(*members):
    return TubeGroup(members=members, source_start=0)


def stitch_misfit_mask():
    crop = np.zeros((2, 3, 3), np.uint8)
    stitch_frame(np.zeros((8, 8, 3), np.uint8), [(crop, ObjectMask(np.ones((3, 2), bool)), (0, 0))])


BAD_CALLS = {
    "negative start": (
        lambda: SynopsisSchedule(((group((1, 0)), -1),), 5),
        "negative synopsis start",
    ),
    "unordered placements": (
        lambda: SynopsisSchedule(((group((1, 0)), 5), (group((2, 0)), 0)), 9),
        "placements must be ordered by synopsis start",
    ),
    "negative length": (lambda: SynopsisSchedule((), -1), "negative synopsis length"),
    "tube in two groups": (
        lambda: SynopsisSchedule(((group((1, 0)), 0), (group((2, 0), (1, 3)), 2)), 9),
        "tube 1 appears in more than one group",
    ),
    "group without members": (group, "group has no members"),
    "no member at offset 0": (lambda: group((1, 2)), "group must contain a member at offset 0"),
    "repeated id in a group": (lambda: group((1, 0), (1, 3)), "duplicate tube id inside a group"),
    "store capacity 0": (lambda: BackgroundSampleStore(0), "capacity must be >= 1"),
    "mask of another shape": (
        lambda: BackgroundSampleStore().push(np.zeros((4, 6, 3), np.uint8), np.ones((6, 4), bool)),
        "validity mask must match the pixel grid",
    ),
    "mask not fitting its crop": (stitch_misfit_mask, r"mask \(3, 2\) does not fit crop \(2, 3\)"),
    "render of an unknown tube": (
        lambda: next(render_synopsis(
            SynopsisSchedule(((group((1, 0)), 0),), 5), {}, [], np.zeros((8, 8, 3), np.uint8),
            SegmentationConfig(),
        )),
        "schedule references unknown tube 1",
    ),
    "skip fraction of 1": (
        lambda: SchedulerConfig(startframe_skip_fraction=1.0),
        r"startframe_skip_fraction must be in \[0, 1\)",
    ),
    "negative back-off": (
        lambda: SchedulerConfig(startframe_back_off=-1), "startframe_back_off must be >= 0"
    ),
    "first batch of 0": (lambda: SchedulerConfig(first_batch_size=0), "first_batch_size must be >= 1"),
    "shift levels rising": (
        lambda: SchedulerConfig(shift_levels=((0.3, 5), (0.3, 4), (0.1, 3))),
        "shift level thresholds must strictly decrease",
    ),
    "shift level step 0": (
        lambda: SchedulerConfig(shift_levels=((0.3, 0), (0.1, 3))),
        "shift level steps must be >= 1",
    ),
    "box at frame -1": (lambda: BoundingBox(-1, 0, 0, 4, 4), "negative frame index -1"),
    "four-channel PNM": (
        # refused before the file is opened, so nothing is written
        lambda: write_image("four_channels.ppm", np.zeros((2, 2, 4), np.uint8)),
        r"cannot write array of shape \(2, 2, 4\) as PNM",
    ),
}


@pytest.mark.parametrize("call, message", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_detection_record_takes_its_fields_by_name():
    # a positional call could pass a frame where the id goes: it must not shift the box
    with pytest.raises(TypeError):
        DetectionRecord(1, 7, 0, 0, 4, 4)
    assert DetectionRecord(id=7, left=0, top=0, width=4, height=4).class_label == ""


def test_report_json_holds_the_report_fields():
    tube = make_tube(1, 3, [4] * 5, [6] * 5)
    schedule = SynopsisSchedule(((TubeGroup(((1, 0),), 3), 0),), 5)
    report = score_schedule(schedule, [tube], VideoMeta(width=64, height=48, frame_count=10))
    assert json.loads(report.to_json()) == report.to_dict()
    assert report.to_dict()["fr"] == 0.5
