"""Library types and functions refuse bad input with a ``ValueError`` that
says what is wrong, and the metrics report serialises as the README shows."""

import json

import numpy as np
import pytest

from videosynopsis.core import SynopsisSchedule, TubeGroup, VideoMeta
from videosynopsis.ingest import BackgroundSampleStore
from videosynopsis.metrics import score_schedule
from videosynopsis.render import ObjectMask, stitch_frame

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
}


@pytest.mark.parametrize("call, message", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_report_json_holds_the_report_fields():
    tube = make_tube(1, 3, [4] * 5, [6] * 5)
    schedule = SynopsisSchedule(((TubeGroup(((1, 0),), 3), 0),), 5)
    report = score_schedule(schedule, [tube], VideoMeta(width=64, height=48, frame_count=10))
    assert json.loads(report.to_json()) == report.to_dict()
    assert report.to_dict()["fr"] == 0.5
