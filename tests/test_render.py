"""Segmentation, stitching, and synopsis frame synthesis."""

import weakref

import numpy as np
import pytest

from videosynopsis.core import Tube, TubeGroup, SynopsisSchedule, VideoMeta, tube_placements
from videosynopsis.frames import ArrayFrames
from videosynopsis.render import (
    ObjectMask,
    RenderError,
    SegmentationConfig,
    render_synopsis,
    segment,
    stitch_frame,
)

from synth import flat_frame, make_tube

CFG = SegmentationConfig()


def iou(a: np.ndarray, b: np.ndarray) -> float:
    return float((a & b).sum()) / float((a | b).sum())


class TestSegment:
    def test_identical_crop_falls_back_to_full_box(self):
        crop = flat_frame(40, 40)
        mask = segment(crop, crop.copy(), None, CFG)
        assert mask.is_fallback
        assert mask.pixels.all()

    def test_uniform_square_recovered(self):
        bg = flat_frame(40, 40, value=40)
        crop = bg.copy()
        crop[10:30, 10:30] = 240
        truth = np.zeros((40, 40), dtype=bool)
        truth[10:30, 10:30] = True
        mask = segment(crop, bg, None, CFG)
        assert not mask.is_fallback
        assert iou(mask.pixels, truth) >= 0.9

    def test_motion_cue_recovers_background_colored_region(self):
        # object: top half bright, bottom half exactly background-colored;
        # it moved up by 10px, so the previous frame shows the bright half
        # where the camouflaged half sits now
        bg_value = 100
        background = flat_frame(40, 40, bg_value)
        crop = background.copy()
        crop[10:20, 10:30] = 220      # part A
        crop[20:30, 10:30] = bg_value  # part B, invisible to the bg diff
        previous = background.copy()
        previous[20:30, 10:30] = 220   # A one frame ago
        previous[30:40, 10:30] = bg_value

        bg_only = segment(crop, background, None, CFG)
        combined = segment(crop, background, previous, CFG)
        truth = np.zeros((40, 40), dtype=bool)
        truth[10:30, 10:30] = True

        assert not combined.pixels[25, 20] == bg_only.pixels[25, 20] or (
            combined.pixels[25, 20] and not bg_only.pixels[25, 20]
        )
        assert combined.pixels[25, 20]  # B covered thanks to motion
        assert iou(combined.pixels, truth) >= 0.9

    def test_mask_never_exceeds_crop(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            bg = rng.integers(0, 255, size=(32, 32, 3)).astype(np.uint8)
            crop = rng.integers(0, 255, size=(32, 32, 3)).astype(np.uint8)
            mask = segment(crop, bg, None, CFG)
            assert mask.pixels.shape == (32, 32)

    def test_ratio_met_unless_flagged(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            bg = flat_frame(30, 30, value=int(rng.integers(0, 120)))
            crop = bg.copy()
            size = int(rng.integers(4, 26))
            crop[2 : 2 + size, 2 : 2 + size] = 250
            mask = segment(crop, bg, None, CFG)
            assert mask.is_fallback or mask.foreground_ratio >= CFG.min_foreground_ratio

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            segment(flat_frame(10, 10), flat_frame(12, 10), None, CFG)
        with pytest.raises(ValueError):
            segment(flat_frame(10, 10), flat_frame(10, 10), flat_frame(12, 10), CFG)

    def test_single_component_after_fill(self):
        ndimage = pytest.importorskip("scipy.ndimage")

        bg = flat_frame(40, 40, value=30)
        crop = bg.copy()
        crop[5:35, 5:35] = 200
        crop[15:25, 15:25] = 30  # hole, same color as background
        mask = segment(crop, bg, None, CFG)
        _, count = ndimage.label(mask.pixels)
        assert count == 1
        assert mask.pixels[20, 20]  # the hole is filled


class TestStitchFrame:
    def test_empty_list_is_identity(self):
        bg = flat_frame(50, 40, value=90)
        out = stitch_frame(bg, [])
        assert np.array_equal(out, bg)
        assert out is not bg

    def test_full_box_mask_replaces_rectangle(self):
        bg = flat_frame(50, 40, value=90)
        crop = flat_frame(10, 8, value=200)
        mask = ObjectMask(pixels=np.ones((8, 10), dtype=bool))
        out = stitch_frame(bg, [(crop, mask, (5, 6))])
        assert (out[6:14, 5:15] == 200).all()
        untouched = out.copy()
        untouched[6:14, 5:15] = 90
        assert np.array_equal(untouched, bg)

    def test_later_object_wins_overlap(self):
        bg = flat_frame(30, 30, value=0)
        crops = [flat_frame(10, 10, value=v) for v in (50, 100, 150)]
        full = ObjectMask(pixels=np.ones((10, 10), dtype=bool))
        placed = [
            (crops[0], full, (0, 0)),
            (crops[1], full, (5, 5)),
            (crops[2], full, (10, 10)),
        ]
        out = stitch_frame(bg, placed)
        # pixel-level oracle over the toy frame
        expected = bg.copy()
        for crop, _, (left, top) in placed:
            expected[top : top + 10, left : left + 10] = crop
        assert np.array_equal(out, expected)
        assert (out[10:15, 10:15] == 150).all()

    def test_partial_mask_leaves_background(self):
        bg = flat_frame(20, 20, value=10)
        crop = flat_frame(6, 6, value=222)
        pixels = np.zeros((6, 6), dtype=bool)
        pixels[2:4, 2:4] = True
        out = stitch_frame(bg, [(crop, ObjectMask(pixels=pixels), (7, 7))])
        assert (out[9:11, 9:11] == 222).all()
        assert (out[7, 7] == 10).all()

    def test_out_of_bounds_errors(self):
        bg = flat_frame(20, 20)
        crop = flat_frame(10, 10)
        mask = ObjectMask(pixels=np.ones((10, 10), dtype=bool))
        with pytest.raises(RenderError):
            stitch_frame(bg, [(crop, mask, (15, 0))])
        with pytest.raises(RenderError):
            stitch_frame(bg, [(crop, mask, (-1, 0))])


def moving_square_video(meta: VideoMeta, tube: Tube, value=230):
    frames = []
    boxes = {b.frame: b for b in tube.boxes}
    for idx in range(meta.frame_count):
        frame = flat_frame(meta.width, meta.height, value=70)
        if idx in boxes:
            b = boxes[idx]
            frame[b.top : b.bottom, b.left : b.right] = value
        frames.append(frame)
    return ArrayFrames(frames)


class TestRenderSynopsis:
    def setup_method(self):
        self.meta = VideoMeta(width=64, height=48, frame_count=30)
        self.tube = make_tube(1, 10, [4 + 2 * k for k in range(8)], [10] * 8, width=12, height=12)
        self.background = flat_frame(64, 48, value=70)

    def test_single_tube_passthrough(self):
        frames = moving_square_video(self.meta, self.tube)
        group = TubeGroup(members=((1, 0),), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 0),), synopsis_length=8)
        rendered = list(
            render_synopsis(schedule, {1: self.tube}, frames, self.background, CFG)
        )
        assert len(rendered) == 8
        for k, item in enumerate(rendered):
            assert item.index == k
            assert item.contributions == ((1, 10 + k),)
            box = self.tube.boxes[k]
            inside = item.pixels[box.top : box.bottom, box.left : box.right]
            assert (inside == 230).any()

    def test_empty_frames_are_pure_background(self):
        frames = moving_square_video(self.meta, self.tube)
        group = TubeGroup(members=((1, 0),), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 3),), synopsis_length=11)
        rendered = list(
            render_synopsis(schedule, {1: self.tube}, frames, self.background, CFG)
        )
        assert len(rendered) == 11
        for item in rendered[:3]:
            assert np.array_equal(item.pixels, self.background)
            assert item.contributions == ()

    def test_frame_membership_matches_schedule_expansion(self):
        tube2 = make_tube(2, 0, [40] * 6, [20] * 6, width=10, height=10)
        tubes = {1: self.tube, 2: tube2}
        frames = ArrayFrames(
            [flat_frame(64, 48, value=70) for _ in range(self.meta.frame_count)]
        )
        g1 = TubeGroup(members=((1, 0),), source_start=10)
        g2 = TubeGroup(members=((2, 0),), source_start=0)
        schedule = SynopsisSchedule(
            placements=((g1, 0), (g2, 4)), synopsis_length=10
        )
        rendered = list(render_synopsis(schedule, tubes, frames, self.background, CFG))
        # brute-force expansion: tube 1 on synopsis frames 0-7, tube 2 on 4-9
        for s, item in enumerate(rendered):
            expected = set()
            if 0 <= s < 8:
                expected.add((1, 10 + s))
            if 4 <= s < 10:
                expected.add((2, s - 4))
            assert set(item.contributions) == expected

    def test_group_relative_timing_preserved(self):
        tube2 = make_tube(2, 13, [40] * 8, [24] * 8, width=10, height=10)
        tubes = {1: self.tube, 2: tube2}
        frames = moving_square_video(self.meta, self.tube)
        group = TubeGroup(members=((1, 0), (2, 3)), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 5),), synopsis_length=16)
        rendered = list(render_synopsis(schedule, tubes, frames, self.background, CFG))
        first_seen = {}
        for item in rendered:
            for tid, _ in item.contributions:
                first_seen.setdefault(tid, item.index)
        assert first_seen[2] - first_seen[1] == 3

    def test_paint_order_by_group_start_then_id(self):
        # two full-frame-ish tubes placed to overlap; the later-starting
        # group's pixels must win where both masks are set
        t1 = make_tube(1, 0, [10] * 4, [10] * 4, width=20, height=20)
        t2 = make_tube(2, 0, [10] * 4, [10] * 4, width=20, height=20)
        tubes = {1: t1, 2: t2}
        video = []
        for idx in range(self.meta.frame_count):
            frame = flat_frame(64, 48, value=70)
            frame[10:30, 10:30] = 120 if idx < 4 else 70
            video.append(frame)
        # tube 2's source pixels differ so the winner is observable
        video2 = [f.copy() for f in video]
        frames = ArrayFrames(video)

        g1 = TubeGroup(members=((1, 0),), source_start=0)
        g2 = TubeGroup(members=((2, 0),), source_start=0)
        schedule = SynopsisSchedule(placements=((g1, 0), (g2, 1)), synopsis_length=5)
        rendered = list(render_synopsis(schedule, tubes, frames, self.background, CFG))
        # on synopsis frame 1 both tubes contribute the same region; group 2
        # started later (start 1 > 0) so it paints last
        assert set(rendered[1].contributions) == {(1, 1), (2, 0)}
        assert rendered[1].contributions == ((1, 1), (2, 0))

    def test_missing_source_frame_identifies_tube(self):
        frames = ArrayFrames([flat_frame(64, 48) for _ in range(5)])
        tube = make_tube(9, 2, [4] * 6, [4] * 6, width=8, height=8)
        group = TubeGroup(members=((9, 0),), source_start=2)
        schedule = SynopsisSchedule(placements=((group, 0),), synopsis_length=6)
        with pytest.raises(RenderError, match="tube 9"):
            list(render_synopsis(schedule, {9: tube}, frames, self.background, CFG))

    def test_source_frame_of_wrong_size_rejected(self):
        frames = ArrayFrames([flat_frame(32, 24) for _ in range(20)])
        group = TubeGroup(members=((1, 0),), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 0),), synopsis_length=8)
        with pytest.raises(RenderError, match="source frame 10 is 32x24, the background is 64x48"):
            list(render_synopsis(schedule, {1: self.tube}, frames, self.background, CFG))
        assert issubclass(RenderError, ValueError)

    def test_pixels_outside_masks_stay_background(self):
        frames = moving_square_video(self.meta, self.tube)
        group = TubeGroup(members=((1, 0),), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 0),), synopsis_length=8)
        for item in render_synopsis(schedule, {1: self.tube}, frames, self.background, CFG):
            box = self.tube.boxes[item.index]
            outside = item.pixels.copy()
            outside[box.top : box.bottom, box.left : box.right] = self.background[
                box.top : box.bottom, box.left : box.right
            ]
            assert np.array_equal(outside, self.background)

    def test_boxes_read_from_coords(self):
        # render reads each box from the tube's array; the per-box objects
        # are never built
        frames = moving_square_video(self.meta, self.tube)
        tube = make_tube(1, 10, [4 + 2 * k for k in range(8)], [10] * 8, width=12, height=12)
        group = TubeGroup(members=((1, 0),), source_start=10)
        schedule = SynopsisSchedule(placements=((group, 2),), synopsis_length=10)
        rendered = list(render_synopsis(schedule, {1: tube}, frames, self.background, CFG))
        assert "boxes" not in vars(tube)
        expected = list(render_synopsis(schedule, {1: self.tube}, frames, self.background, CFG))
        for item, want in zip(rendered, expected):
            assert np.array_equal(item.pixels, want.pixels)
            assert item.contributions == want.contributions
            assert all(type(v) is int for pair in item.contributions for v in pair)


class CountingFrames:
    """``ArrayFrames`` handing out a fresh copy per read; records each read
    and whether each copy handed out is still alive."""

    def __init__(self, frames):
        self._frames = ArrayFrames(frames)
        self.reads = []
        self._handed = []

    def __len__(self):
        return len(self._frames)

    def frame(self, index):
        pixels = self._frames.frame(index).copy()
        self.reads.append(index)
        self._handed.append((index, weakref.ref(pixels)))
        return pixels

    def __iter__(self):
        return iter(self._frames)

    def alive(self):
        return {index for index, ref in self._handed if ref() is not None}


def fresh_read_render(schedule, tubes, frames, background, cfg):
    """Synopsis frames with every source frame read afresh per synopsis frame."""
    starts = tube_placements(schedule)
    group_start = {tid: s for group, s in schedule.placements for tid, _ in group.members}
    for s in range(schedule.synopsis_length):
        entries = sorted(
            ((group_start[tid], tid), tid, s - start)
            for tid, start in starts.items()
            if 0 <= s - start < tubes[tid].length
        )
        placed, contributions = [], []
        for _, tid, k in entries:
            left, top, width, height = tubes[tid].coords[k].tolist()
            frame = tubes[tid].start + k
            rows, cols = slice(top, top + height), slice(left, left + width)
            crop = frames.frame(frame)[rows, cols]
            previous = frames.frame(frame - 1)[rows, cols] if k > 0 else None
            placed.append((crop, segment(crop, background[rows, cols], previous, cfg), (left, top)))
            contributions.append((tid, frame))
        yield stitch_frame(background, placed), tuple(contributions)


class TestRenderReads:
    def test_source_frames_carried_and_dropped(self):
        rng = np.random.default_rng(8)
        # tubes 1 and 2 show the same source frames on the same synopsis
        # frames; tube 3 needs frames 10-15 again after they were dropped
        tubes = {
            1: make_tube(1, 10, [4 + 2 * k for k in range(8)], [6] * 8, width=12, height=12),
            2: make_tube(2, 12, [40 - 2 * k for k in range(8)], [26] * 8, width=10, height=14),
            3: make_tube(3, 10, [30] * 6, [4 + k for k in range(6)], width=14, height=10),
        }
        background = rng.integers(60, 90, size=(48, 64, 3), dtype=np.uint8)
        video = []
        for index in range(30):
            frame = np.clip(background + rng.integers(-4, 5, size=background.shape), 0, 255)
            for tid, tube in tubes.items():
                k = index - tube.start
                if 0 <= k < tube.length:
                    left, top, width, height = tube.coords[k].tolist()
                    frame[top : top + height, left : left + width] = 150 + 30 * tid
            video.append(frame.astype(np.uint8))
        schedule = SynopsisSchedule(
            placements=(
                (TubeGroup(members=((1, 0),), source_start=10), 0),
                (TubeGroup(members=((2, 0),), source_start=12), 2),
                (TubeGroup(members=((3, 0),), source_start=10), 11),
            ),
            synopsis_length=17,
        )
        frames = CountingFrames(video)
        expected = list(fresh_read_render(schedule, tubes, ArrayFrames(video), background, CFG))

        boxes = seen = 0
        previous_needs = set()
        for item, (pixels, contributions) in zip(
            render_synopsis(schedule, tubes, frames, background, CFG), expected, strict=True
        ):
            assert np.array_equal(item.pixels, pixels), item.index
            assert item.contributions == contributions
            needs = set()
            for tid, frame in item.contributions:
                needs.update((frame - 1, frame) if frame > tubes[tid].start else (frame,))
            # every frame alive is one this synopsis frame needs, and a frame
            # is read only where the synopsis frame before did not need it
            assert frames.alive() <= needs, item.index
            assert sorted(frames.reads[seen:]) == sorted(needs - previous_needs), item.index
            seen = len(frames.reads)
            boxes += len(item.contributions)
            previous_needs = needs

        assert len(frames.reads) == len(set(frames.reads)) + 6  # tube 3 rereads 10-15
        assert len(frames.reads) <= boxes
