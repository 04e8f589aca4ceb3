"""Metric suite against brute-force enumeration oracles."""

import numpy as np
import pytest

from videosynopsis.core import (
    SynopsisSchedule,
    Tube,
    TubeGroup,
    VideoMeta,
    tube_placements,
)
from videosynopsis.metrics import (
    chronological_disorder_ratio,
    collision_area,
    collision_level,
    dataset_stats,
    format_report,
    format_sweep_table,
    frame_condensation_ratio,
    missed_object_rate,
    normalized_fr,
    score_schedule,
)

from oracles import intersection_area
from synth import make_tube, random_instance

META = VideoMeta(width=512, height=512, frame_count=1000)


def singleton_schedule(tubes, starts):
    """Schedule of singleton groups at the given synopsis starts."""
    placements = []
    length = 0
    for tube in tubes:
        s = starts[tube.id]
        group = TubeGroup(members=((tube.id, 0),), source_start=tube.start)
        placements.append((group, s))
        length = max(length, s + tube.length)
    placements.sort(key=lambda p: (p[1], p[0].members[0][0]))
    return SynopsisSchedule(placements=tuple(placements), synopsis_length=length)


def brute_force_ca(schedule, tubes):
    """O(frames x pairs) enumeration of overlapping pixels."""
    starts = tube_placements(schedule)
    total = 0
    for s in range(schedule.synopsis_length):
        present = []
        for tid, start in starts.items():
            tube = tubes[tid]
            if start <= s < start + tube.length:
                present.append(tube.boxes[s - start])
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                total += intersection_area(present[i], present[j])
    return total


def brute_force_cdr(schedule, tubes):
    starts = tube_placements(schedule)
    ids = sorted(starts)
    inversions = 0
    pairs = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            pairs += 1
            a, b = ids[i], ids[j]
            src = tubes[a].start - tubes[b].start
            syn = starts[a] - starts[b]
            if (src < 0 and syn > 0) or (src > 0 and syn < 0):
                inversions += 1
    return inversions / pairs


class TestFrameCondensationRatio:
    def test_direct_ratio(self):
        assert frame_condensation_ratio(4000, 20000) == 0.2

    def test_no_compression(self):
        assert frame_condensation_ratio(500, 500) == 1.0

    def test_long_video_scale(self):
        assert frame_condensation_ratio(3645, 81007) == pytest.approx(0.045, abs=5e-4)

    def test_zero_source_errors(self):
        with pytest.raises(ValueError):
            frame_condensation_ratio(10, 0)


class TestCollisionArea:
    def test_non_overlapping_schedule(self):
        t1 = make_tube(1, 0, [0] * 5, [0] * 5)
        t2 = make_tube(2, 0, [0] * 5, [0] * 5)
        schedule = singleton_schedule([t1, t2], {1: 0, 2: 5})
        assert collision_area(schedule, {1: t1, 2: t2}) == 0

    def test_identical_boxes_five_frames(self):
        t1 = make_tube(1, 0, [0] * 5, [0] * 5)
        t2 = make_tube(2, 0, [0] * 5, [0] * 5)
        schedule = singleton_schedule([t1, t2], {1: 0, 2: 0})
        assert collision_area(schedule, {1: t1, 2: t2}) == 500

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(81)
        for _ in range(8):
            tubes = random_instance(rng, 10, META, length=30)
            by_id = {t.id: t for t in tubes}
            starts = {t.id: int(rng.integers(0, 200)) for t in tubes}
            schedule = singleton_schedule(tubes, starts)
            assert schedule.synopsis_length <= 500
            assert collision_area(schedule, by_id) == brute_force_ca(schedule, by_id)

    def test_intra_group_pairs_counted_by_default(self):
        t1 = make_tube(1, 0, [0] * 4, [0] * 4)
        t2 = make_tube(2, 0, [0] * 4, [0] * 4)
        group = TubeGroup(members=((1, 0), (2, 0)), source_start=0)
        schedule = SynopsisSchedule(placements=((group, 0),), synopsis_length=4)
        by_id = {1: t1, 2: t2}
        assert collision_area(schedule, by_id) == 400
        assert collision_area(schedule, by_id, exclude_intra_group=True) == 0

    def test_invariant_under_relabel_and_global_shift(self):
        rng = np.random.default_rng(82)
        tubes = random_instance(rng, 6, META, length=20)
        by_id = {t.id: t for t in tubes}
        starts = {t.id: int(rng.integers(0, 60)) for t in tubes}
        schedule = singleton_schedule(tubes, starts)
        base = collision_area(schedule, by_id)

        shifted = singleton_schedule(tubes, {k: v + 37 for k, v in starts.items()})
        assert collision_area(shifted, by_id) == base

        relabeled = [
            make_tube(t.id + 100, t.start, [b.left for b in t.boxes], [b.top for b in t.boxes],
                      width=t.boxes[0].width, height=t.boxes[0].height)
            for t in tubes
        ]
        re_by_id = {t.id: t for t in relabeled}
        re_starts = {t.id: starts[t.id - 100] for t in relabeled}
        assert collision_area(singleton_schedule(relabeled, re_starts), re_by_id) == base


class TestChronologicalDisorderRatio:
    def test_order_preserved(self):
        tubes = [make_tube(i, i * 10, [0] * 5, [0] * 5) for i in range(1, 4)]
        schedule = singleton_schedule(tubes, {1: 0, 2: 5, 3: 10})
        assert chronological_disorder_ratio(schedule, {t.id: t for t in tubes}) == 0.0

    def test_full_reversal(self):
        tubes = [make_tube(i, i * 10, [0] * 5, [0] * 5) for i in range(1, 4)]
        schedule = singleton_schedule(tubes, {1: 20, 2: 10, 3: 0})
        assert chronological_disorder_ratio(schedule, {t.id: t for t in tubes}) == 1.0

    def test_ties_not_counted(self):
        tubes = [make_tube(i, 0, [0] * 5, [0] * 5) for i in (1, 2)]
        schedule = singleton_schedule(tubes, {1: 0, 2: 30})
        assert chronological_disorder_ratio(schedule, {t.id: t for t in tubes}) == 0.0

    def test_matches_inversion_oracle_on_permutations(self):
        rng = np.random.default_rng(83)
        tubes = [make_tube(i, i * 7, [0] * 5, [0] * 5) for i in range(1, 9)]
        by_id = {t.id: t for t in tubes}
        for _ in range(30):
            order = rng.permutation(8)
            starts = {tubes[k].id: int(order[k]) * 10 for k in range(8)}
            schedule = singleton_schedule(tubes, starts)
            got = chronological_disorder_ratio(schedule, by_id)
            assert got == pytest.approx(brute_force_cdr(schedule, by_id))

    def test_matches_pair_loop_with_many_ties(self):
        rng = np.random.default_rng(17)
        for count in (2, 3, 10, 60):
            for _ in range(20):
                # few distinct values, so both orderings are full of ties
                sources = rng.integers(0, 4, size=count)
                tubes = [
                    make_tube(i + 1, int(s) * 5, [0] * 3, [0] * 3) for i, s in enumerate(sources)
                ]
                starts = {t.id: int(rng.integers(0, 4)) * 7 for t in tubes}
                schedule = singleton_schedule(tubes, starts)
                by_id = {t.id: t for t in tubes}
                got = chronological_disorder_ratio(schedule, by_id)
                assert got == brute_force_cdr(schedule, by_id)

    def test_single_tube_undefined(self):
        t = make_tube(1, 0, [0] * 5, [0] * 5)
        schedule = singleton_schedule([t], {1: 0})
        assert chronological_disorder_ratio(schedule, {1: t}) is None


class TestNormalizedFr:
    def test_published_scale_video1(self):
        assert normalized_fr(0.566, 0.58, 0.029) == pytest.approx(0.1132)

    def test_published_scale_video6(self):
        assert normalized_fr(0.045, 0.29, 0.0015) == pytest.approx(0.0870)

    def test_normalization_identity(self):
        # coverage equal to the density percent leaves FR unchanged
        for fr in (0.1, 0.35, 0.9):
            assert normalized_fr(fr, 2.5, 0.025) == pytest.approx(fr)

    def test_linear_in_fr(self):
        a = normalized_fr(0.2, 0.6, 0.02)
        b = normalized_fr(0.4, 0.6, 0.02)
        assert b == pytest.approx(2 * a)

    def test_zero_density_errors(self):
        with pytest.raises(ValueError):
            normalized_fr(0.5, 0.5, 0.0)


class TestMissedObjectRate:
    def test_none_missed(self):
        assert missed_object_rate(500, 0) == 0.0

    def test_one_percent(self):
        assert missed_object_rate(500, 5) == pytest.approx(0.01)

    def test_errors(self):
        with pytest.raises(ValueError):
            missed_object_rate(0, 0)
        with pytest.raises(ValueError):
            missed_object_rate(10, 11)


class TestDatasetStats:
    def test_saturated_single_frame(self):
        meta = VideoMeta(width=32, height=32, frame_count=1)
        tube = make_tube(1, 0, [0], [0], width=32, height=32)
        density, coverage, minimum_fr = dataset_stats([tube], meta)
        assert density == 100.0
        assert coverage == 1.0
        assert minimum_fr == 1.0

    def test_no_tubes(self):
        assert dataset_stats([], META) == (0.0, 0.0, 0.0)

    def test_coverage_matches_bitmap_oracle_at_64(self):
        rng = np.random.default_rng(84)
        meta = VideoMeta(width=64, height=64, frame_count=50)
        tubes = random_instance(rng, 6, meta, length=10, size_range=(4, 16))
        density, coverage, minimum_fr = dataset_stats(tubes, meta)

        bitmap = [[False] * 64 for _ in range(64)]
        for tube in tubes:
            for box in tube.boxes:
                for y in range(box.top, box.bottom):
                    for x in range(box.left, box.right):
                        bitmap[y][x] = True
        expected = sum(v for row in bitmap for v in row) / (64 * 64)
        assert coverage == pytest.approx(expected)

        total_area = sum(b.area for t in tubes for b in t.boxes)
        assert density == pytest.approx(total_area / (64 * 64 * 50) * 100)
        assert minimum_fr == pytest.approx(max(t.length for t in tubes) / 50)

    def test_coverage_matches_bitmap_oracle_with_boxes_past_the_frame(self):
        rng = np.random.default_rng(86)
        width, height = 200, 150
        meta = VideoMeta(width=width, height=height, frame_count=40)
        tubes = []
        for tid in range(1, 25):
            length = int(rng.integers(1, 12))
            coords = np.column_stack(
                [
                    rng.integers(0, width + 20, length),
                    rng.integers(0, height + 20, length),
                    rng.integers(1, 80, length),
                    rng.integers(1, 80, length),
                ]
            )
            tubes.append(Tube(tid, "1", int(rng.integers(0, 20)), coords))
        boxes = np.concatenate([t.coords for t in tubes])
        assert (boxes[:, 0] + boxes[:, 2] > width).any()
        assert (boxes[:, 1] + boxes[:, 3] > height).any()
        assert ((boxes[:, 0] >= width) | (boxes[:, 1] >= height)).any()

        bitmap = np.zeros((height, width), dtype=bool)
        for left, top, w, h in boxes.tolist():
            bitmap[top : top + h, left : left + w] = True
        _, coverage, _ = dataset_stats(tubes, meta)
        assert coverage == int(bitmap.sum()) / (width * height)

    def test_coverage_monotone_in_tubes(self):
        rng = np.random.default_rng(85)
        meta = VideoMeta(width=64, height=64, frame_count=50)
        tubes = random_instance(rng, 8, meta, length=8, size_range=(4, 12))
        last = 0.0
        for k in range(1, len(tubes) + 1):
            _, coverage, _ = dataset_stats(tubes[:k], meta)
            assert coverage >= last
            last = coverage


class TestCollisionLevel:
    def test_saturation(self):
        t = make_tube(1, 0, [0] * 2, [0] * 2)  # 200 tube pixels
        assert collision_level(200, [t]) == 1.0

    def test_zero(self):
        t = make_tube(1, 0, [0] * 2, [0] * 2)
        assert collision_level(0, [t]) == 0.0

    def test_empty_tube_set_errors(self):
        with pytest.raises(ValueError):
            collision_level(10, [])


class TestScoreSchedule:
    def test_identity_schedule(self):
        tubes = [
            make_tube(1, 0, [0] * 100, [0] * 100),
            make_tube(2, 500, [200] * 500, [200] * 500),
        ]
        schedule = singleton_schedule(tubes, {1: 0, 2: 500})
        report = score_schedule(schedule, tubes, META)
        assert report.fr == 1.0
        assert report.cdr == 0.0
        assert report.mor is None

    @pytest.mark.parametrize("starts, length, message", [
        ({1: 0}, 10, "schedule leaves out tube 2"),
        ({1: 0, 2: 0, 3: 0}, 10, "schedule references unknown tube 3"),
        ({1: 0, 3: 0}, 10, "schedule leaves out tube 2"),
        ({1: 0, 2: 0}, 50, "synopsis_length 50 runs past the last tube end 10"),
        ({1: 0, 2: 0}, 9, "synopsis_length 9 cuts off tube 2 ending at 10"),
    ], ids=["missing", "unknown", "least of both", "long", "short"])
    def test_refuses_a_schedule_that_does_not_place_exactly_its_tubes(
        self, starts, length, message
    ):
        tubes = [make_tube(1, 0, [0] * 10, [0] * 10), make_tube(2, 20, [30] * 10, [30] * 10)]
        placements = tuple((TubeGroup(((tid, 0),), 0), s) for tid, s in starts.items())
        schedule = SynopsisSchedule(placements, length)
        with pytest.raises(ValueError, match=f"^{message}$"):
            score_schedule(schedule, tubes, META)

    def test_report_fields_and_formatting(self):
        tubes = [make_tube(1, 0, [0] * 10, [0] * 10), make_tube(2, 20, [30] * 10, [30] * 10)]
        schedule = singleton_schedule(tubes, {1: 0, 2: 0})
        report = score_schedule(schedule, tubes, META, mor=0.0029)
        text = format_report(report)
        assert "FR" in text and "NFR" in text and "CA (x10^7)" in text
        data = report.to_dict()
        assert data["mor"] == 0.0029
        table = format_sweep_table([(0.1, report)])
        assert "threshold" in table and "0.1000" in table
