"""Rearrangement: collision cost, start-frame estimation, greedy placement."""

import json

import numpy as np
import pytest

from videosynopsis.core import BoxTable, TubeGroup, VideoMeta, group_extent, tube_placements
from videosynopsis.grouping import GroupingConfig, build_groups
from videosynopsis.scheduler import (
    PlacedGroup,
    SchedulerConfig,
    SchedulerTrace,
    box_count_histogram,
    calculate_start,
    group_collision,
    rearrange,
    schedule_from_dict,
    schedule_to_dict,
)

from synth import make_tube, random_instance

META = VideoMeta(width=512, height=512, frame_count=600)


def singleton_group(tube):
    return TubeGroup(members=((tube.id, 0),), source_start=tube.start)


def place(group, tubes, start):
    return PlacedGroup.place(group, tubes, start)


class TestGroupCollision:
    def setup_method(self):
        self.t1 = make_tube(1, 0, [0, 0], [0, 0])
        self.t2 = make_tube(2, 0, [0, 0], [0, 0])
        self.tubes = {1: self.t1, 2: self.t2}
        self.g1 = singleton_group(self.t1)
        self.g2 = singleton_group(self.t2)

    def test_disjoint_synopsis_intervals(self):
        a = place(self.g1, self.tubes, 0)
        b = place(self.g2, self.tubes, 50)
        assert group_collision(a, b, self.tubes) == 0.0

    def test_full_overlap_identical_boxes(self):
        # two boxes each, identical, fully overlapping: (1 + 1) / 2
        a = place(self.g1, self.tubes, 10)
        b = place(self.g2, self.tubes, 10)
        assert group_collision(a, b, self.tubes) == 1.0

    def test_shift_by_full_length_clears(self):
        a = place(self.g1, self.tubes, 0)
        b = place(self.g2, self.tubes, 2)
        assert group_collision(a, b, self.tubes) == 0.0

    def test_normalized_by_larger_group(self):
        long = make_tube(3, 0, [0] * 10, [0] * 10)
        tubes = {1: self.t1, 3: long}
        a = place(singleton_group(self.t1), tubes, 0)
        b = place(singleton_group(long), tubes, 0)
        # two coexisting frames of IoM 1 over max(2, 10) boxes
        assert group_collision(a, b, tubes) == pytest.approx(0.2)


class TestBoxCountHistogram:
    def test_single_tube(self):
        t = make_tube(1, 0, [0] * 5, [0] * 5)
        placed = [place(singleton_group(t), {1: t}, 0)]
        assert box_count_histogram(placed).tolist() == [1, 1, 1, 1, 1]

    def test_additive(self):
        t1 = make_tube(1, 0, [0] * 4, [0] * 4)
        t2 = make_tube(2, 0, [0] * 4, [0] * 4)
        tubes = {1: t1, 2: t2}
        placed = [
            place(singleton_group(t1), tubes, 3),
            place(singleton_group(t2), tubes, 3),
        ]
        assert box_count_histogram(placed).tolist() == [0, 0, 0, 2, 2, 2, 2]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        tubes = {t.id: t for t in random_instance(rng, 8, META)}
        placed = [
            place(singleton_group(t), tubes, int(rng.integers(0, 100)))
            for t in tubes.values()
        ]
        hist = box_count_histogram(placed)
        length = max(pg.end for pg in placed)
        expected = np.zeros(length, dtype=int)
        for s in range(length):
            count = 0
            for pg in placed:
                tube = tubes[pg.group.members[0][0]]
                if pg.synopsis_start <= s < pg.synopsis_start + tube.length:
                    count += 1
            expected[s] = count
        assert hist.tolist() == expected.tolist()

    def test_matches_per_tube_slice_add(self):
        rng = np.random.default_rng(62)
        tubes = {t.id: t for t in random_instance(rng, 40, META)}
        ids = list(tubes)
        for _ in range(20):
            rng.shuffle(ids)
            cuts = np.sort(rng.choice(np.arange(1, len(ids)), size=5, replace=False))
            placed = []
            for part in np.split(np.array(ids), cuts):
                offsets = [0] + [int(v) for v in rng.integers(0, 40, size=len(part) - 1)]
                group = TubeGroup(tuple(zip(part.tolist(), offsets)), 0)
                placed.append(place(group, tubes, int(rng.integers(0, 300))))
            expected = np.zeros(max(pg.end for pg in placed), dtype=np.int64)
            for pg in placed:
                for tid, off in pg.group.members:
                    a = pg.synopsis_start + off
                    expected[a : a + tubes[tid].length] += 1
            hist = box_count_histogram(placed)
            assert hist.dtype == np.int64
            assert hist.tolist() == expected.tolist()


def _dip_histogram_groups():
    """Placed groups realizing a box-count histogram flat at 4 with a dip to 1."""
    tubes = {}
    placed = []
    tid = 1
    # one tube spanning all 100 frames
    t = make_tube(tid, 0, [0] * 100, [0] * 100)
    tubes[tid] = t
    placed.append((t, 0))
    tid += 1
    # three pairs covering frames 0-79 and 81-99, leaving frame 80 at count 1
    for _ in range(3):
        head = make_tube(tid, 0, [0] * 80, [0] * 80)
        tubes[tid] = head
        placed.append((head, 0))
        tid += 1
        tail = make_tube(tid, 0, [0] * 19, [0] * 19)
        tubes[tid] = tail
        placed.append((tail, 81))
        tid += 1
    return [place(singleton_group(t), tubes, s) for t, s in placed]


class TestCalculateStart:
    def test_empty_placements(self):
        cfg = SchedulerConfig()
        assert calculate_start([], cfg) == 0

    def test_dip_after_skip_region(self):
        placed = _dip_histogram_groups()
        hist = box_count_histogram(placed)
        assert hist.tolist() == [4] * 80 + [1] + [4] * 19
        cfg = SchedulerConfig(startframe_skip_fraction=0.15, startframe_back_off=10)
        # direct-scan oracle: tau = (4 + 3.97) / 2, first dip at 80, minus 10
        assert calculate_start(placed, cfg) == 70

    def test_dip_inside_skip_ignored(self):
        tubes = {}
        placements = []
        tid = 1
        for _ in range(4):
            head = make_tube(tid, 0, [0] * 10, [0] * 10)
            tubes[tid] = head
            placements.append((head, 0))
            tid += 1
            tail = make_tube(tid, 0, [0] * 89, [0] * 89)
            tubes[tid] = tail
            placements.append((tail, 11))
            tid += 1
        placed = [place(singleton_group(t), tubes, s) for t, s in placements]
        hist = box_count_histogram(placed)
        assert hist[10] == 0 and len(hist) == 100
        cfg = SchedulerConfig(startframe_skip_fraction=0.15, startframe_back_off=10)
        # dip sits at frame 10, inside the skipped 15 frames: fall through to
        # the end-of-video rule, max(0, 100 - 10)
        assert calculate_start(placed, cfg) == 90

    def test_all_above_threshold_falls_back(self):
        t = make_tube(1, 0, [0] * 40, [0] * 40)
        placed = [place(singleton_group(t), {1: t}, 0)]
        cfg = SchedulerConfig(startframe_back_off=30)
        assert calculate_start(placed, cfg) == 10  # 40 - 30

    def test_clamped_at_zero(self):
        t = make_tube(1, 0, [0] * 10, [0] * 10)
        placed = [place(singleton_group(t), {1: t}, 0)]
        cfg = SchedulerConfig(startframe_back_off=30)
        assert calculate_start(placed, cfg) == 0


class TestRearrange:
    def test_empty_input(self):
        schedule = rearrange([], {}, SchedulerConfig())
        assert schedule.synopsis_length == 0
        assert schedule.placements == ()

    def test_single_group_at_zero(self):
        t = make_tube(1, 40, [0] * 25, [0] * 25)
        schedule = rearrange([singleton_group(t)], {1: t}, SchedulerConfig())
        assert schedule.placements[0][1] == 0
        assert schedule.synopsis_length == 25

    def test_identical_pair_shifted_past_first(self):
        # without weight decay the second group must clear the first entirely
        t1 = make_tube(1, 0, [0] * 10, [0] * 10)
        t2 = make_tube(2, 100, [0] * 10, [0] * 10)
        tubes = {1: t1, 2: t2}
        groups = [singleton_group(t1), singleton_group(t2)]
        cfg = SchedulerConfig(collision_threshold=0.05, decay_rate=1.0, shift_step=3)
        schedule = rearrange(groups, tubes, cfg)
        starts = dict(tube_placements(schedule))
        assert starts[1] == 0
        assert starts[2] >= 10
        assert starts[2] % 3 == 0
        assert schedule.synopsis_length == starts[2] + 10

    def test_huge_threshold_stacks_first_batch_at_zero(self):
        rng = np.random.default_rng(62)
        tubes = random_instance(rng, 8, META)
        by_id = {t.id: t for t in tubes}
        groups = [singleton_group(t) for t in sorted(tubes, key=lambda t: t.start)]
        cfg = SchedulerConfig(collision_threshold=1e9)
        schedule = rearrange(groups, by_id, cfg)
        assert all(s == 0 for _, s in schedule.placements)
        assert schedule.synopsis_length == max(
            group_extent(g, by_id) for g in schedule.groups
        )

    def test_requires_source_start_order(self):
        t1 = make_tube(1, 50, [0] * 5, [0] * 5)
        t2 = make_tube(2, 0, [0] * 5, [0] * 5)
        with pytest.raises(ValueError, match="sorted"):
            rearrange(
                [singleton_group(t1), singleton_group(t2)],
                {1: t1, 2: t2},
                SchedulerConfig(),
            )

    def test_determinism_and_wire_format_stability(self):
        rng = np.random.default_rng(63)
        tubes = random_instance(rng, 24, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(80.0, 3.0))
        cfg = SchedulerConfig(collision_threshold=0.2, decay_rate=0.8)
        one = rearrange(groups, by_id, cfg)
        two = rearrange(groups, by_id, cfg)
        traced = rearrange(groups, by_id, cfg, trace=SchedulerTrace())
        assert one == two == traced
        blob1 = json.dumps(schedule_to_dict(one), sort_keys=True)
        blob2 = json.dumps(schedule_to_dict(two), sort_keys=True)
        assert blob1 == blob2

    def test_offsets_preserved_exactly(self):
        rng = np.random.default_rng(64)
        tubes = random_instance(rng, 30, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(150.0, 2.0))
        schedule = rearrange(groups, by_id, SchedulerConfig(collision_threshold=0.15))
        starts = tube_placements(schedule)
        for group, s in schedule.placements:
            for tid, off in group.members:
                assert starts[tid] - s == off

    def test_shift_quantization_against_batch_start(self):
        rng = np.random.default_rng(65)
        tubes = random_instance(rng, 20, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(100.0, 3.0))
        cfg = SchedulerConfig(collision_threshold=0.1, batch_size=4, shift_step=3)
        trace = SchedulerTrace()
        schedule = rearrange(groups, by_id, cfg, trace=trace)
        initial = {gi: s for kind, gi, s in (e for e in trace.events if e[0] == "init")}
        final = {gi: s for kind, gi, s, _ in (e for e in trace.events if e[0] == "accept")}
        for gi, s in final.items():
            assert (s - initial[gi]) % cfg.shift_step == 0

    def test_feasibility_of_recorded_checks(self):
        rng = np.random.default_rng(66)
        tubes = random_instance(rng, 25, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(120.0, 2.5))
        cfg = SchedulerConfig(collision_threshold=0.12, decay_rate=0.7)
        trace = SchedulerTrace()
        schedule = rearrange(groups, by_id, cfg, trace=trace)
        final_start = {gi: s for kind, gi, s, _ in (e for e in trace.events if e[0] == "accept")}
        for gi, oi, cost, weight, start_at_check in trace.checks:
            assert cost * weight <= cfg.collision_threshold + 1e-12
            # re-verify the recorded cost from recorded positions
            a = PlacedGroup.place(groups[gi], by_id, start_at_check)
            b = PlacedGroup.place(groups[oi], by_id, final_start[oi])
            assert group_collision(a, b, by_id) == pytest.approx(cost)

    def test_weight_decay_counts_video_extensions(self):
        rng = np.random.default_rng(67)
        tubes = random_instance(rng, 18, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(100.0, 2.0))
        cfg = SchedulerConfig(collision_threshold=0.05, decay_rate=0.5)
        trace = SchedulerTrace()
        rearrange(groups, by_id, cfg, trace=trace)
        extends: dict[int, int] = {}
        weights: dict[int, list[float]] = {}
        for event in trace.events:
            if event[0] == "extend":
                _, gi, _, w = event
                extends[gi] = extends.get(gi, 0) + 1
                weights.setdefault(gi, []).append(w)
        finals = {gi: w for kind, gi, _, w in (e for e in trace.events if e[0] == "accept")}
        for gi, final_weight in finals.items():
            assert final_weight == pytest.approx(cfg.decay_rate ** extends.get(gi, 0))
            seq = weights.get(gi, [])
            assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_synopsis_length_is_max_placement_end(self):
        rng = np.random.default_rng(68)
        tubes = random_instance(rng, 15, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(90.0, 2.0))
        schedule = rearrange(groups, by_id, SchedulerConfig(collision_threshold=0.1))
        ends = [
            s + group_extent(g, by_id) for g, s in schedule.placements
        ]
        assert schedule.synopsis_length == max(ends)


class TestHandSimulatedTrace:
    """Two identical singleton groups walked through the algorithm by hand.

    Both tubes hold ten identical full-overlap boxes, so the collision cost
    at shift s is (10 - s) / 10.  With threshold 0.3, decay 0.5, step 3:

      s=0: cost 1.0, weight 1.0 -> shift to 3, extends video 10->13, decay .5
      s=3: cost 0.7, weight 0.5 -> 0.35 > 0.3 -> shift to 6, extend 16, decay .25
      s=6: cost 0.4, weight 0.25 -> 0.1 <= 0.3 -> accept at 6
    """

    def test_trace_matches_hand_simulation(self):
        t1 = make_tube(1, 0, [0] * 10, [0] * 10)
        t2 = make_tube(2, 20, [0] * 10, [0] * 10)
        tubes = {1: t1, 2: t2}
        groups = [singleton_group(t1), singleton_group(t2)]
        cfg = SchedulerConfig(collision_threshold=0.3, decay_rate=0.5, shift_step=3)
        trace = SchedulerTrace()
        schedule = rearrange(groups, tubes, cfg, trace=trace)

        assert trace.events == [
            ("batch", 0),
            ("init", 0, 0),
            ("accept", 0, 0, 1.0),
            ("init", 1, 0),
            ("cost", 1, 0, 1.0, 1.0),
            ("shift", 1, 3),
            ("extend", 1, 13, 0.5),
            ("cost", 1, 0, 0.7, 0.5),
            ("shift", 1, 6),
            ("extend", 1, 16, 0.25),
            ("cost", 1, 0, 0.4, 0.25),
            ("accept", 1, 6, 0.25),
        ]
        assert trace.checks == [(1, 0, 0.4, 0.25, 6)]
        assert dict(tube_placements(schedule)) == {1: 0, 2: 6}
        assert schedule.synopsis_length == 16

    def test_kernel_calls(self, monkeypatch):
        # group 0 has nothing placed to price against and makes no call;
        # then group 1's first price, and one run of starts 3, 6, ... from
        # the first shift, which the second reads
        t1 = make_tube(1, 0, [0] * 10, [0] * 10)
        t2 = make_tube(2, 20, [0] * 10, [0] * 10)
        calls = []
        pair_sums = BoxTable.pair_sums
        monkeypatch.setattr(
            BoxTable, "pair_sums", lambda *a, **k: calls.append(1) or pair_sums(*a, **k)
        )
        cfg = SchedulerConfig(collision_threshold=0.3, decay_rate=0.5, shift_step=3)
        rearrange([singleton_group(t1), singleton_group(t2)], {1: t1, 2: t2}, cfg)
        assert len(calls) == 2

    def test_single_group_makes_no_kernel_call(self, monkeypatch):
        t = make_tube(1, 0, [0] * 10, [0] * 10)
        calls = []
        pair_sums = BoxTable.pair_sums
        monkeypatch.setattr(
            BoxTable, "pair_sums", lambda *a, **k: calls.append(1) or pair_sums(*a, **k)
        )
        schedule = rearrange([singleton_group(t)], {1: t}, SchedulerConfig())
        assert dict(tube_placements(schedule)) == {1: 0}
        assert calls == []


class TestWireFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(69)
        tubes = random_instance(rng, 12, META)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(100.0, 3.0))
        schedule = rearrange(groups, by_id, SchedulerConfig(collision_threshold=0.2))
        data = json.loads(json.dumps(schedule_to_dict(schedule)))
        rebuilt = schedule_from_dict(data, by_id)
        assert rebuilt == schedule

    def test_unknown_tube_rejected(self):
        t = make_tube(1, 0, [0] * 5, [0] * 5)
        schedule = rearrange([singleton_group(t)], {1: t}, SchedulerConfig())
        data = schedule_to_dict(schedule)
        data["placements"][0]["per_tube_starts"] = {"99": 0}
        data["placements"][0]["tube_ids"] = [99]
        with pytest.raises(ValueError, match="99"):
            schedule_from_dict(data, {1: t})

    @pytest.mark.parametrize("starts, message", [
        ({"abc": 0}, "per_tube_starts key 'abc' is not a tube id"),
        ({"1": -2}, "places tube 1 at negative synopsis start -2"),
    ])
    def test_bad_tube_start_named(self, starts, message):
        t = make_tube(1, 0, [0] * 5, [0] * 5)
        data = {"synopsis_length": 5, "placements": [{"per_tube_starts": starts}]}
        with pytest.raises(ValueError, match=message):
            schedule_from_dict(data, {1: t})

    def test_offender_is_first_tube_reaching_the_end(self):
        tubes = {tid: make_tube(tid, 0, [0] * 4, [0] * 4) for tid in (3, 5, 8)}
        data = {
            "synopsis_length": 6,
            "placements": [
                {"per_tube_starts": {"3": 0}},
                {"per_tube_starts": {"8": 4, "5": 4}},
            ],
        }
        with pytest.raises(ValueError, match="cuts off tube 8 ending at 8"):
            schedule_from_dict(data, tubes)

    def test_tube_end_beyond_64_bits_named(self):
        t = make_tube(1, 0, [0] * 5, [0] * 5)
        last = 2**63 - 1
        data = {"synopsis_length": last, "placements": [{"per_tube_starts": {"1": last - 5}}]}
        assert tube_placements(schedule_from_dict(data, {1: t})) == {1: last - 5}
        data["placements"][0]["per_tube_starts"]["1"] = last - 4
        with pytest.raises(ValueError, match="tube 1 at synopsis start .* not fit in 64 bits"):
            schedule_from_dict(data, {1: t})

    @pytest.mark.parametrize("length, placements, end", [
        (13, [{"per_tube_starts": {"7": 0}}], 8),
        (10**9, [], 0),
    ])
    def test_synopsis_length_past_last_tube_end_named(self, length, placements, end):
        t = make_tube(7, 0, [0] * 8, [0] * 8)
        data = {"synopsis_length": length, "placements": placements}
        message = f"synopsis_length {length} runs past the last tube end {end}$"
        with pytest.raises(ValueError, match=message):
            schedule_from_dict(data, {7: t})

    def test_short_synopsis_length_names_offender(self):
        t = make_tube(7, 0, [0] * 8, [0] * 8)
        schedule = rearrange([singleton_group(t)], {7: t}, SchedulerConfig())
        data = schedule_to_dict(schedule)
        data["synopsis_length"] = 4
        with pytest.raises(ValueError, match="tube 7"):
            schedule_from_dict(data, {7: t})


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SchedulerConfig(batch_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(decay_rate=0.0)
        with pytest.raises(ValueError):
            SchedulerConfig(decay_rate=1.5)
        with pytest.raises(ValueError):
            SchedulerConfig(collision_threshold=0.0)
        with pytest.raises(ValueError):
            SchedulerConfig(shift_step=0)

    def test_shift_ladder_must_end_at_threshold(self):
        with pytest.raises(ValueError):
            SchedulerConfig(collision_threshold=0.1, shift_levels=((0.5, 9),))
        cfg = SchedulerConfig(
            collision_threshold=0.1, shift_levels=((0.5, 9), (0.1, 3))
        )
        assert cfg.ladder == ((0.5, 9), (0.1, 3))

    def test_coarse_ladder_reaches_same_feasibility(self):
        t1 = make_tube(1, 0, [0] * 30, [0] * 30)
        t2 = make_tube(2, 50, [0] * 30, [0] * 30)
        tubes = {1: t1, 2: t2}
        groups = [singleton_group(t1), singleton_group(t2)]
        cfg = SchedulerConfig(
            collision_threshold=0.05,
            decay_rate=1.0,
            shift_levels=((0.5, 12), (0.05, 3)),
        )
        schedule = rearrange(groups, tubes, cfg)
        a = PlacedGroup.place(groups[0], tubes, dict(tube_placements(schedule))[1])
        b = PlacedGroup.place(groups[1], tubes, dict(tube_placements(schedule))[2])
        assert group_collision(a, b, tubes) <= 0.05
