"""Grouping costs, the pair table and transitive merging against scalar-loop oracles."""

import csv
import io
from decimal import Decimal, getcontext

import numpy as np
import pytest

from videosynopsis.core import BoxTable, VideoMeta
from videosynopsis.grouping import (
    GroupingConfig,
    build_groups,
    concurrency_weight,
    dump_pair_table,
    pair_costs,
    weight_f,
)

from oracles import center_distance, common_frames, iom
from synth import make_tube, random_instance

META = VideoMeta(width=512, height=512, frame_count=400)


def decimal_weight(x: str) -> float:
    """50-digit decimal evaluation of the weight function."""
    getcontext().prec = 50
    e = (Decimal(x) / 2).exp()
    return float((1 + 1 / (1 + e)) ** 4)


def scalar_costs(t1, t2):
    """Per-frame scalar-loop oracle for average distance and collision sum."""
    frames = sorted(common_frames(t1, t2))
    if not frames:
        return None, 0.0
    by_frame1 = {b.frame: b for b in t1.boxes}
    by_frame2 = {b.frame: b for b in t2.boxes}
    dists = [center_distance(by_frame1[f], by_frame2[f]) for f in frames]
    ioms = [iom(by_frame1[f], by_frame2[f]) for f in frames]
    return sum(dists) / len(frames), sum(ioms)


class TestWeightF:
    def test_zero_is_analytic(self):
        assert weight_f(0.0) == 5.0625

    def test_one_matches_decimal_oracle(self):
        assert weight_f(1.0) == pytest.approx(decimal_weight("1"), abs=1e-12)
        assert weight_f(1.0) == pytest.approx(3.6009551904553508, abs=1e-12)

    def test_two_thirds_matches_decimal_oracle(self):
        expected = float(
            (1 + 1 / (1 + (Decimal(2) / Decimal(3) / 2).exp())) ** 4
        )
        assert weight_f(2 / 3) == pytest.approx(expected, abs=1e-9)
        assert weight_f(2 / 3) == pytest.approx(4.036511819882134, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weight_f(-0.01)
        with pytest.raises(ValueError):
            weight_f(1.01)

    def test_strictly_decreasing_on_grid(self):
        xs = np.linspace(0.0, 1.0, 101)
        values = [weight_f(float(x)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAverageDistance:
    def test_identical_tubes(self):
        t = make_tube(1, 0, [10, 20, 30], [5, 5, 5])
        assert pair_costs(t, t)[0] == 0.0

    def test_parallel_tubes_hand_value(self):
        # centers (20,10),(30,10) vs (20,20),(30,20) on frames {2,3}
        a = make_tube(1, 2, [15, 25], [5, 5])
        b = make_tube(2, 2, [15, 25], [15, 15])
        assert pair_costs(a, b)[0] == 10.0

    def test_disjoint_is_undefined(self):
        a = make_tube(1, 0, [0, 0], [0, 0])
        b = make_tube(2, 10, [0, 0], [0, 0])
        assert pair_costs(a, b)[0] is None


class TestConcurrencyWeight:
    def test_identical_tubes_full_ratio(self):
        t = make_tube(1, 0, [0, 5, 10], [0, 0, 0])
        assert concurrency_weight(t, t) == pytest.approx(weight_f(1.0))

    def test_two_of_three_shared(self):
        a = make_tube(1, 0, [0, 0, 0], [0, 0, 0])
        b = make_tube(2, 1, [5, 5, 5], [0, 0, 0])
        assert concurrency_weight(a, b) == pytest.approx(weight_f(2 / 3))

    def test_nested_tube_counts_as_concurrent(self):
        short = make_tube(1, 100, [0] * 100, [0] * 100)
        long = make_tube(2, 0, [400] * 1000, [400] * 1000)
        assert concurrency_weight(short, long) == pytest.approx(weight_f(1.0))

    def test_non_concurrent_undefined(self):
        a = make_tube(1, 0, [0], [0])
        b = make_tube(2, 5, [0], [0])
        assert concurrency_weight(a, b) is None


class TestWeightedDistance:
    def test_product_of_oracles(self):
        # D = 10 over two shared frames of three-frame tubes
        a = make_tube(1, 0, [15, 15, 15], [5, 5, 5])
        b = make_tube(2, 1, [15, 15, 15], [15, 15, 15])
        expected = 10.0 * weight_f(2 / 3)
        dw = pair_costs(a, b)[0] * concurrency_weight(a, b)
        assert dw == pytest.approx(expected)
        assert dw == pytest.approx(40.365, abs=1e-2)

    def test_identical_tubes_zero(self):
        t = make_tube(1, 0, [3, 4], [5, 6])
        assert pair_costs(t, t)[0] * concurrency_weight(t, t) == 0.0

    def test_non_concurrent_undefined(self):
        a = make_tube(1, 0, [0], [0])
        b = make_tube(2, 9, [0], [0])
        assert pair_costs(a, b)[0] is None and concurrency_weight(a, b) is None


class TestTotalCollision:
    def test_identical_two_frames(self):
        t = make_tube(1, 0, [0, 0], [0, 0])
        assert pair_costs(t, t)[1] == 2.0

    def test_no_common_frames(self):
        a = make_tube(1, 0, [0], [0])
        b = make_tube(2, 4, [0], [0])
        assert pair_costs(a, b)[1] == 0.0

    def test_quarter_overlap_four_frames(self):
        a = make_tube(1, 0, [0] * 4, [0] * 4)
        b = make_tube(2, 0, [5] * 4, [5] * 4)
        assert pair_costs(a, b)[1] == pytest.approx(1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(51)
        tubes = random_instance(rng, 14, META)
        for i in range(len(tubes)):
            for j in range(i + 1, len(tubes)):
                d, c = scalar_costs(tubes[i], tubes[j])
                got, collision = pair_costs(tubes[i], tubes[j])
                assert collision == pytest.approx(c)
                if d is None:
                    assert got is None
                else:
                    assert got == pytest.approx(d)


def oracle_groups(tubes, cfg):
    """Brute-force oracle: explicit link set, then naive union-find merging."""
    links = []
    for i in range(len(tubes)):
        for j in range(len(tubes)):
            if i == j:
                continue
            d, c = scalar_costs(tubes[i], tubes[j])
            w = concurrency_weight(tubes[i], tubes[j])
            dw = None if d is None else d * w
            if (dw is not None and dw < cfg.distance_threshold) or c > cfg.collision_threshold:
                links.append((tubes[i].id, tubes[j].id))

    parent = {t.id: t.id for t in tubes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = {}
    for t in tubes:
        components.setdefault(find(t.id), set()).add(t.id)
    return sorted(
        (frozenset(m) for m in components.values()),
        key=lambda s: min(s),
    )


class TestBuildGroups:
    CFG = GroupingConfig(distance_threshold=120.0, collision_threshold=3.0)

    def test_distant_tubes_stay_singletons(self):
        a = make_tube(1, 0, [0] * 5, [0] * 5)
        b = make_tube(2, 0, [300] * 5, [300] * 5)
        c = make_tube(3, 0, [480] * 5, [100] * 5)
        groups = build_groups([a, b, c], self.CFG)
        assert [g.tube_ids for g in groups] == [(1,), (2,), (3,)]

    def test_chain_links_merge_transitively(self):
        # a-b close, b-c close, a-c far: expect one group {a, b, c}
        a = make_tube(1, 0, [100] * 6, [100] * 6)
        b = make_tube(2, 0, [110] * 6, [100] * 6)
        c = make_tube(3, 0, [120] * 6, [100] * 6)
        cfg = GroupingConfig(distance_threshold=60.0, collision_threshold=1000.0)
        # verify the premise: a-c is not linked directly
        def dw(s, t):
            return pair_costs(s, t)[0] * concurrency_weight(s, t)

        assert dw(a, c) >= 60.0
        assert dw(a, b) < 60.0 and dw(b, c) < 60.0
        groups = build_groups([a, b, c], cfg)
        assert len(groups) == 1
        assert set(groups[0].tube_ids) == {1, 2, 3}

    def test_matches_union_find_oracle_on_random_instances(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            tubes = random_instance(rng, 20, META)
            groups = build_groups(tubes, self.CFG)
            got = sorted(
                (frozenset(g.tube_ids) for g in groups), key=lambda s: min(s)
            )
            assert got == oracle_groups(tubes, self.CFG)

    def test_partition_property(self):
        rng = np.random.default_rng(53)
        tubes = random_instance(rng, 30, META)
        groups = build_groups(tubes, self.CFG)
        seen = [tid for g in groups for tid in g.tube_ids]
        assert sorted(seen) == sorted(t.id for t in tubes)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(54)
        tubes = random_instance(rng, 15, META)
        groups = build_groups(tubes, self.CFG)
        shuffled = list(tubes)
        rng.shuffle(shuffled)
        assert build_groups(shuffled, self.CFG) == groups

    def test_groups_sorted_by_source_start_with_zero_offset_member(self):
        rng = np.random.default_rng(55)
        tubes = random_instance(rng, 25, META)
        groups = build_groups(tubes, self.CFG)
        starts = [g.source_start for g in groups]
        assert starts == sorted(starts)
        by_id = {t.id: t for t in tubes}
        for g in groups:
            assert any(off == 0 for _, off in g.members)
            for tid, off in g.members:
                assert by_id[tid].start - g.source_start == off

    def test_non_concurrent_tubes_never_distance_grouped(self):
        # same positions, disjoint intervals: distance would be 0 if defined
        a = make_tube(1, 0, [50] * 5, [50] * 5)
        b = make_tube(2, 50, [50] * 5, [50] * 5)
        groups = build_groups([a, b], GroupingConfig(1e9, 1e-9))
        assert len(groups) == 2

    def test_duplicate_ids_rejected(self):
        t = make_tube(1, 0, [0], [0])
        with pytest.raises(ValueError):
            build_groups([t, t], self.CFG)

    def test_pair_table_columns(self):
        a = make_tube(1, 0, [0, 0], [0, 0])
        b = make_tube(2, 0, [5, 5], [5, 5])
        buf = io.StringIO()
        dump_pair_table([a, b], buf)
        (row,) = csv.DictReader(io.StringIO(buf.getvalue()))
        assert row["tube_a"] == "1" and row["tube_b"] == "2"
        assert float(row["collision"]) == pytest.approx(0.5)
        assert float(row["weighted_distance"]) == pytest.approx(
            float(row["distance"]) * float(row["weight"]), abs=1e-5
        )

    def test_pair_table_csv_dump(self):
        a = make_tube(1, 0, [0, 0], [0, 0])
        b = make_tube(2, 8, [5, 5], [5, 5])  # non-concurrent: empty cells
        buf = io.StringIO()
        dump_pair_table([a, b], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == [
            "tube_a", "tube_b", "distance", "weight", "weighted_distance", "collision",
        ]
        assert rows[1][:2] == ["1", "2"]
        assert rows[1][2] == "" and rows[1][4] == ""
        assert float(rows[1][5]) == 0.0


def reference_pair_table(tubes):
    """The pair table priced one pair at a time, in the same CSV layout."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tube_a", "tube_b", "distance", "weight", "weighted_distance", "collision"])
    for i in range(len(tubes)):
        for j in range(i + 1, len(tubes)):
            d, c = pair_costs(tubes[i], tubes[j])
            w = concurrency_weight(tubes[i], tubes[j])
            cells = ["" if v is None else f"{v:.6f}" for v in (d, w, None if d is None else d * w)]
            writer.writerow([tubes[i].id, tubes[j].id, *cells, f"{c:.6f}"])
    return buf.getvalue()


def pair_table_instance(seed):
    """Random tubes in a small frame, in shuffled file order, plus two that
    share an edge for 15 frames."""
    rng = np.random.default_rng(seed)
    tubes = random_instance(rng, 30, VideoMeta(width=160, height=160, frame_count=200)) + [
        make_tube(90, 0, [100] * 20, [100] * 20),
        make_tube(91, 5, [110] * 20, [100] * 20),
    ]
    rng.shuffle(tubes)
    return tubes


class TestPairTable:
    def dump(self, tubes):
        buf = io.StringIO()
        dump_pair_table(tubes, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_matches_pair_by_pair_reference(self, seed):
        tubes = pair_table_instance(seed)
        costs = [pair_costs(s, t) for k, s in enumerate(tubes) for t in tubes[k + 1 :]]
        assert any(d is None for d, _ in costs)  # not concurrent
        assert any(d is not None and c > 0 for d, c in costs)  # overlapping
        assert any(d is not None and c == 0 for d, c in costs)  # touching or apart
        got = self.dump(tubes)
        assert got == reference_pair_table(tubes)
        assert got.count("\n") == 1 + len(tubes) * (len(tubes) - 1) // 2

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_tubes_give_the_header_alone(self, count):
        tubes = [make_tube(7, 3, [0, 4], [0, 4])][:count]
        assert self.dump(tubes) == reference_pair_table(tubes)
        assert self.dump(tubes).splitlines() == [
            "tube_a,tube_b,distance,weight,weighted_distance,collision"
        ]

    def test_each_kernel_call_prices_one_tube_against_the_rest(self, monkeypatch):
        tubes = pair_table_instance(64)
        priced = []
        pair_sums = BoxTable.pair_sums

        def spy(self, a, *args, **kwargs):
            priced.append(len(a))
            return pair_sums(self, a, *args, **kwargs)

        monkeypatch.setattr(BoxTable, "pair_sums", spy)
        self.dump(tubes)
        assert max(priced) <= len(tubes) - 1
        assert sum(priced) == len(tubes) * (len(tubes) - 1) // 2
