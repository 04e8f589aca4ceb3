"""The batched box-overlap kernel against the scalar per-pair kernels it replaced.

Grouping, the scheduler's collision cost and the collision-area metric used
to price each tube pair with their own short numpy kernel.  Those kernels
are copied below as oracles; the batched versions must match them exactly
(``==``, never ``approx``), including at numpy's pairwise-summation block
boundaries (8-element unrolling, 128-element blocks).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from videosynopsis import core
from videosynopsis.core import BoxTable, SynopsisSchedule, Tube, TubeGroup, tube_placements
from videosynopsis.grouping import GroupingConfig, build_groups, pair_costs
from videosynopsis.metrics import collision_area
from videosynopsis.scheduler import (
    PlacedGroup,
    SchedulerConfig,
    SchedulerTrace,
    _Opponents,
    group_collision,
    rearrange,
    schedule_to_dict,
)

from synth import scheduling_corpus

WINDOW_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 257)


# -- scalar oracles: the per-pair kernels of the unbatched implementation ----


def oracle_pair_costs(t1, t2):
    lo = max(t1.start, t2.start)
    hi = min(t1.end, t2.end)
    if lo > hi:
        return None, 0.0
    n, i1, i2 = hi - lo + 1, lo - t1.start, lo - t2.start
    l1 = t1.lefts[i1 : i1 + n]
    l2 = t2.lefts[i2 : i2 + n]
    tp1 = t1.tops[i1 : i1 + n]
    tp2 = t2.tops[i2 : i2 + n]
    w1 = t1.widths[i1 : i1 + n]
    w2 = t2.widths[i2 : i2 + n]
    h1 = t1.heights[i1 : i1 + n]
    h2 = t2.heights[i2 : i2 + n]
    dx = (l1 + w1 / 2.0) - (l2 + w2 / 2.0)
    dy = (tp1 + h1 / 2.0) - (tp2 + h2 / 2.0)
    dist = float(np.hypot(dx, dy).mean())
    iw = np.minimum(l1 + w1, l2 + w2) - np.maximum(l1, l2)
    ih = np.minimum(tp1 + h1, tp2 + h2) - np.maximum(tp1, tp2)
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    smaller = np.minimum(w1 * h1, w2 * h2)
    return dist, float((inter / smaller).sum())


def oracle_tube_pair_collision(t1, s1, t2, s2):
    lo = max(s1, s2)
    hi = min(s1 + t1.length, s2 + t2.length) - 1
    if lo > hi:
        return 0.0
    n, i1, i2 = hi - lo + 1, lo - s1, lo - s2
    l1 = t1.lefts[i1 : i1 + n]
    l2 = t2.lefts[i2 : i2 + n]
    tp1 = t1.tops[i1 : i1 + n]
    tp2 = t2.tops[i2 : i2 + n]
    w1 = t1.widths[i1 : i1 + n]
    w2 = t2.widths[i2 : i2 + n]
    h1 = t1.heights[i1 : i1 + n]
    h2 = t2.heights[i2 : i2 + n]
    iw = np.minimum(l1 + w1, l2 + w2) - np.maximum(l1, l2)
    ih = np.minimum(tp1 + h1, tp2 + h2) - np.maximum(tp1, tp2)
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    smaller = np.minimum(w1 * h1, w2 * h2)
    return float((inter / smaller).sum())


def oracle_group_collision(g1, g2, tubes):
    total = 0.0
    for id1, off1 in g1.group.members:
        for id2, off2 in g2.group.members:
            total += oracle_tube_pair_collision(
                tubes[id1], g1.synopsis_start + off1, tubes[id2], g2.synopsis_start + off2
            )
    return total / max(g1.box_count, g2.box_count)


def oracle_pair_intersection_sum(t1, s1, t2, s2):
    lo = max(s1, s2)
    hi = min(s1 + t1.length, s2 + t2.length) - 1
    if lo > hi:
        return 0
    n, i1, i2 = hi - lo + 1, lo - s1, lo - s2
    l1, l2 = t1.lefts[i1 : i1 + n], t2.lefts[i2 : i2 + n]
    tp1, tp2 = t1.tops[i1 : i1 + n], t2.tops[i2 : i2 + n]
    w1, w2 = t1.widths[i1 : i1 + n], t2.widths[i2 : i2 + n]
    h1, h2 = t1.heights[i1 : i1 + n], t2.heights[i2 : i2 + n]
    iw = np.minimum(l1 + w1, l2 + w2) - np.maximum(l1, l2)
    ih = np.minimum(tp1 + h1, tp2 + h2) - np.maximum(tp1, tp2)
    return int((np.clip(iw, 0, None) * np.clip(ih, 0, None)).sum())


def oracle_collision_area(schedule, tubes, exclude_intra_group=False):
    starts = tube_placements(schedule)
    group_of = {tid: gi for gi, (g, _) in enumerate(schedule.placements) for tid in g.tube_ids}
    ids = sorted(starts)
    total = 0
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            ta, tb = ids[a], ids[b]
            if exclude_intra_group and group_of[ta] == group_of[tb]:
                continue
            total += oracle_pair_intersection_sum(tubes[ta], starts[ta], tubes[tb], starts[tb])
    return total


# -- inputs ---------------------------------------------------------------------


def jittery_tube(rng, tid, start, length, spread=40):
    """Gapless tube whose box position and size change every frame.

    With ``spread`` 2, any two such boxes intersect (each covers x and y in
    [1, 3)), so every frame of a window adds a nonzero ratio.
    """
    coords = []
    for _ in range(length):
        w, h = (int(v) for v in rng.integers(3, 20, size=2))
        left, top = (int(v) for v in rng.integers(0, spread, size=2))
        coords.append((left, top, w, h))
    return Tube(id=tid, class_label="1", start=start, coords=coords)


def random_group(rng, ids, tubes):
    """A group of the given tubes at random offsets, one of them at 0."""
    offsets = [0] + [int(v) for v in rng.integers(0, 30, size=len(ids) - 1)]
    members = tuple(sorted(zip(ids, offsets), key=lambda m: (m[1], m[0])))
    return TubeGroup(members=members, source_start=min(tubes[t].start for t in ids))


def random_schedule(rng, tubes, sizes, span):
    """Groups of the given sizes over ``tubes`` at random synopsis starts."""
    ids = [t.id for t in tubes]
    rng.shuffle(ids)
    by_id = {t.id: t for t in tubes}
    placements, cursor, length = [], 0, 0
    for size in sizes:
        group = random_group(rng, ids[cursor : cursor + size], by_id)
        cursor += size
        start = int(rng.integers(0, span))
        placements.append((group, start))
        length = max(length, start + max(off + by_id[t].length for t, off in group.members))
    placements.sort(key=lambda p: p[1])
    return SynopsisSchedule(placements=tuple(placements), synopsis_length=length)


# -- pair_costs -------------------------------------------------------------------


class TestPairCosts:
    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        tubes = [
            jittery_tube(rng, i, int(rng.integers(0, 300)), int(rng.integers(1, 200)))
            for i in range(40)
        ]
        for i in range(len(tubes)):
            for j in range(len(tubes)):
                assert pair_costs(tubes[i], tubes[j]) == oracle_pair_costs(tubes[i], tubes[j])

    @pytest.mark.parametrize("n", WINDOW_LENGTHS)
    def test_window_lengths(self, n):
        rng = np.random.default_rng(n)
        t1 = jittery_tube(rng, 1, 10, n + 5, spread=2)
        t2 = jittery_tube(rng, 2, 15, n + 9, spread=2)  # common frames: exactly n
        got = pair_costs(t1, t2)
        assert got == oracle_pair_costs(t1, t2)
        assert got[1] > 0

    def test_touching_edges_and_disjoint(self):
        a = Tube(1, "1", 0, [(0, 0, 10, 10), (0, 0, 10, 10)])
        b = Tube(2, "1", 0, [(10, 0, 10, 10), (0, 10, 10, 10)])
        c = Tube(3, "1", 0, [(200, 200, 5, 5), (300, 300, 5, 5)])
        for x, y in ((a, b), (a, c), (b, c)):
            assert pair_costs(x, y) == oracle_pair_costs(x, y)
            assert pair_costs(x, y)[1] == 0.0


# -- group_collision --------------------------------------------------------------


class TestGroupCollision:
    def test_random_groups_and_placements(self):
        rng = np.random.default_rng(23)
        tubes = {i: jittery_tube(rng, i, 0, int(rng.integers(1, 150))) for i in range(1, 61)}
        ids = list(tubes)
        for _ in range(300):
            picked = [int(v) for v in rng.choice(ids, size=int(rng.integers(2, 9)), replace=False)]
            cut = int(rng.integers(1, len(picked)))
            s1, s2 = (int(v) for v in rng.integers(0, 60, size=2))
            g1 = PlacedGroup.place(random_group(rng, picked[:cut], tubes), tubes, s1)
            g2 = PlacedGroup.place(random_group(rng, picked[cut:], tubes), tubes, s2)
            assert group_collision(g1, g2, tubes) == oracle_group_collision(g1, g2, tubes)
            assert group_collision(g2, g1, tubes) == oracle_group_collision(g2, g1, tubes)

    @pytest.mark.parametrize("n", WINDOW_LENGTHS)
    def test_window_lengths(self, n):
        rng = np.random.default_rng(100 + n)
        tubes = {
            1: jittery_tube(rng, 1, 0, n + 3, spread=2),
            2: jittery_tube(rng, 2, 0, n + 11, spread=2),
        }
        group = {tid: TubeGroup(((tid, 0),), 0) for tid in tubes}
        a = PlacedGroup.place(group[1], tubes, 20)
        b = PlacedGroup.place(group[2], tubes, 23)  # a ends at 23 + n
        assert min(a.end, b.end) - max(a.synopsis_start, b.synopsis_start) == n
        got = group_collision(a, b, tubes)
        assert got == oracle_group_collision(a, b, tubes)
        assert got > 0

    def test_no_overlap_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        tubes = {1: jittery_tube(rng, 1, 0, 20), 2: jittery_tube(rng, 2, 0, 20)}
        a = PlacedGroup.place(TubeGroup(((1, 0),), 0), tubes, 0)
        b = PlacedGroup.place(TubeGroup(((2, 0),), 0), tubes, 20)  # touching in time
        assert group_collision(a, b, tubes) == 0.0


# -- scheduler trace replay ------------------------------------------------------


def replay_costs(trace, groups, tubes):
    """Recompute every traced cost with the oracle at the traced positions."""
    position, accepted = {}, {}
    for event in trace.events:
        kind = event[0]
        if kind == "init":
            position[event[1]] = event[2]
        elif kind == "shift":
            position[event[1]] = event[2]
        elif kind == "accept":
            accepted[event[1]] = event[2]
        elif kind == "cost":
            _, gi, oi, cost, _ = event
            pg = PlacedGroup.place(groups[gi], tubes, position[gi])
            opp = PlacedGroup.place(groups[oi], tubes, accepted[oi])
            yield cost, oracle_group_collision(pg, opp, tubes)


SCHEDULER_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        SchedulerConfig(),
        SchedulerConfig(collision_threshold=0.02, shift_step=2),
        SchedulerConfig(collision_threshold=0.05, shift_levels=((0.4, 7), (0.15, 4), (0.05, 1))),
    ],
    ids=["default", "tight", "ladder"],
)


@SCHEDULER_CONFIGS
def test_every_traced_cost_matches_the_oracle(cfg):
    tubes, _ = scheduling_corpus(seed=3, count=70)
    by_id = {t.id: t for t in tubes}
    groups = build_groups(tubes, GroupingConfig())
    trace = SchedulerTrace()
    rearrange(groups, by_id, cfg, trace=trace)
    pairs = list(replay_costs(trace, groups, by_id))
    assert sum(1 for e in trace.events if e[0] == "shift") > 50
    assert all(got == want for got, want in pairs)


def test_traced_costs_and_group_collision_are_python_floats():
    tubes, _ = scheduling_corpus(seed=3, count=70)
    by_id = {t.id: t for t in tubes}
    groups = build_groups(tubes, GroupingConfig())
    trace = SchedulerTrace()
    schedule = rearrange(groups, by_id, SchedulerConfig(), trace=trace)
    costs = [e[3] for e in trace.events if e[0] == "cost"] + [c[2] for c in trace.checks]
    assert len(costs) > 100 and {type(c) for c in costs} == {float}
    (g1, s1), (g2, s2) = schedule.placements[:2]
    pair = (PlacedGroup.place(g1, by_id, s1), PlacedGroup.place(g2, by_id, s2))
    assert type(group_collision(*pair, by_id)) is float


def test_schedule_pinned_on_the_200_tube_corpus():
    tubes, _ = scheduling_corpus(count=200)
    groups = build_groups(tubes, GroupingConfig())
    schedule = rearrange(groups, {t.id: t for t in tubes}, SchedulerConfig())
    digest = hashlib.sha256(json.dumps(schedule_to_dict(schedule), sort_keys=True).encode())
    assert digest.hexdigest() == "c876f3c904b94ee1997d89c263b7a209819d756ab41ad918911cf81b85771afb"


# per scheduler config: sha256 of the trace's events and of its checks, as
# JSON, and the schedule's collision area; the events and checks pin the
# order in which the scheduler prices its opponents, not only where it ends
TRACE_PINS = {
    "default": (
        "3895fa6f518cabb53a92de77043e0d626f022ef2004deb15a3d8b001b754f304",
        "70c2c7a8dfea924db763fe7dc2bb4150c696d9a8c7490d91b0da181bc5899c05",
        2680048,
    ),
    "tight": (
        "371b149140c3c0308487324f828029a8f728a1e2c6d0fb6a1c44645b029c3f84",
        "903a2101d5955c0d7c5f8a8336669505d50d7f43c570c4f0303490bafd59f5ff",
        935224,
    ),
    "ladder": (
        "aa4b08dd2855e26dd39b96d84a92702524e59a882f2c42d563c21e18a55acbd5",
        "3be451fa75b84c65c54e39265d8273d18535cda5f0ea0cbb0c58405dc4799653",
        2055856,
    ),
}


@SCHEDULER_CONFIGS
def test_trace_pinned_on_the_200_tube_corpus(cfg, request):
    tubes, _ = scheduling_corpus(count=200)
    by_id = {t.id: t for t in tubes}
    trace = SchedulerTrace()
    schedule = rearrange(build_groups(tubes, GroupingConfig()), by_id, cfg, trace=trace)
    digests = [hashlib.sha256(json.dumps(log).encode()).hexdigest() for log in (trace.events, trace.checks)]
    assert len(trace.checks) == 16836
    assert (*digests, collision_area(schedule, by_id)) == TRACE_PINS[request.node.callspec.id]


def test_kernel_calls_on_the_200_tube_corpus(monkeypatch):
    # one call per group against every opponent (none for the first group,
    # which has nothing placed), one per run of shifted starts and one per
    # re-price of the remaining opponents after a shift
    tubes, _ = scheduling_corpus(count=200)
    groups = build_groups(tubes, GroupingConfig())
    calls = []
    pair_sums = BoxTable.pair_sums
    monkeypatch.setattr(
        BoxTable, "pair_sums", lambda *a, **k: calls.append(1) or pair_sums(*a, **k)
    )
    rearrange(groups, {t.id: t for t in tubes}, SchedulerConfig())
    assert len(calls) == 503


def test_kernel_work_on_the_200_tube_corpus(monkeypatch):
    # box-pair frames that reach the overlap arithmetic (two ``_overlap``
    # calls each, one per axis); grouping asks for distance, so it prices
    # every pair sharing frames, while the scheduler and collision_area skip
    # the pairs whose tube rectangles never meet (1634031 and 834868 frames
    # without that skip)
    tubes, _ = scheduling_corpus(count=200)
    by_id = {t.id: t for t in tubes}
    lengths = []
    overlap = core._overlap
    monkeypatch.setattr(
        core, "_overlap", lambda near, far, i1, i2: lengths.append(len(i1)) or overlap(near, far, i1, i2)
    )

    def frames_priced(run):
        lengths.clear()
        return run(), sum(lengths) // 2

    groups, grouping = frames_priced(lambda: build_groups(tubes, GroupingConfig()))
    schedule, scheduling = frames_priced(lambda: rearrange(groups, by_id, SchedulerConfig()))
    _, scoring = frames_priced(lambda: collision_area(schedule, by_id))
    assert (grouping, scheduling, scoring) == (45715, 355598, 73432)


# -- tube rectangles --------------------------------------------------------------


def rect_tube(rng, tid, rect, length):
    """A tube whose boxes lie inside ``rect`` (left, top, right, bottom), one
    of them, at a random row, filling it: its bounding rectangle is ``rect``."""
    left, top, right, bottom = rect
    coords = []
    for _ in range(length):
        x, y = int(rng.integers(left, right)), int(rng.integers(top, bottom))
        coords.append((x, y, int(rng.integers(1, right - x + 1)), int(rng.integers(1, bottom - y + 1))))
    coords[int(rng.integers(length))] = (left, top, right - left, bottom - top)
    return Tube(tid, "1", 0, coords)


def rect_tubes(rng, count):
    """Tubes whose rectangles have their edges on a coarse grid, so that
    many pairs of them share an edge or nest."""
    grid = np.arange(0, 72, 8)
    tubes = []
    for tid in range(count):
        (left, right), (top, bottom) = (np.sort(rng.choice(grid, size=2, replace=False)) for _ in "xy")
        rect = (int(left), int(top), int(right), int(bottom))
        tubes.append(rect_tube(rng, tid, rect, int(rng.integers(1, 40))))
    return tubes


def rect_kinds(rect, a, b):
    """How the rectangles of tubes ``a[k]`` and ``b[k]`` lie to each other."""
    (l1, t1, r1, b1), (l2, t2, r2, b2) = rect[:, a], rect[:, b]
    gap = np.minimum(np.minimum(r1, r2) - np.maximum(l1, l2), np.minimum(b1, b2) - np.maximum(t1, t2))
    inside = (l1 <= l2) & (t1 <= t2) & (r2 <= r1) & (b2 <= b1)
    outside = (l2 <= l1) & (t2 <= t1) & (r1 <= r2) & (b1 <= b2)
    return np.select(
        [gap < 0, gap == 0, inside | outside], ["apart", "touching", "nested"], "crossing"
    )


class TestTubeRectangles:
    def test_rectangles_are_each_tubes_least_and_greatest_edges(self):
        rng = np.random.default_rng(43)
        tubes = rect_tubes(rng, 30) + [jittery_tube(rng, 99, 5, 17)]
        want = [
            (t.lefts.min(), t.tops.min(), (t.lefts + t.widths).max(), (t.tops + t.heights).max())
            for t in tubes
        ]
        assert np.array_equal(BoxTable(tubes).rect, np.array(want).T)

    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_pairs_apart_leaves_every_sum_unchanged(self, seed):
        rng = np.random.default_rng(300 + seed)
        tubes = rect_tubes(rng, 40)
        table = BoxTable(tubes)
        a, b = (ix.ravel() for ix in np.indices((len(tubes), len(tubes))))
        at_a, at_b = rng.integers(0, 30, size=(2, len(a)))
        # asking for distance prices every pair that shares frames
        full = table.pair_sums(a, b, at_a, at_b, iom=True, distance=True)
        plain = table.pair_sums(a, b, at_a, at_b)
        with_iom = table.pair_sums(a, b, at_a, at_b, iom=True)
        for got in (plain, with_iom):
            assert np.array_equal(got.frames, full.frames)
            assert np.array_equal(got.inter, full.inter)
        assert np.array_equal(with_iom.iom, full.iom)
        assert plain.iom is None and plain.distance is None and with_iom.distance is None
        concurrent = full.frames > 0
        assert set(rect_kinds(table.rect, a, b)[concurrent]) == {"apart", "touching", "nested", "crossing"}
        assert (full.inter[concurrent] == 0).any() and (full.iom > 0).any()

    def test_an_empty_table_prices_empty_index_arrays(self):
        table = BoxTable([])
        assert table.rect.shape == (4, 0)
        none = np.zeros(0, dtype=np.int64)
        for flags in ({}, {"iom": True}, {"iom": True, "distance": True}):
            got = table.pair_sums(none, none, none, none, **flags)
            assert [len(v) for v in got if v is not None] == [0] * (2 + len(flags))


# -- multi-start pricing ----------------------------------------------------------


def priced_opponents(groups, starts, tubes):
    """An ``_Opponents`` holding ``groups[1:]`` placed at ``starts[1:]``, one
    slot each, with ``groups[0]``'s tubes next in its box table."""
    table = BoxTable(tubes[tid] for g in groups[1:] + groups[:1] for tid in g.tube_ids)
    opponents = _Opponents(table)
    placed = [PlacedGroup.place(g, tubes, s) for g, s in zip(groups[1:], starts[1:])]
    for pg in placed:
        opponents.add(pg)
    return opponents, placed


class TestMultiStartCosts:
    def test_random_groups_and_starts(self):
        rng = np.random.default_rng(29)
        tubes = {i: jittery_tube(rng, i, 0, int(rng.integers(1, 150))) for i in range(1, 61)}
        ids = list(tubes)
        hits = unsorted = 0
        for _ in range(40):
            picked = rng.choice(ids, size=int(rng.integers(2, 12)), replace=False)
            cuts = rng.choice(np.arange(1, len(picked)), size=min(3, len(picked) - 1), replace=False)
            groups = [random_group(rng, part.tolist(), tubes) for part in np.split(picked, np.sort(cuts))]
            # opponents from frame 200 on: no candidate (extent < 180) at
            # start 0 reaches them, nor any at or past the video end
            at = [0] + [int(v) for v in rng.integers(200, 400, size=len(groups) - 1)]
            opponents, placed = priced_opponents(groups, at, tubes)
            end = max(pg.end for pg in placed)
            starts = [0, *sorted(int(v) for v in rng.integers(0, end, size=20)), end, end + 17]
            # slots in random order: the columns follow the order asked for
            slots = rng.choice(len(placed), size=int(rng.integers(1, len(placed) + 1)), replace=False)
            slots = slots.tolist()
            unsorted += slots != sorted(slots)
            got = opponents.costs(PlacedGroup.place(groups[0], tubes, 0), slots, starts)
            assert got.shape == (len(starts), len(slots))
            for s, prices in zip(starts, got):
                pg = PlacedGroup.place(groups[0], tubes, s)
                for j, k in enumerate(slots):
                    assert prices[j] == group_collision(pg, placed[k], tubes)
                hits += int((prices > 0).sum())
            assert not got[[0, -2, -1]].any()
        assert hits > 200
        assert unsorted > 10

    def test_entry_adds_pair_sums_in_member_order(self):
        # 8 members against an 8-tube opponent, every box pair intersecting
        # (spread 2) over 5 to 150 frames: each entry adds 64 nonzero pair
        # sums of very different sizes, so the order of the additions shows
        rng = np.random.default_rng(35)
        tubes = {i: jittery_tube(rng, i, 0, int(rng.integers(5, 150)), spread=2) for i in range(1, 17)}
        groups = [TubeGroup(tuple((i, 0) for i in ids), 0) for ids in (range(1, 9), range(9, 17))]
        opponents, (opp,) = priced_opponents(groups, [0, 0], tubes)
        starts = [0, 1, 2, 3]
        got = opponents.costs(PlacedGroup.place(groups[0], tubes, 0), [0], starts)
        for s, price in zip(starts, got[:, 0].tolist()):
            terms = [
                [oracle_tube_pair_collision(tubes[m], s, tubes[o], 0) for o in range(9, 17)]
                for m in range(1, 9)
            ]
            flat = [t for row in terms for t in row]
            in_order = 0.0
            for t in flat:
                in_order += t
            opponent_major = 0.0
            for t in (t for column in zip(*terms) for t in column):
                opponent_major += t
            assert all(flat)
            assert in_order != math.fsum(flat)
            assert in_order != float(np.sum(flat))
            assert in_order != opponent_major
            pg = PlacedGroup.place(groups[0], tubes, s)
            assert price == oracle_group_collision(pg, opp, tubes)

    @SCHEDULER_CONFIGS
    def test_every_run_price_matches_group_collision(self, cfg, monkeypatch):
        tubes, _ = scheduling_corpus(seed=3, count=70)
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig())
        calls = []
        costs = _Opponents.costs

        def spy(self, pg, slots, starts):
            out = costs(self, pg, slots, starts)
            calls.append((pg.index, list(slots), list(starts), out))
            return out

        trace = SchedulerTrace()
        with monkeypatch.context() as m:
            m.setattr(_Opponents, "costs", spy)
            rearrange(groups, by_id, cfg, trace=trace)
        accepted = {e[1]: e[2] for e in trace.events if e[0] == "accept"}
        assert sum(len(starts) for _, _, starts, _ in calls if len(starts) > 1) > 100
        for gi, slots, starts, out in calls:
            assert out.shape == (len(starts), len(slots))
            for s, prices in zip(starts, out):
                pg = PlacedGroup.place(groups[gi], by_id, s)
                for oi, price in zip(slots, prices):
                    opp = PlacedGroup.place(groups[oi], by_id, accepted[oi])
                    assert price == group_collision(pg, opp, by_id)


# -- collision_area ---------------------------------------------------------------


class TestCollisionArea:
    @pytest.mark.parametrize("exclude", [False, True])
    def test_random_schedules(self, exclude):
        rng = np.random.default_rng(41)
        for _ in range(25):
            tubes = [jittery_tube(rng, i, 0, int(rng.integers(1, 140))) for i in range(1, 31)]
            sizes = []
            while sum(sizes) < len(tubes):
                sizes.append(min(int(rng.integers(1, 5)), len(tubes) - sum(sizes)))
            schedule = random_schedule(rng, tubes, sizes, span=200)
            by_id = {t.id: t for t in tubes}
            want = oracle_collision_area(schedule, by_id, exclude)
            assert collision_area(schedule, by_id, exclude_intra_group=exclude) == want

    @pytest.mark.parametrize("n", WINDOW_LENGTHS)
    def test_window_lengths(self, n):
        rng = np.random.default_rng(200 + n)
        tubes = [jittery_tube(rng, 1, 0, n + 4, spread=2), jittery_tube(rng, 2, 0, n, spread=2)]
        schedule = SynopsisSchedule(
            placements=(
                (TubeGroup(((1, 0),), 0), 0),
                (TubeGroup(((2, 0),), 0), 4),
            ),
            synopsis_length=n + 4,
        )
        by_id = {t.id: t for t in tubes}
        got = collision_area(schedule, by_id)
        assert got == oracle_collision_area(schedule, by_id)
        assert got > 0

    def test_touching_edges_count_nothing(self):
        a = Tube(1, "1", 0, [(0, 0, 10, 10)])
        b = Tube(2, "1", 0, [(10, 0, 10, 10)])
        schedule = SynopsisSchedule(
            placements=((TubeGroup(((1, 0),), 0), 0), (TubeGroup(((2, 0),), 0), 0)),
            synopsis_length=1,
        )
        assert collision_area(schedule, {1: a, 2: b}) == 0
