"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; each criterion also stands alone as a pytest test.
"""

import json
import time
import warnings

import numpy as np
import pytest

from videosynopsis.core import VideoMeta
from videosynopsis.grouping import GroupingConfig, build_groups, weight_f
from videosynopsis.ingest import (
    BackgroundSampleStore,
    DetectionRecord,
    EmptyFrameConfig,
    median_background,
    run_extraction,
)
from videosynopsis.metrics import (
    chronological_disorder_ratio,
    collision_area,
    dataset_stats,
    missed_object_rate,
    normalized_fr,
    score_schedule,
)
from videosynopsis.render import SegmentationConfig, generate_background, segment
from videosynopsis.scheduler import (
    PlacedGroup,
    SchedulerConfig,
    SchedulerTrace,
    group_collision,
    rearrange,
    schedule_to_dict,
)

from oracles import center_distance, common_frames, iom
from synth import draw_blob, flat_frame, random_instance, scheduling_corpus
from test_metrics import brute_force_ca, brute_force_cdr, singleton_schedule


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return scheduling_corpus(seed=7, count=200)


@pytest.fixture(scope="module")
def corpus_groups(corpus):
    tubes, _ = corpus
    return build_groups(tubes, GroupingConfig(distance_threshold=120.0, collision_threshold=3.0))


# --- published table values the NFR identity is checked against -------------

COVERAGE = {1: 0.58, 2: 0.76, 3: 0.41, 4: 0.93, 5: 0.62, 6: 0.29}
DENSITY_PERCENT = {1: 2.90, 2: 2.34, 3: 0.93, 4: 3.59, 5: 3.57, 6: 0.15}
FR_BY_LEVEL = {
    2: {1: 0.566, 2: 0.404, 3: 0.388, 4: 0.551, 5: 0.680, 6: 0.065},
    4: {1: 0.419, 2: 0.368, 3: 0.306, 4: 0.410, 5: 0.550, 6: 0.054},
    6: {1: 0.372, 2: 0.273, 3: 0.242, 4: 0.345, 5: 0.365, 6: 0.047},
    8: {1: 0.312, 2: 0.225, 3: 0.201, 4: 0.321, 5: 0.335, 6: 0.046},
    10: {1: 0.278, 2: 0.188, 3: 0.178, 4: 0.298, 5: 0.322, 6: 0.045},
}
NFR_TARGET = {2: 0.133, 4: 0.105, 6: 0.085, 8: 0.075, 10: 0.069}


def test_criterion_1_nfr_table_reproduction():
    started = time.perf_counter()
    deviations = {}
    for level, frs in FR_BY_LEVEL.items():
        values = [
            normalized_fr(frs[v], COVERAGE[v], DENSITY_PERCENT[v] / 100.0)
            for v in range(1, 7)
        ]
        average = sum(values) / 6
        # compare at the published column's precision, in exact thousandths
        deviations[level] = abs(round(average * 1000) - round(NFR_TARGET[level] * 1000))
    elapsed = time.perf_counter() - started
    ok = all(d <= 2 for d in deviations.values()) and elapsed < 1.0
    detail = (
        "per-level deviation "
        + ", ".join(f"{lvl}%:0.{d:03d}" for lvl, d in deviations.items())
        + f"; {elapsed:.3f}s"
    )
    verdict(1, "NFR table reproduction", ok, detail)


def _scalar_linked(t1, t2, cfg: GroupingConfig) -> bool:
    """Per-frame scalar-loop link predicate, independent of the array path."""
    frames = sorted(common_frames(t1, t2))
    by1 = {b.frame: b for b in t1.boxes}
    by2 = {b.frame: b for b in t2.boxes}
    collision = sum(iom(by1[f], by2[f]) for f in frames)
    if collision > cfg.collision_threshold:
        return True
    if not frames:
        return False
    distance = sum(center_distance(by1[f], by2[f]) for f in frames) / len(frames)
    weight = weight_f(len(frames) / min(t1.length, t2.length))
    return distance * weight < cfg.distance_threshold


def _union_find_components(ids, links):
    """Brute-force union-find over an explicit link list (no rank, no path)."""
    parent = {tid: tid for tid in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = {}
    for tid in ids:
        components.setdefault(find(tid), set()).add(tid)
    return sorted((frozenset(c) for c in components.values()), key=min)


def test_criterion_2_grouping_oracle_equivalence():
    started = time.perf_counter()
    meta = VideoMeta(width=512, height=512, frame_count=400)
    cfg = GroupingConfig(distance_threshold=120.0, collision_threshold=3.0)
    rng = np.random.default_rng(2024)
    instances = 1000
    agreements = 0
    for _ in range(instances):
        n = int(rng.integers(2, 51))
        tubes = random_instance(rng, n, meta, size_range=(10, 40))
        links = [
            (tubes[i].id, tubes[j].id)
            for i in range(len(tubes))
            for j in range(i + 1, len(tubes))
            if _scalar_linked(tubes[i], tubes[j], cfg)
        ]
        expected = _union_find_components([t.id for t in tubes], links)
        got = sorted(
            (frozenset(g.tube_ids) for g in build_groups(tubes, cfg)), key=min
        )
        agreements += got == expected
    elapsed = time.perf_counter() - started
    ok = agreements == instances and elapsed < 60.0
    verdict(
        2,
        "grouping oracle equivalence",
        ok,
        f"{agreements}/{instances} agree; {elapsed:.1f}s",
    )


def test_criterion_3_scheduler_feasibility_and_fidelity():
    started = time.perf_counter()
    meta = VideoMeta(width=512, height=512, frame_count=600)
    rng = np.random.default_rng(33)
    cfg = SchedulerConfig(collision_threshold=0.12, decay_rate=0.7, batch_size=5)
    instances = 200
    checked_pairs = 0
    for _ in range(instances):
        tubes = random_instance(rng, int(rng.integers(2, 31)), meta, size_range=(12, 44))
        by_id = {t.id: t for t in tubes}
        groups = build_groups(tubes, GroupingConfig(130.0, 2.5))
        assert len(groups) <= 30
        trace = SchedulerTrace()
        schedule = rearrange(groups, by_id, cfg, trace=trace)

        # recorded acceptance-time weighted collision under the threshold
        final_start = {
            gi: s for kind, gi, s, _ in (e for e in trace.events if e[0] == "accept")
        }
        for gi, oi, cost, weight, start_at_check in trace.checks:
            checked_pairs += 1
            assert cost * weight <= cfg.collision_threshold + 1e-12
            a = PlacedGroup.place(groups[gi], by_id, start_at_check)
            b = PlacedGroup.place(groups[oi], by_id, final_start[oi])
            assert group_collision(a, b, by_id) == pytest.approx(cost)

        # intra-group offsets preserved exactly
        starts = {}
        for group, s in schedule.placements:
            for tid, off in group.members:
                starts[tid] = s + off
                assert starts[tid] - s == off

        # byte-exact determinism
        again = rearrange(groups, by_id, cfg)
        assert json.dumps(schedule_to_dict(schedule), sort_keys=True) == json.dumps(
            schedule_to_dict(again), sort_keys=True
        )

    # hand-simulated two-group trace of the greedy loop (step 3, decay 0.5)
    from synth import make_tube

    t1 = make_tube(1, 0, [0] * 10, [0] * 10)
    t2 = make_tube(2, 20, [0] * 10, [0] * 10)
    from videosynopsis.core import TubeGroup

    groups = [
        TubeGroup(members=((1, 0),), source_start=0),
        TubeGroup(members=((2, 0),), source_start=20),
    ]
    trace = SchedulerTrace()
    hand_cfg = SchedulerConfig(collision_threshold=0.3, decay_rate=0.5, shift_step=3)
    rearrange(groups, {1: t1, 2: t2}, hand_cfg, trace=trace)
    hand_expected = [
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
    trace_ok = trace.events == hand_expected

    elapsed = time.perf_counter() - started
    ok = trace_ok and elapsed < 120.0
    verdict(
        3,
        "scheduler feasibility & fidelity",
        ok,
        f"{instances} instances, {checked_pairs} recorded checks, "
        f"hand trace {'matched' if trace_ok else 'diverged'}; {elapsed:.1f}s",
    )


def test_criterion_4_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    meta = VideoMeta(width=512, height=512, frame_count=1000)
    ca_checked = cdr_checked = 0
    for _ in range(25):
        tubes = random_instance(rng, int(rng.integers(2, 11)), meta, length=25)
        by_id = {t.id: t for t in tubes}
        starts = {t.id: int(rng.integers(0, 400)) for t in tubes}
        schedule = singleton_schedule(tubes, starts)
        assert schedule.synopsis_length <= 500
        assert collision_area(schedule, by_id) == brute_force_ca(schedule, by_id)
        ca_checked += 1
        got = chronological_disorder_ratio(schedule, by_id)
        assert got == pytest.approx(brute_force_cdr(schedule, by_id))
        cdr_checked += 1

    bitmap_meta = VideoMeta(width=64, height=64, frame_count=60)
    coverage_checked = 0
    for _ in range(10):
        tubes = random_instance(rng, 6, bitmap_meta, length=10, size_range=(4, 16))
        _, coverage, _ = dataset_stats(tubes, bitmap_meta)
        bitmap = np.zeros((64, 64), dtype=bool)
        for tube in tubes:
            for box in tube.boxes:
                for y in range(box.top, box.bottom):
                    for x in range(box.left, box.right):
                        bitmap[y, x] = True
        assert coverage == pytest.approx(bitmap.sum() / 4096)
        coverage_checked += 1

    elapsed = time.perf_counter() - started
    verdict(
        4,
        "metric oracles (CA, CDR, coverage)",
        True,
        f"{ca_checked} CA, {cdr_checked} CDR, {coverage_checked} coverage "
        f"instances agree; {elapsed:.1f}s",
    )


def test_criterion_5_empty_frame_detector_behavior():
    started = time.perf_counter()
    width, height, total = 160, 120, 2000
    meta = VideoMeta(width, height, total)
    cfg = EmptyFrameConfig(
        binary_threshold=30,
        min_contour_area=800,
        max_contour_area=8000,
        aspect_ratio_range=(1.2, 4.0),
        background_refresh_period=150,
    )
    object_frames = set(range(300, 400)) | set(range(1400, 1500))  # 10%
    base = flat_frame(width, height, value=60)

    def frames():
        for idx in range(total):
            if idx in object_frames:
                yield draw_blob(base, 10 + idx % 100, 20, 30, 60, value=200)
            else:
                yield base

    queries = [0]

    def source(idx, pixels):
        queries[0] += 1
        if idx in object_frames:
            tid = 1 if idx < 1000 else 2
            return [DetectionRecord(id=tid, left=10 + idx % 100, top=20, width=30, height=60)]
        return []

    result = run_extraction(frames(), source, cfg, meta)
    missed = sum(1 for r in result.log if not r.queried and r.frame in object_frames)
    mor = missed_object_rate(len(object_frames), missed)
    query_share = queries[0] / total
    elapsed = time.perf_counter() - started
    ok = query_share < 0.25 and mor < 0.01 and elapsed < 60.0
    verdict(
        5,
        "empty-frame detector behavior",
        ok,
        f"queried {queries[0]}/{total} frames ({query_share:.1%}), "
        f"MOR {mor:.2%}; {elapsed:.1f}s",
    )


def test_criterion_6_segmentation_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    cfg = SegmentationConfig()
    cases = 500
    recovered = 0
    for case in range(cases):
        size = 40
        bg_value = int(rng.integers(20, 160))
        obj_value = int((bg_value + rng.integers(90, 160)) % 256)
        w = int(rng.integers(16, 29))
        h = max(int(rng.integers(16, 29)) & ~1, 16)
        two_tone = case % 2 == 1
        y_cap = size - (3 * h) // 2 - 1 if two_tone else size - h - 2
        x = int(rng.integers(2, size - w - 1))
        y = int(rng.integers(2, max(3, y_cap)))

        background = np.full((size, size, 3), bg_value, np.uint8)
        crop = background.copy()
        truth = np.zeros((size, size), bool)
        truth[y : y + h, x : x + w] = True
        previous = None
        if two_tone:
            # lower half matches the background; the object moved up by h/2
            crop[y : y + h // 2, x : x + w] = obj_value
            crop[y + h // 2 : y + h, x : x + w] = bg_value
            previous = background.copy()
            previous[y + h // 2 : y + h, x : x + w] = obj_value
            previous[y + h : y + (3 * h) // 2, x : x + w] = bg_value
        else:
            crop[y : y + h, x : x + w] = obj_value

        mask = segment(crop, background, previous, cfg)
        assert mask.pixels.shape == crop.shape[:2]  # mask never exceeds the box
        overlap = (mask.pixels & truth).sum() / (mask.pixels | truth).sum()
        recovered += overlap >= 0.9
    elapsed = time.perf_counter() - started
    ok = recovered >= 0.95 * cases and elapsed < 60.0
    verdict(
        6,
        "segmentation recovery",
        ok,
        f"IoU >= 0.9 in {recovered}/{cases} cases; {elapsed:.1f}s",
    )


def test_criterion_7_background_median_bit_exact():
    rng = np.random.default_rng(77)
    trials = 20
    for _ in range(trials):
        plate = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
        store = BackgroundSampleStore(capacity=10)
        corrupt = rng.permutation(10)[:4]  # every pixel clean in >= 6 samples
        for k in range(10):
            if k in corrupt:
                sample = plate.copy()
                region = (slice(int(k) % 12, int(k) % 12 + 10), slice(0, 20))
                sample[region] = rng.integers(0, 256, size=(10, 20, 3), dtype=np.uint8)
                if k % 2 == 0:
                    validity = np.ones((24, 32), dtype=bool)
                    validity[region] = False
                    store.push(sample, validity)
                else:
                    store.push(sample)
            else:
                store.push(plate.copy())
        recovered = generate_background(store)
        assert recovered.dtype == plate.dtype
        assert np.array_equal(recovered, plate)
    assert np.array_equal(
        median_background(store), generate_background(store)
    )
    verdict(
        7,
        "background median recovery",
        True,
        f"{trials} random plates recovered bit-exactly with 6/10 clean samples",
    )


def test_criterion_8_compression_cdr_trend(corpus, corpus_groups):
    started = time.perf_counter()
    tubes, meta = corpus
    by_id = {t.id: t for t in tubes}
    thresholds = [0.02, 0.05, 0.1, 0.2, 0.4, 0.8]
    frs, cdrs = [], []
    for threshold in thresholds:
        cfg = SchedulerConfig(collision_threshold=threshold, decay_rate=0.9)
        schedule = rearrange(corpus_groups, by_id, cfg)
        report = score_schedule(schedule, tubes, meta)
        frs.append(report.fr)
        cdrs.append(report.cdr)
    non_increasing = sum(b <= a for a, b in zip(frs, frs[1:]))
    elapsed = time.perf_counter() - started
    ok = non_increasing >= 4 and all(c < 0.5 for c in cdrs) and elapsed < 300.0
    verdict(
        8,
        "compression/CDR trend",
        ok,
        f"FR {['%.3f' % v for v in frs]} non-increasing in {non_increasing}/5 steps, "
        f"max CDR {max(cdrs):.3f}; {elapsed:.1f}s",
    )


def test_criterion_9_throughput_smoke(corpus, corpus_groups):
    tubes, _ = corpus
    by_id = {t.id: t for t in tubes}
    cfg = SchedulerConfig(collision_threshold=0.1, decay_rate=0.9)
    started = time.perf_counter()
    rearrange(corpus_groups, by_id, cfg)
    elapsed = time.perf_counter() - started
    tps = len(tubes) / elapsed
    if tps < 5.0:
        warnings.warn(
            f"scheduler throughput {tps:.1f} tubes/s below the 5 TPS target "
            "on this machine",
            stacklevel=1,
        )
    verdict(
        9,
        "throughput smoke test",
        True,
        f"{tps:.0f} tubes/s over {len(tubes)} tubes"
        + (" [warning: below 5 TPS]" if tps < 5.0 else ""),
    )
