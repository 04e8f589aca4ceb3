"""
Greedy tube rescheduling
========================

Rearrange a crowd of synthetic tubes into a short synopsis timeline and
inspect how the greedy loop shifts groups, decays collision weights, and
re-estimates the entry frame from the box-count histogram.
"""

import numpy as np

from videosynopsis import (
    GroupingConfig,
    SchedulerConfig,
    Tube,
    VideoMeta,
    build_groups,
)
from videosynopsis.core import tube_placements
from videosynopsis.scheduler import (
    PlacedGroup,
    SchedulerTrace,
    box_count_histogram,
    rearrange,
)

meta = VideoMeta(width=512, height=512, frame_count=4000)
rng = np.random.default_rng(5)


def random_walk_tube(tid, length=90, size=30):
    start = int(rng.integers(0, meta.frame_count - length))
    x = int(rng.integers(0, meta.width - size))
    y = int(rng.integers(0, meta.height - size))
    coords = []
    for _ in range(length):
        coords.append((x, y, size, size))
        x = int(np.clip(x + rng.integers(-5, 6), 0, meta.width - size))
        y = int(np.clip(y + rng.integers(-5, 6), 0, meta.height - size))
    return Tube(id=tid, class_label="person", start=start, coords=coords)


tubes = sorted((random_walk_tube(tid) for tid in range(1, 61)), key=lambda t: t.start)
by_id = {t.id: t for t in tubes}

groups = build_groups(tubes, GroupingConfig(distance_threshold=120.0, collision_threshold=3.0))
print(f"{len(tubes)} tubes -> {len(groups)} groups")

config = SchedulerConfig(collision_threshold=0.08, decay_rate=0.9, batch_size=6)
trace = SchedulerTrace()
schedule = rearrange(groups, by_id, config, trace=trace)

shifts = sum(1 for e in trace.events if e[0] == "shift")
extends = sum(1 for e in trace.events if e[0] == "extend")
batches = [e[1] for e in trace.events if e[0] == "batch"]
print(f"synopsis length: {schedule.synopsis_length} frames "
      f"(source was {meta.frame_count})")
print(f"shifts: {shifts}, video-length extensions: {extends}")
print(f"batch entry frames: {batches}")

# The per-frame box counts show how densely the synopsis is packed; the
# entry frame for each batch comes from scanning this histogram.
placed = [
    PlacedGroup.place(group, by_id, start) for group, start in schedule.placements
]
histogram = box_count_histogram(placed)
step = max(1, len(histogram) // 16)
print("\nbox-count histogram (downsampled):")
for s in range(0, len(histogram), step):
    chunk = histogram[s : s + step]
    print(f"  frames {s:5d}-{s + len(chunk) - 1:5d}: {'#' * int(chunk.mean())}")

starts = tube_placements(schedule)
order_flips = sum(
    1
    for a in by_id
    for b in by_id
    if a < b and (by_id[a].start - by_id[b].start) * (starts[a] - starts[b]) < 0
)
print(f"\ntube pairs out of source order: {order_flips}")
