"""
Collision threshold sweep
=========================

Trade compression against collisions: rearrange one synthetic corpus at a
ladder of collision thresholds and tabulate condensation ratio, collision
level, and chronological disorder at each point.
"""

import time

import numpy as np

from videosynopsis import (
    GroupingConfig,
    SchedulerConfig,
    Tube,
    VideoMeta,
    build_groups,
)
from videosynopsis.metrics import format_sweep_table, score_schedule
from videosynopsis.scheduler import rearrange

meta = VideoMeta(width=512, height=512, frame_count=8000)
rng = np.random.default_rng(7)


def corpus(count=200):
    """Random-walk tubes; a quarter spawn beside an earlier tube."""
    tubes = []
    for tid in range(1, count + 1):
        length = int(rng.integers(60, 180))
        start = int(rng.integers(0, meta.frame_count - length))
        if tubes and rng.random() < 0.25:
            other = tubes[int(rng.integers(0, len(tubes)))]
            start = min(max(0, other.start + int(rng.integers(-20, 21))),
                        meta.frame_count - length)
        size = int(rng.integers(20, 44))
        x = int(rng.integers(0, meta.width - size))
        y = int(rng.integers(0, meta.height - size))
        coords = []
        for _ in range(length):
            coords.append((x, y, size, size))
            x = int(np.clip(x + rng.integers(-4, 5), 0, meta.width - size))
            y = int(np.clip(y + rng.integers(-4, 5), 0, meta.height - size))
        tubes.append(Tube(id=tid, class_label="1", start=start, coords=coords))
    tubes.sort(key=lambda t: (t.start, t.id))
    return tubes


tubes = corpus()
by_id = {t.id: t for t in tubes}
groups = build_groups(tubes, GroupingConfig(distance_threshold=120.0, collision_threshold=3.0))
print(f"corpus: {len(tubes)} tubes over {meta.frame_count} source frames, "
      f"{len(groups)} groups\n")

rows = []
for threshold in (0.02, 0.05, 0.1, 0.2, 0.4):
    cfg = SchedulerConfig(collision_threshold=threshold, decay_rate=0.9)
    started = time.perf_counter()
    schedule = rearrange(groups, by_id, cfg)
    elapsed = time.perf_counter() - started
    report = score_schedule(schedule, tubes, meta)
    rows.append((threshold, report))
    print(f"threshold {threshold}: {len(tubes) / elapsed:6.0f} tubes/s, "
          f"synopsis {schedule.synopsis_length} frames")

print()
print(format_sweep_table(rows))
print("\nlooser thresholds allow more overlap and buy shorter synopses;")
print("chronological disorder stays roughly flat across the sweep.")
