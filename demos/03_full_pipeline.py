"""
Full pipeline on a synthetic clip
=================================

Generate a tiny static-camera clip with two moving squares, then run every
stage end to end: extraction (with the empty-frame gate), grouping,
rescheduling, background generation, rendering, and scoring.  Outputs land
in demos/output/.
"""

from pathlib import Path

import numpy as np

from videosynopsis import (
    EmptyFrameConfig,
    GroupingConfig,
    SchedulerConfig,
    SegmentationConfig,
    VideoMeta,
    build_groups,
    generate_background,
    run_extraction,
    score_schedule,
)
from videosynopsis.frames import write_image
from videosynopsis.ingest import DetectionRecord
from videosynopsis.metrics import format_report
from videosynopsis.render import render_synopsis
from videosynopsis.scheduler import rearrange

OUT = Path(__file__).resolve().parent / "output" / "pipeline"
OUT.mkdir(parents=True, exist_ok=True)

WIDTH, HEIGHT, LENGTH = 160, 120, 300
meta = VideoMeta(width=WIDTH, height=HEIGHT, frame_count=LENGTH, fps=30)

# --- synthesize the source clip: textured background, two wandering squares
rng = np.random.default_rng(12)
plate = rng.integers(40, 90, size=(HEIGHT, WIDTH, 3)).astype(np.uint8)

paths = {
    1: [(8 + 2 * k, 30) for k in range(60)],          # frames 40-99
    2: [(120 - 2 * k, 70) for k in range(50)],        # frames 180-229
}
spans = {1: range(40, 100), 2: range(180, 230)}
colors = {1: (220, 60, 60), 2: (60, 90, 230)}

frames = []
truth = {}
for idx in range(LENGTH):
    frame = plate.copy()
    for tid, span in spans.items():
        if idx in span:
            x, y = paths[tid][idx - span.start]
            frame[y : y + 24, x : x + 16] = colors[tid]
            truth.setdefault(idx, []).append(
                DetectionRecord(id=tid, left=x, top=y, width=16, height=24, class_label="square")
            )
    frames.append(frame)


def detector(index, pixels):
    return truth.get(index, [])


# --- stage 1: extraction with the cheap empty-frame gate
gate = EmptyFrameConfig(
    binary_threshold=30,
    min_contour_area=150,
    max_contour_area=5000,
    aspect_ratio_range=(0.8, 4.0),
    background_refresh_period=40,
)
result = run_extraction(frames, detector, gate, meta)
print(f"extracted {len(result.tubes)} tubes; "
      f"detector queried {result.detector_queries}/{LENGTH} frames; "
      f"{result.empty_mode_frames} frames handled by the empty-frame gate")

# --- stage 2: grouping + greedy rescheduling
groups = build_groups(result.tubes, GroupingConfig(100.0, 3.0))
schedule = rearrange(
    groups,
    {t.id: t for t in result.tubes},
    SchedulerConfig(collision_threshold=0.05, decay_rate=0.9),
)
print(f"{len(groups)} groups -> synopsis of {schedule.synopsis_length} frames")

# --- stage 3: background + rendering
background = generate_background(result.store)
write_image(OUT / "background.ppm", background)
for item in render_synopsis(
    schedule, {t.id: t for t in result.tubes}, frames, background, SegmentationConfig()
):
    write_image(OUT / f"frame_{item.index:04d}.ppm", item.pixels)
print(f"wrote {schedule.synopsis_length} synopsis frames to {OUT}")

# --- stage 4: scoring
report = score_schedule(schedule, result.tubes, meta)
print()
print(format_report(report))
