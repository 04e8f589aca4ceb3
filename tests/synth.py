"""Synthetic tubes, frames, and corpora used across the test suite."""

from __future__ import annotations

import numpy as np

from videosynopsis.core import BoundingBox, Tube, VideoMeta


def box(frame: int, left: int, top: int, width: int = 10, height: int = 10) -> BoundingBox:
    return BoundingBox(frame=frame, left=left, top=top, width=width, height=height)


def make_tube(tid, start, lefts, tops, width=10, height=10, label="1"):
    """Gapless tube from per-frame left/top coordinate lists."""
    coords = [(int(l), int(t), width, height) for l, t in zip(lefts, tops)]
    return Tube(id=tid, class_label=label, start=start, coords=coords)


def random_walk_tube(
    rng: np.random.Generator,
    tid: int,
    meta: VideoMeta,
    start: int | None = None,
    length: int | None = None,
    size_range: tuple[int, int] = (12, 48),
    step: int = 6,
) -> Tube:
    """Gapless random-walk tube fully inside the frame."""
    if length is None:
        length = int(rng.integers(8, 64))
    if start is None:
        start = int(rng.integers(0, max(1, meta.frame_count - length)))
    w = int(rng.integers(size_range[0], size_range[1] + 1))
    h = int(rng.integers(size_range[0], size_range[1] + 1))
    x = int(rng.integers(0, meta.width - w))
    y = int(rng.integers(0, meta.height - h))
    coords = []
    for _ in range(length):
        coords.append((x, y, w, h))
        x = min(max(x + int(rng.integers(-step, step + 1)), 0), meta.width - w)
        y = min(max(y + int(rng.integers(-step, step + 1)), 0), meta.height - h)
    return Tube(id=tid, class_label="1", start=start, coords=coords)


def random_instance(
    rng: np.random.Generator,
    count: int,
    meta: VideoMeta,
    **kwargs,
) -> list[Tube]:
    tubes = [random_walk_tube(rng, tid, meta, **kwargs) for tid in range(1, count + 1)]
    tubes.sort(key=lambda t: (t.start, t.id))
    return tubes


def scheduling_corpus(seed: int = 7, count: int = 200) -> tuple[list[Tube], VideoMeta]:
    """Fixed synthetic corpus for compression-trend and throughput checks.

    Tubes are random walks spread over a long source video, with a share of
    them deliberately spawned next to an earlier tube to create related
    pairs for the grouping stage.
    """
    rng = np.random.default_rng(seed)
    meta = VideoMeta(width=512, height=512, frame_count=8000, fps=30.0)
    tubes: list[Tube] = []
    for tid in range(1, count + 1):
        length = int(rng.integers(60, 180))
        start = int(rng.integers(0, meta.frame_count - length))
        if tubes and rng.random() < 0.25:
            # companion tube: overlap an earlier tube's interval and area
            other = tubes[int(rng.integers(0, len(tubes)))]
            start = min(max(0, other.start + int(rng.integers(-20, 21))),
                        meta.frame_count - length)
        tube = random_walk_tube(
            rng, tid, meta, start=start, length=length, size_range=(20, 44), step=4
        )
        tubes.append(tube)
    tubes.sort(key=lambda t: (t.start, t.id))
    return tubes, meta


def flat_frame(width: int, height: int, value: int = 100) -> np.ndarray:
    return np.full((height, width, 3), value, dtype=np.uint8)


def draw_blob(frame: np.ndarray, left: int, top: int, width: int, height: int, value: int) -> np.ndarray:
    out = frame.copy()
    out[top : top + height, left : left + width] = value
    return out
