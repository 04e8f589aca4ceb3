"""Tube loading and the frame-extraction controller.

Detections arrive from annotation files (MOT-challenge style CSV) or from a
per-frame detector callback.  The extraction controller consumes frames in
order, switching between the expensive detection source and a cheap
empty-frame check whenever the scene goes quiet, and collects background
samples for the renderer along the way.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .core import Tube, VideoMeta
from .pixelops import binary_open, channel_mean_absdiff, component_slices

__all__ = [
    "AnnotationError",
    "DetectionRecord",
    "EmptyFrameConfig",
    "BackgroundSampleStore",
    "FileDetectionSource",
    "FrameRecord",
    "ExtractionResult",
    "parse_annotations",
    "serialize_annotations",
    "fill_gaps",
    "median_background",
    "is_frame_empty",
    "run_extraction",
]


class AnnotationError(ValueError):
    """Malformed or inconsistent annotation input."""


@dataclass(frozen=True)
class DetectionRecord:
    """One parsed annotation row.  ``frame`` is 1-based as in the file."""

    frame: int
    id: int
    left: int
    top: int
    width: int
    height: int
    confidence: float = 1.0
    class_label: str = ""
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise AnnotationError(f"record frame {self.frame} must be >= 1")


@dataclass(frozen=True)
class EmptyFrameConfig:
    """Tuning for the classical-CV empty-frame gate.

    Area gates and the aspect window should be scaled from the expected
    object size of the scene; the defaults suit pedestrian-scale objects.
    """

    fifo_capacity: int = 10
    binary_threshold: int = 30
    min_contour_area: int = 400
    max_contour_area: int = 200_000
    aspect_ratio_range: tuple[float, float] = (0.5, 5.0)
    background_refresh_period: int = 150
    morphology_kernel: int = 2

    def __post_init__(self) -> None:
        if self.fifo_capacity < 3:
            raise ValueError("fifo_capacity must be >= 3")
        if self.binary_threshold <= 0:
            raise ValueError("binary_threshold must be positive")
        if not 0 < self.min_contour_area < self.max_contour_area:
            raise ValueError("contour area gates must satisfy 0 < min < max")
        lo, hi = self.aspect_ratio_range
        if not 0 < lo < hi:
            raise ValueError("aspect ratio range must satisfy 0 < low < high")
        if self.background_refresh_period < 1:
            raise ValueError("background_refresh_period must be >= 1")
        if self.morphology_kernel < 0:
            raise ValueError("morphology_kernel must be >= 0")


class BackgroundSampleStore:
    """FIFO of full-resolution background samples; oldest evicted first.

    Each sample may carry a per-pixel validity mask marking pixels that were
    covered by detected objects as invalid.
    """

    def __init__(self, capacity: int = 10):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._samples: deque[tuple[np.ndarray, np.ndarray | None]] = deque(maxlen=capacity)

    def push(self, pixels: np.ndarray, validity: np.ndarray | None = None) -> None:
        if validity is not None and validity.shape != pixels.shape[:2]:
            raise ValueError("validity mask must match the pixel grid")
        self._samples.append((pixels, validity))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        return list(self._samples)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


_Row = tuple[int, int, int, int, int, int, int, float, str, float]


def _parse_rows(stream: Iterable[str]) -> list[_Row]:
    """Parse CSV rows into ``(line, frame, id, left, top, width, height,
    confidence, label, visibility)`` tuples, checking every field."""
    rows: list[_Row] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if not 6 <= len(fields) <= 9:
            raise AnnotationError(
                f"line {lineno}: expected 6 to 9 comma-separated fields, got {len(fields)}"
            )
        try:
            frame = int(float(fields[0]))
            track_id = int(float(fields[1]))
            left, top, width, height = (_round_half_up(float(v)) for v in fields[2:6])
            conf = float(fields[6]) if len(fields) > 6 and fields[6] != "" else 1.0
            vis = float(fields[8]) if len(fields) > 8 and fields[8] != "" else 1.0
        except (ValueError, OverflowError) as exc:
            # OverflowError: an infinite value reached int()
            raise AnnotationError(f"line {lineno}: non-numeric field ({exc})") from None
        # ground-truth files abuse the confidence column as a flag or raw
        # detector score; fold it into [0, 1]
        conf = min(max(conf, 0.0), 1.0)
        label = fields[7] if len(fields) > 7 else ""
        key = (frame, track_id)
        if key in seen:
            raise AnnotationError(
                f"line {lineno}: duplicate record for frame {frame}, id {track_id} "
                f"(first seen on line {seen[key]})"
            )
        seen[key] = lineno
        if frame < 1:
            raise AnnotationError(f"line {lineno}: record frame {frame} must be >= 1")
        rows.append((lineno, frame, track_id, left, top, width, height, conf, label, vis))
    return rows


def _clamp(coords: np.ndarray, meta: VideoMeta) -> tuple[np.ndarray, np.ndarray]:
    """``(left, top, width, height)`` rows cut to the frame, and the mask of
    rows with nothing left inside."""
    x0 = np.maximum(coords[:, 0], 0)
    y0 = np.maximum(coords[:, 1], 0)
    x1 = np.minimum(coords[:, 0] + coords[:, 2], meta.width)
    y1 = np.minimum(coords[:, 1] + coords[:, 3], meta.height)
    return np.stack([x0, y0, x1 - x0, y1 - y0], axis=1), (x1 <= x0) | (y1 <= y0)


def fill_gaps(frames: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """One ``(left, top, width, height)`` row per frame from ``frames[0]`` to
    ``frames[-1]``.

    ``frames`` is strictly increasing and ``coords`` holds its rows.  Each
    missing frame gets every coordinate interpolated linearly between the
    known rows around it and rounded half up, with the same float operations
    as ``math.floor(prev + (nxt - prev) * (k / gap) + 0.5)``.
    """
    if (np.diff(frames) <= 0).any():
        raise ValueError("tube frames must be strictly increasing")
    span = int(frames[-1] - frames[0]) + 1
    if span == len(frames):
        return coords
    out = np.empty((span, 4), dtype=np.int64)
    out[frames - frames[0]] = coords
    missing = np.ones(span, dtype=bool)
    missing[frames - frames[0]] = False
    at = np.flatnonzero(missing) + frames[0]
    i = np.searchsorted(frames, at) - 1
    prev, nxt = coords[i], coords[i + 1]
    f = ((at - frames[i]) / (frames[i + 1] - frames[i]))[:, None]
    out[missing] = np.floor(prev + (nxt - prev) * f + 0.5)
    return out


def parse_annotations(stream: Iterable[str], meta: VideoMeta) -> list[Tube]:
    """Load tubes from an annotation stream.

    Records are bucketed by id and sorted by frame; frame gaps inside a tube
    are filled by linear interpolation; boxes are clamped to the frame and a
    box fully outside the frame is rejected.  Frames are converted from the
    file's 1-based convention to 0-based.  Tubes come back sorted by source
    start frame.
    """
    by_id: dict[int, tuple[str, list[int], list[int], list[tuple[int, int, int, int]]]] = {}
    for lineno, frame, tid, left, top, width, height, _, label, _ in _parse_rows(stream):
        entry = by_id.get(tid)
        if entry is None:
            entry = by_id[tid] = (label, [], [], [])
        entry[1].append(lineno)
        entry[2].append(frame)
        entry[3].append((left, top, width, height))

    tubes: list[Tube] = []
    for tid, (label, linenos, frames, boxes) in by_id.items():
        try:
            index = np.array(frames, dtype=np.int64) - 1
            raw = np.array(boxes, dtype=np.int64)
        except OverflowError:
            bad = next(
                k for k, (frame, box) in enumerate(zip(frames, boxes))
                if not all(-(1 << 63) <= v < 1 << 63 for v in (frame, *box))
            )
            raise AnnotationError(
                f"line {linenos[bad]}: a record for id {tid} has a value beyond 64 bits"
            ) from None
        order = np.argsort(index, kind="stable")
        coords, outside = _clamp(raw[order], meta)
        if outside.any():
            raise AnnotationError(
                f"line {linenos[order[np.argmax(outside)]]}: box for id {tid} lies fully "
                f"outside the {meta.width}x{meta.height} frame"
            )
        index = index[order]
        tubes.append(Tube(tid, label, int(index[0]), fill_gaps(index, coords)))
    tubes.sort(key=lambda t: (t.start, t.id))
    return tubes


def serialize_annotations(tubes: Iterable[Tube], stream: IO[str]) -> None:
    """Write tubes back out in the annotation CSV layout (1-based frames)."""
    rows = []
    for tube in tubes:
        for frame, (left, top, width, height) in enumerate(tube.coords.tolist(), tube.start + 1):
            rows.append((frame, tube.id, left, top, width, height, tube.class_label))
    rows.sort(key=lambda r: (r[0], r[1]))
    stream.writelines(
        f"{frame},{tid},{left},{top},{width},{height},1,{label},1\n"
        for frame, tid, left, top, width, height, label in rows
    )


def _plain_median(values: np.ndarray) -> np.ndarray:
    """Median along axis 0; even counts take the floor-mean of the middles."""
    s = np.sort(values, axis=0)
    n = s.shape[0]
    lo = s[(n - 1) // 2]
    hi = s[n // 2]
    return (lo.astype(np.int32) + hi.astype(np.int32)) // 2


def median_background(store: BackgroundSampleStore) -> np.ndarray:
    """Per-pixel, per-channel median over the stored samples.

    Pixels marked invalid by a sample's validity mask are left out of that
    pixel's median; a pixel valid in no sample falls back to the median over
    all samples.
    """
    if len(store) == 0:
        raise ValueError("background sample store is empty")
    samples = store.samples
    pixels = np.stack([p for p, _ in samples])
    if all(v is None for _, v in samples):
        return _plain_median(pixels).astype(pixels.dtype)

    grid = pixels.shape[1:3]
    valid = np.stack(
        [np.ones(grid, dtype=bool) if v is None else v.astype(bool) for _, v in samples]
    )
    work = pixels.astype(np.int32)
    expand = valid if work.ndim == 3 else valid[..., None]
    # Push invalid entries past any real value so they sort to the top.
    sentinel = np.where(expand, work, np.int32(1 << 20))
    ordered = np.sort(sentinel, axis=0)
    counts = valid.sum(axis=0)
    safe = np.maximum(counts, 1)
    lo_idx = (safe - 1) // 2
    hi_idx = safe // 2
    if work.ndim == 4:
        lo_idx = lo_idx[..., None]
        hi_idx = hi_idx[..., None]
    lo = np.take_along_axis(ordered, lo_idx[None], axis=0)[0]
    hi = np.take_along_axis(ordered, hi_idx[None], axis=0)[0]
    result = (lo + hi) // 2
    fallback = _plain_median(pixels)
    never_valid = counts == 0
    if work.ndim == 4:
        never_valid = never_valid[..., None]
    return np.where(never_valid, fallback, result).astype(pixels.dtype)


def is_frame_empty(frame: np.ndarray, background: np.ndarray, cfg: EmptyFrameConfig) -> bool:
    """Decide whether a frame contains any object-sized foreground blob.

    Pipeline: channel-averaged absolute difference against the background,
    binarize, morphological open, connected components; the frame is
    non-empty iff some component's bounding area and height/width ratio both
    sit inside the configured gates.
    """
    diff = channel_mean_absdiff(frame, background)
    binary = binary_open(diff > cfg.binary_threshold, cfg.morphology_kernel)
    lo, hi = cfg.aspect_ratio_range
    for rows, cols in component_slices(binary):
        h = rows.stop - rows.start
        w = cols.stop - cols.start
        area = h * w
        if cfg.min_contour_area <= area <= cfg.max_contour_area and lo <= h / w <= hi:
            return False
    return True


DetectionSource = Callable[[int, np.ndarray], Sequence[DetectionRecord]]


class FileDetectionSource:
    """Per-frame detection queries answered from a parsed annotation stream."""

    def __init__(self, stream: Iterable[str]):
        self._by_frame: dict[int, list[DetectionRecord]] = {}
        for row in _parse_rows(stream):
            self._by_frame.setdefault(row[1] - 1, []).append(DetectionRecord(*row[1:]))

    def __call__(self, frame_index: int, pixels: np.ndarray) -> Sequence[DetectionRecord]:
        return self._by_frame.get(frame_index, [])


@dataclass(frozen=True)
class FrameRecord:
    """One line of the extraction log."""

    frame: int
    mode: str  # "deep" or "empty"
    queried: bool
    judged_empty: bool


@dataclass
class ExtractionResult:
    tubes: list[Tube]
    store: BackgroundSampleStore
    log: list[FrameRecord] = field(default_factory=list)

    @property
    def detector_queries(self) -> int:
        return sum(1 for r in self.log if r.queried)

    @property
    def mode_switches(self) -> int:
        switches = 0
        for prev, cur in zip(self.log, self.log[1:]):
            if prev.mode != cur.mode:
                switches += 1
        return switches

    @property
    def empty_mode_frames(self) -> int:
        return sum(1 for r in self.log if r.mode == "empty")


def run_extraction(
    frames: Iterable[np.ndarray],
    detections: DetectionSource,
    cfg: EmptyFrameConfig,
    meta: VideoMeta,
) -> ExtractionResult:
    """Drive the deep/empty switching controller over a frame stream.

    In deep mode every frame is passed to the detection source; the first
    frame reported object-free is stored as a background sample and flips
    the controller to empty mode.  There the cheap empty-frame check runs
    instead, refreshing the median background and the sample FIFO on a fixed
    period, until a frame looks occupied, which flips the controller back to
    deep mode at that same frame.  Deep mode also contributes object-masked
    background samples on the same period.  Every detection is clamped to
    ``meta``'s frame; one lying fully outside it is an ``AnnotationError``.
    """
    store = BackgroundSampleStore(cfg.fifo_capacity)
    log: list[FrameRecord] = []
    collected: dict[int, tuple[str, list[int], list[np.ndarray]]] = {}
    background: np.ndarray | None = None
    deep = True
    empty_tick = 0
    deep_tick = 0

    for idx, frame in enumerate(frames):
        if not deep:
            assert background is not None
            if is_frame_empty(frame, background, cfg):
                empty_tick += 1
                if empty_tick >= cfg.background_refresh_period:
                    store.push(frame.copy())
                    background = median_background(store)
                    empty_tick = 0
                log.append(FrameRecord(idx, "empty", queried=False, judged_empty=True))
                continue
            deep = True
            deep_tick = 0

        records = detections(idx, frame)
        if len(records) == 0:
            store.push(frame.copy())
            background = median_background(store)
            deep = False
            empty_tick = 0
            log.append(FrameRecord(idx, "deep", queried=True, judged_empty=True))
            continue

        boxes = np.array([(r.left, r.top, r.width, r.height) for r in records], dtype=np.int64)
        boxes, outside = _clamp(boxes, meta)
        if outside.any():
            raise AnnotationError(
                f"frame {idx}: detection for id {records[int(np.argmax(outside))].id} "
                f"fully outside the frame"
            )
        for rec, box in zip(records, boxes):
            entry = collected.setdefault(rec.id, (rec.class_label, [], []))
            entry[1].append(idx)
            entry[2].append(box)
        deep_tick += 1
        if deep_tick >= cfg.background_refresh_period:
            validity = np.ones(frame.shape[:2], dtype=bool)
            for left, top, width, height in boxes.tolist():
                validity[top : top + height, left : left + width] = False
            store.push(frame.copy(), validity)
            deep_tick = 0
        log.append(FrameRecord(idx, "deep", queried=True, judged_empty=False))

    tubes = [
        Tube(tid, label, idxs[0], fill_gaps(np.array(idxs), np.array(rows)))
        for tid, (label, idxs, rows) in collected.items()
    ]
    tubes.sort(key=lambda t: (t.start, t.id))
    return ExtractionResult(tubes=tubes, store=store, log=log)
