"""Tube loading and the frame-extraction controller.

Detections arrive from annotation files (MOT-challenge style CSV) or from a
per-frame detector callback.  The extraction controller consumes frames in
order, switching between the expensive detection source and a cheap
empty-frame check whenever the scene goes quiet, and collects background
samples for the renderer along the way.

Both sources share one rows-to-tubes path: frame, id and box fields must fit
in int64, boxes are clamped to the frame (one with nothing inside is
rejected), each id has at most one box per frame and gaps are interpolated.
An error names the row's file line or extraction frame, and its id.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Tube, VideoMeta
from .pixelops import binary_open, channel_absdiff_sum, component_slices

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
        # each bound is a comparison that NaN fails, and inf meets math.inf
        if not 3 <= self.fifo_capacity < math.inf:
            raise ValueError("fifo_capacity must be finite and >= 3")
        if not 0 < self.binary_threshold < math.inf:
            raise ValueError("binary_threshold must be finite and positive")
        if not 0 < self.min_contour_area < self.max_contour_area < math.inf:
            raise ValueError("contour area gates must satisfy 0 < min < max < inf")
        lo, hi = self.aspect_ratio_range
        if not 0 < lo < hi < math.inf:
            raise ValueError("aspect ratio range must satisfy 0 < low < high < inf")
        if not 1 <= self.background_refresh_period < math.inf:
            raise ValueError("background_refresh_period must be finite and >= 1")
        if not 0 <= self.morphology_kernel < math.inf:
            raise ValueError("morphology_kernel must be finite and >= 0")


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
        """Append a uint8 sample; its mask is kept as bool, or as ``None`` if all valid."""
        if pixels.dtype != np.uint8:
            raise ValueError(f"background samples must be uint8, got {pixels.dtype}")
        if validity is not None:
            validity = np.asarray(validity, dtype=bool)
            if validity.shape != pixels.shape[:2]:
                raise ValueError("validity mask must match the pixel grid")
        self._samples.append((pixels, None if validity is None or validity.all() else validity))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        return list(self._samples)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class _Rows(NamedTuple):
    """Annotation rows in file order."""

    table: np.ndarray  # (n, 6) frame, id, left, top, width, height; int64 or Python ints
    confidence: np.ndarray  # folded into [0, 1]
    labels: Sequence[str]
    visibility: np.ndarray
    lines: np.ndarray  # each row's 1-based file line


class _SplitLabels(Sequence[str]):
    """The label field of each line, split only when read, as
    ``parse_annotations`` reads one row per id.  Equal to the list of every
    label."""

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, k: int) -> str:  # type: ignore[override]
        # the loop strips the line, and with it an 8-field row's label
        return self._lines[k].rstrip().split(",", 8)[7]

    def __eq__(self, other: object) -> bool:
        return list(self) == other


def _read_rows(stream: Iterable[str]) -> _Rows:
    """Parse an annotation stream with ``_fast_rows``, or with ``_parse_rows``
    where that declines it."""
    lines = list(stream)
    rows = _fast_rows(lines)
    return _parse_rows(lines) if rows is None else rows


def _fast_rows(lines: list[str]) -> _Rows | None:
    """``_parse_rows``'s result from one numpy pass over the numeric columns
    with each row's label split when read, or ``None`` to leave the lines to
    that loop: on a field numpy cannot read as float (``1_0`` and ``٣``
    among them), mixed field counts or a count outside 6-9, a value not
    finite or at least 2**63 in magnitude, a frame below 1 or a repeated
    ``(frame, id)``."""
    k = next(filter(str.strip, lines), "").count(",") + 1
    if not 6 <= k <= 9:
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=",", comments=None, ndmin=2,
            usecols=[0, 1, 2, 3, 4, 5, 6, 8][: min(k, 7) + (k == 9)],
        )
    except ValueError:
        return None
    n = len(values)
    numbers = range(1, n + 1)
    if n < len(lines):  # numpy skips empty lines, as the loop does
        numbers = [i for i, line in enumerate(lines, 1) if line.strip()]
        lines = [lines[i - 1] for i in numbers]
    if (
        len(numbers) != n
        or {line.count(",") for line in lines} != {k - 1}
        or not (np.abs(values) < 2.0**63).all()  # also false for inf and nan
    ):
        return None
    table = np.empty((n, 6), dtype=np.int64)
    table[:, :2] = np.trunc(values[:, :2])  # as int(float(x))
    table[:, 2:] = np.floor(values[:, 2:6] + 0.5)
    pairs = table[np.lexsort((table[:, 1], table[:, 0])), :2]
    if (table[:, 0] < 1).any() or (pairs[1:] == pairs[:-1]).all(axis=1).any():
        return None
    ones = np.ones(n)
    return _Rows(
        table,
        np.clip(values[:, 6], 0.0, 1.0) if k > 6 else ones,
        _SplitLabels(lines) if k > 7 else [""] * n,
        values[:, 7] if k == 9 else ones,
        np.asarray(numbers),
    )


def _parse_rows(stream: Iterable[str]) -> _Rows:
    """Parse CSV rows one at a time, checking every field; the reference for
    ``_fast_rows`` and the path of every file it declines.  The table holds
    Python ints, so a value beyond 64 bits is left for ``_checked_boxes``."""
    rows = []
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
        rows.append((frame, track_id, left, top, width, height, conf, label, vis, lineno))
    cols = tuple(zip(*rows)) or ((),) * 10
    return _Rows(
        np.array(cols[:6], dtype=object).T,
        np.array(cols[6], dtype=float),
        list(cols[7]),
        np.array(cols[8], dtype=float),
        np.array(cols[9], dtype=np.int64),
    )


def _check_within(frames: np.ndarray, lines: np.ndarray, frame_count: int) -> None:
    """Raise ``AnnotationError`` naming the first row ``k``, in file order,
    whose 1-based frame ``frames[k]`` lies past a ``frame_count``-frame video."""
    past = frames > frame_count
    if past.any():
        k = int(np.argmax(past))
        raise AnnotationError(
            f"line {lines[k]}: frame {frames[k]} lies past the end of the {frame_count}-frame video"
        )


def _clamp(coords: np.ndarray, meta: VideoMeta) -> np.ndarray:
    """Cut ``(left, top, width, height)`` rows to the frame in place and return
    the mask of rows with nothing left inside, wrapped int64 ends included."""
    ends = coords[:, :2] + coords[:, 2:]
    wrapped = (((coords[:, :2] ^ ends) & (coords[:, 2:] ^ ends)) < 0).any(axis=1)
    np.maximum(coords[:, :2], 0, out=coords[:, :2])
    np.minimum(ends, (meta.width, meta.height), out=ends)
    np.subtract(ends, coords[:, :2], out=coords[:, 2:])
    return (coords[:, 2:] <= 0).any(axis=1) | wrapped


def _checked_boxes(
    rows: Sequence[Sequence[int]], where: Callable[[int], str], meta: VideoMeta
) -> np.ndarray:
    """``(frame, id, left, top, width, height)`` rows as an int64 table, each
    box cut to ``meta``'s frame.  A field beyond 64 bits or a box with
    nothing inside is an ``AnnotationError`` naming row ``k`` as ``where(k)``."""
    try:
        table = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    except OverflowError:
        k = next(k for k, row in enumerate(rows)
                 if not all(-(1 << 63) <= v < 1 << 63 for v in row))
        raise AnnotationError(f"{where(k)}: id {rows[k][1]} has a value beyond 64 bits") from None
    outside = _clamp(table[:, 2:], meta)
    if outside.any():
        k = int(np.argmax(outside))
        raise AnnotationError(
            f"{where(k)}: box for id {rows[k][1]} lies fully outside the "
            f"{meta.width}x{meta.height} frame"
        )
    return table


def _assemble_tubes(table: np.ndarray, labels: Sequence[str] | Mapping[int, str]) -> list[Tube]:
    """Tubes sorted by ``(start, id)`` from checked rows with 0-based frames:
    each id's rows in stable frame order, gaps filled, labelled by the id's
    first row ``k`` as ``labels[k]``.  Two rows for one frame and id are an
    ``AnnotationError``."""
    order = np.lexsort((table[:, 0], table[:, 1]))
    frames, ids = table[order, 0], table[order, 1]
    repeat = (frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])
    if repeat.any():
        k = int(np.argmax(repeat))
        raise AnnotationError(f"frame {frames[k]}: more than one box for id {ids[k]}")
    tids, first = np.unique(table[:, 1], return_index=True)
    parts = np.split(order, np.flatnonzero(np.diff(ids)) + 1)
    tubes = [
        Tube(tid, labels[i], int(table[part[0], 0]), fill_gaps(table[part, 0], table[part, 2:]))
        for tid, i, part in zip(tids.tolist(), first.tolist(), parts)
    ]
    return sorted(tubes, key=lambda t: (t.start, t.id))


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
    """Load tubes, sorted by source start frame then id, from an annotation
    stream; the file's 1-based frames become 0-based.  A row past
    ``meta.frame_count`` is an ``AnnotationError`` naming its line."""
    rows = _read_rows(stream)
    # a tube takes its id's first label: split those alone, and let the
    # file's lines go before the boxes are checked and the tubes built
    first = np.unique(rows.table[:, 1], return_index=True)[1].tolist()
    labels = {k: rows.labels[k] for k in first}
    rows = rows._replace(labels=[])
    table = _checked_boxes(rows.table, lambda k: f"line {rows.lines[k]}", meta)
    _check_within(table[:, 0], rows.lines, meta.frame_count)  # before fill_gaps sizes tubes
    table[:, 0] -= 1
    return _assemble_tubes(table, labels)


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


def median_background(store: BackgroundSampleStore) -> np.ndarray:
    """Per-pixel, per-channel median over the stored uint8 samples.

    A value whose sample's mask marks its pixel invalid is left out of that
    pixel's median, unless no sample is valid there; an even count takes the
    floor-mean of the two middles.  Each value becomes a uint16 key, plus 256
    where invalid, so invalid keys sort last.  An odd-even transposition
    network of in-place ``np.minimum``/``np.maximum`` sorts the ``n`` keys per
    pixel in ``n`` rounds, about ``n**2 / 2`` compare-exchanges (45 for the
    default FIFO of 10), block by block to stay in cache.  With ``c`` valid
    keys, or ``c = n`` where none is valid, the median is exactly
    ``((key[(c - 1) // 2] + key[c // 2]) // 2) & 255``: the first ``c`` keys
    are the valid values in order, and ``n`` keys that all carry the 256
    have the plain floor-mean plus 256.
    """
    if len(store) == 0:
        raise ValueError("background sample store is empty")
    samples = store.samples
    keys = np.stack([p for p, _ in samples], dtype=np.uint16)
    n, shape = len(keys), keys.shape[1:]
    columns = keys.reshape(n, shape[0] * shape[1], -1)  # (sample, pixel, channel)
    valid = np.full(columns.shape[1], n)
    for column, (_, mask) in zip(columns, samples):
        if mask is not None:
            column[~mask.ravel()] += 256
            valid -= ~mask.ravel()
    step = max(1, (1 << 17) // n)  # pixels per block
    for s in range(0, len(valid), step):
        block = columns[:, s : s + step]
        for r in range(n):
            a, b = block[r % 2 : n - 1 : 2], block[r % 2 + 1 : n : 2]
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low
    mid = columns[(n - 1) // 2] + columns[n // 2]
    partial = np.flatnonzero(valid < n)  # pixels that some sample masks
    c = valid[partial]
    c[c == 0] = n
    mid[partial] = columns[(c - 1) // 2, partial] + columns[c // 2, partial]
    return ((mid >> 1) & 255).astype(np.uint8).reshape(shape)


def is_frame_empty(frame: np.ndarray, background: np.ndarray, cfg: EmptyFrameConfig) -> bool:
    """Decide whether a frame contains any object-sized foreground blob.

    Pipeline: channel-averaged absolute difference against the background,
    binarize, morphological open, connected components; the frame is
    non-empty iff some component's bounding area and height/width ratio both
    sit inside the configured gates.  The average is compared as the uint16
    channel sum against ``c * binary_threshold``, which decides alike.
    """
    diff, channels = channel_absdiff_sum(frame, background)
    binary = binary_open(diff > channels * cfg.binary_threshold, cfg.morphology_kernel)
    if not binary.any():
        return True
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
        rows = _read_rows(stream)
        for (frame, *fields), conf, label, vis in zip(
            rows.table.tolist(), rows.confidence.tolist(), rows.labels, rows.visibility.tolist()
        ):
            record = DetectionRecord(frame, *fields, conf, label, vis)
            self._by_frame.setdefault(frame - 1, []).append(record)
        # the frame and line columns only: the labels hold the text of every line
        self._frames, self._lines = rows.table[:, 0].copy(), rows.lines

    def check_within(self, frame_count: int) -> None:
        """Raise ``AnnotationError`` naming the first row, in file order,
        whose frame lies past a ``frame_count``-frame video."""
        _check_within(self._frames, self._lines, frame_count)

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
    background samples on the same period.  Detections become tubes as in
    ``parse_annotations``; a bad one is an ``AnnotationError`` at its frame.
    A frame whose size is not ``meta``'s is a ``ValueError``.
    """
    store = BackgroundSampleStore(cfg.fifo_capacity)
    log: list[FrameRecord] = []
    tables = [np.empty((0, 6), dtype=np.int64)]
    labels: list[str] = []
    background: np.ndarray | None = None
    deep = True
    empty_tick = 0
    deep_tick = 0

    for idx, frame in enumerate(frames):
        if frame.shape[:2] != (meta.height, meta.width):
            raise ValueError(
                f"frame {idx} is {frame.shape[1]}x{frame.shape[0]}, "
                f"the video is {meta.width}x{meta.height}"
            )
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

        rows = [(idx, r.id, r.left, r.top, r.width, r.height) for r in records]
        tables.append(_checked_boxes(rows, lambda k: f"frame {idx}", meta))
        labels.extend(r.class_label for r in records)
        deep_tick += 1
        if deep_tick >= cfg.background_refresh_period:
            validity = np.ones(frame.shape[:2], dtype=bool)
            for _, _, left, top, width, height in tables[-1].tolist():
                validity[top : top + height, left : left + width] = False
            store.push(frame.copy(), validity)
            deep_tick = 0
        log.append(FrameRecord(idx, "deep", queried=True, judged_empty=False))

    tubes = _assemble_tubes(np.concatenate(tables), labels)
    return ExtractionResult(tubes=tubes, store=store, log=log)
