"""Tube loading and the frame-extraction controller.

Detections arrive from annotation files (MOT-challenge style CSV) or from a
per-frame detector callback.  The extraction controller consumes frames in
order, switching between the expensive detection source and a cheap
empty-frame check whenever the scene goes quiet, and collects background
samples for the renderer along the way.

A tube is built from each row's frame, id, box and label alone; confidence
and visibility fields are accepted unread, so a row that MOT ground truth
flags as ignored still joins its tube.

Tube and detection files share one checked reader, which names a bad row's
line before any frame is read: frame, id and box fields must fit in int64,
boxes are clamped to the frame (one with nothing inside is rejected) and no
row lies past the video's end.  A detector callback's boxes get the box
checks by frame.  Each id keeps one box per frame and gaps are interpolated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True, kw_only=True)
class DetectionRecord:
    """One detection of a frame; the frame is the one it was reported for."""

    id: int
    left: int
    top: int
    width: int
    height: int
    class_label: str = ""


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
    labels: Sequence[str]
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


def _fast_rows(lines: list[str]) -> _Rows | None:
    """``_parse_rows``'s result from one numpy pass over the frame, id and box
    columns with each row's label split when read, or ``None`` to leave the
    lines to that loop: on a field numpy cannot read as float (``1_0`` and
    ``٣`` among them), mixed field counts or a count outside 6-9, a value not
    finite or at least 2**63 in magnitude, a frame below 1 or a repeated
    ``(frame, id)``."""
    k = next(filter(str.strip, lines), "").count(",") + 1
    if not 6 <= k <= 9:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, usecols=range(6))
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
    table[:, 2:] = np.floor(values[:, 2:] + 0.5)
    pairs = table[np.lexsort((table[:, 1], table[:, 0])), :2]
    if (table[:, 0] < 1).any() or (pairs[1:] == pairs[:-1]).all(axis=1).any():
        return None
    return _Rows(table, _SplitLabels(lines) if k > 7 else [""] * n, np.asarray(numbers))


def _parse_rows(stream: Iterable[str]) -> _Rows:
    """Parse CSV rows one at a time, checking each field read; the reference for
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
        except (ValueError, OverflowError) as exc:
            # OverflowError: an infinite value reached int()
            raise AnnotationError(f"line {lineno}: non-numeric field ({exc})") from None
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
        rows.append((frame, track_id, left, top, width, height, label, lineno))
    cols = tuple(zip(*rows)) or ((),) * 8
    return _Rows(
        np.array(cols[:6], dtype=object).T, list(cols[6]), np.array(cols[7], dtype=np.int64)
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


def _read_checked(
    stream: Iterable[str], meta: VideoMeta, frame_count: int
) -> tuple[np.ndarray, Sequence[str]]:
    """An annotation stream's rows as an int64 table, with 0-based frames and
    boxes cut to ``meta``'s frame, and their labels; read by ``_fast_rows``,
    or by ``_parse_rows`` where that declines.  A bad row is an
    ``AnnotationError`` naming its line, as is the first, in file order, of
    the rows past a ``frame_count``-frame video."""
    lines = list(stream)
    rows = _fast_rows(lines) or _parse_rows(lines)
    table = _checked_boxes(rows.table, lambda k: f"line {rows.lines[k]}", meta)
    past = table[:, 0] > frame_count  # before fill_gaps sizes tubes
    if past.any():
        k = int(np.argmax(past))
        raise AnnotationError(
            f"line {rows.lines[k]}: frame {table[k, 0]} lies past the end of the "
            f"{frame_count}-frame video"
        )
    table[:, 0] -= 1
    return table, rows.labels


def _assemble_tubes(table: np.ndarray, labels: Sequence[str]) -> list[Tube]:
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
    return _assemble_tubes(*_read_checked(stream, meta, meta.frame_count))


def serialize_annotations(tubes: Iterable[Tube], stream: IO[str]) -> None:
    """Write tubes back out in the annotation CSV layout (1-based frames);
    a class label with a comma or line break, which would split its rows,
    is a ``ValueError`` naming the tube, raised before anything is written."""
    rows = []
    for tube in tubes:
        if any(c in tube.class_label for c in ",\n\r"):
            raise ValueError(f"tube {tube.id}: class label {tube.class_label!r} holds a comma or line break")
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
    default FIFO of 10).  The keys are built, sorted and reduced block by
    block of pixels to stay in cache, so only the uint8 output spans the
    frame.  With ``c`` valid keys, or ``c = n`` where none is valid, the
    median is exactly ``((key[(c - 1) // 2] + key[c // 2]) // 2) & 255``: the
    first ``c`` keys are the valid values in order, and ``n`` keys that all
    carry the 256 have the plain floor-mean plus 256.
    """
    if len(store) == 0:
        raise ValueError("background sample store is empty")
    samples = store.samples
    shape = samples[0][0].shape
    if any(p.shape != shape for p, _ in samples):
        raise ValueError("background samples differ in shape")
    n, pixels = len(samples), shape[0] * shape[1]
    # (pixel, channel) views of each sample and its mask
    columns = [(p.reshape(pixels, -1), None if m is None else m.ravel()) for p, m in samples]
    out = np.empty((pixels, columns[0][0].shape[1]), dtype=np.uint8)
    step = max(1, (1 << 17) // n)  # pixels per block
    for s in range(0, pixels, step):
        block = np.empty((n,) + out[s : s + step].shape, dtype=np.uint16)
        valid = np.full(len(block[0]), n)
        for key, (p, mask) in zip(block, columns):
            key[...] = p[s : s + step]
            if mask is not None:
                invalid = ~mask[s : s + step]
                key[invalid] += 256
                valid -= invalid
        for r in range(n):
            a, b = block[r % 2 : n - 1 : 2], block[r % 2 + 1 : n : 2]
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low
        mid = block[(n - 1) // 2] + block[n // 2]
        partial = np.flatnonzero(valid < n)  # pixels that some sample masks
        c = valid[partial]
        c[c == 0] = n
        mid[partial] = block[(c - 1) // 2, partial] + block[c // 2, partial]
        out[s : s + step] = (mid >> 1) & 255
    return out.reshape(shape)


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
    """Per-frame detection queries answered from an annotation stream, whose
    rows are checked as a tube file's are against a ``frame_count``-frame video."""

    def __init__(self, stream: Iterable[str], meta: VideoMeta, frame_count: int):
        self._by_frame: dict[int, list[DetectionRecord]] = {}
        table, labels = _read_checked(stream, meta, frame_count)
        for (frame, tid, left, top, width, height), label in zip(table.tolist(), labels):
            record = DetectionRecord(
                id=tid, left=left, top=top, width=width, height=height, class_label=label
            )
            self._by_frame.setdefault(frame, []).append(record)

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
    A frame whose size is not ``meta``'s, or whose channels are not frame
    0's, is a ``ValueError``.
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
        if idx == 0:
            shape = frame.shape
        elif frame.shape != shape:
            channels = [s[2] if len(s) == 3 else 1 for s in (frame.shape, shape)]
            raise ValueError(
                f"frame {idx} has {channels[0]}-channel pixels, frame 0 has {channels[1]}-channel pixels"
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
