"""Domain types and bounding-box geometry shared by the whole pipeline.

Everything here is immutable after construction and all functions are pure,
so values can be shared freely across threads.

A ``Tube`` is a start frame plus one read-only ``(n, 4)`` int64 array of
``(left, top, width, height)`` rows, row ``k`` being source frame
``start + k``.  That array is the only stored form of the boxes, so every
tube is gapless by construction (ingest fills detection gaps before it
builds one).  ``Tube.boxes`` is a cached tuple of ``BoundingBox`` derived
from it for the few per-box readers.

``BoxTable`` holds the pipeline's one per-pair overlap kernel.  Grouping,
the scheduler's collision cost and the collision-area metric all price tube
pairs through it: each caller lists the aligned frame windows it needs as
``(row1, row2, n)`` triples, and the table returns per-frame intersection
and smaller-box area for all of them in one vectorized pass, in chunks of
bounded size.  Its work is linear in the frames the windows cover, and
``overlapping_pairs`` finds the pairs worth a window by a sweep, in
O(n log n + overlapping pairs).

Exactness: float results are bit-identical to pricing each pair alone.
Elementwise ratios do not depend on the batch; ``slice_sums`` sums every
window with numpy over its own contiguous slice (numpy's pairwise summation
of a standalone array), never with ``reduceat`` or ``bincount``; and callers
add the per-pair sums as Python floats in the order the pair loops used.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "BoundingBox",
    "BoxTable",
    "OverlapChunk",
    "Tube",
    "VideoMeta",
    "TubeGroup",
    "SynopsisSchedule",
    "intersection_area",
    "iom",
    "center_distance",
    "common_frames",
    "group_extent",
    "tube_placements",
    "slice_sums",
    "overlapping_pairs",
]

# Elements per kernel chunk: about 15 int64 temporaries of this length, so
# a chunk stays near 1 MB whatever the number of windows.
_CHUNK_ELEMENTS = 1 << 13
# Index pairs per block yielded by ``overlapping_pairs``.
_PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class BoundingBox:
    """One axis-aligned detection at one source frame.

    ``frame`` is a 0-based source frame index.  ``left``/``top`` are the
    top-left corner in pixels; the box spans columns ``[left, left+width)``
    and rows ``[top, top+height)``.
    """

    frame: int
    left: int
    top: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"box at frame {self.frame} has non-positive size "
                f"{self.width}x{self.height}"
            )
        if self.left < 0 or self.top < 0:
            raise ValueError(
                f"box at frame {self.frame} has negative origin "
                f"({self.left}, {self.top})"
            )
        if self.frame < 0:
            raise ValueError(f"negative frame index {self.frame}")

    @property
    def right(self) -> int:
        """Exclusive right edge."""
        return self.left + self.width

    @property
    def bottom(self) -> int:
        """Exclusive bottom edge."""
        return self.top + self.height

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return self.left + self.width / 2, self.top + self.height / 2


@dataclass(frozen=True)
class VideoMeta:
    """Source-video geometry; denominators for density and coverage."""

    width: int
    height: int
    frame_count: int
    fps: float = 30.0

    def __post_init__(self) -> None:
        if min(self.width, self.height, self.frame_count) <= 0 or self.fps <= 0:
            raise ValueError("video metadata fields must all be positive")

    def contains(self, box: BoundingBox) -> bool:
        return box.right <= self.width and box.bottom <= self.height


@dataclass(frozen=True, eq=False)
class Tube:
    """Chronologically ordered boxes of one tracked object, one per frame.

    ``coords`` is a read-only ``(n, 4)`` int64 array of ``(left, top, width,
    height)`` rows; row ``k`` is the box at source frame ``start + k``, so a
    tube is gapless by construction.  The constructor copies the array.
    ``boxes`` derives ``BoundingBox`` objects for per-box readers.
    """

    id: int
    class_label: str
    start: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.coords)
        if raw.size and raw.dtype.kind not in "iu":
            raise TypeError(f"tube {self.id} box coordinates must be integers, got {raw.dtype}")
        coords = raw.astype(np.int64)  # always a copy
        if coords.ndim != 2 or coords.shape[1] != 4 or not len(coords):
            raise ValueError(
                f"tube {self.id} needs a non-empty (n, 4) box array, got shape {coords.shape}"
            )
        if (coords[:, 2:] <= 0).any():
            raise ValueError(f"tube {self.id} has a box of non-positive size")
        if (coords[:, :2] < 0).any():
            raise ValueError(f"tube {self.id} has a box with negative origin")
        start = operator.index(self.start)
        if start < 0:
            raise ValueError(f"tube {self.id} has negative start frame {start}")
        coords.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tube):
            return NotImplemented
        return (
            (self.id, self.class_label, self.start) == (other.id, other.class_label, other.start)
            and np.array_equal(self.coords, other.coords)
        )

    @property
    def end(self) -> int:
        """Last source frame (inclusive)."""
        return self.start + len(self.coords) - 1

    @property
    def length(self) -> int:
        """Number of frames containing the tube (box count)."""
        return len(self.coords)

    @cached_property
    def boxes(self) -> tuple[BoundingBox, ...]:
        """The rows of ``coords`` as boxes, built once on first use."""
        return tuple(
            BoundingBox(self.start + k, *row) for k, row in enumerate(self.coords.tolist())
        )

    @property
    def frame_array(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self.coords), dtype=np.int64)

    @property
    def lefts(self) -> np.ndarray:
        return self.coords[:, 0]

    @property
    def tops(self) -> np.ndarray:
        return self.coords[:, 1]

    @property
    def widths(self) -> np.ndarray:
        return self.coords[:, 2]

    @property
    def heights(self) -> np.ndarray:
        return self.coords[:, 3]


@dataclass(frozen=True)
class TubeGroup:
    """Tubes locked to fixed relative time offsets.

    ``members`` holds ``(tube_id, offset)`` pairs where ``offset`` is the
    tube's source start minus the group's earliest source start; rearranging
    a group moves all members together, never the offsets.
    """

    members: tuple[tuple[int, int], ...]
    source_start: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("group has no members")
        offsets = [off for _, off in self.members]
        if min(offsets) != 0:
            raise ValueError("group must contain a member at offset 0")
        ids = [tid for tid, _ in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate tube id inside a group")

    @property
    def tube_ids(self) -> tuple[int, ...]:
        return tuple(tid for tid, _ in self.members)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SynopsisSchedule:
    """Per-group synopsis start frames plus the synopsis length."""

    placements: tuple[tuple[TubeGroup, int], ...]
    synopsis_length: int

    def __post_init__(self) -> None:
        starts = [s for _, s in self.placements]
        if any(s < 0 for s in starts):
            raise ValueError("negative synopsis start")
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValueError("placements must be ordered by synopsis start")
        if self.synopsis_length < 0:
            raise ValueError("negative synopsis length")

    @property
    def groups(self) -> tuple[TubeGroup, ...]:
        return tuple(g for g, _ in self.placements)


def intersection_area(a: BoundingBox, b: BoundingBox) -> int:
    """Pixel area of the rectangle intersection; 0 when disjoint."""
    w = min(a.right, b.right) - max(a.left, b.left)
    h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if w <= 0 or h <= 0:
        return 0
    return w * h


def iom(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over minimum: overlap area divided by the smaller box."""
    return intersection_area(a, b) / min(a.area, b.area)


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers."""
    ax, ay = a.center
    bx, by = b.center
    return math.hypot(ax - bx, ay - by)


def common_frames(t1: Tube, t2: Tube) -> set[int]:
    """Source frames where both tubes have a box."""
    return set(range(max(t1.start, t2.start), min(t1.end, t2.end) + 1))


def group_extent(group: TubeGroup, tubes: Mapping[int, Tube]) -> int:
    """Temporal extent of a group in frames: max member offset + length."""
    return max(off + tubes[tid].length for tid, off in group.members)


def tube_placements(schedule: SynopsisSchedule) -> dict[int, int]:
    """Synopsis start frame of every tube in the schedule.

    Within a placed group, tube ``k`` starts at the group's synopsis start
    plus its frozen offset.  Raises if a tube id occurs in more than one
    placement.
    """
    starts: dict[int, int] = {}
    for group, s in schedule.placements:
        for tid, off in group.members:
            if tid in starts:
                raise ValueError(f"tube {tid} appears in more than one group")
            starts[tid] = s + off
    return starts


def slice_sums(values: np.ndarray, bounds: np.ndarray, which: Iterable[int]) -> dict[int, float]:
    """``values[bounds[k]:bounds[k+1]].sum()`` for each window ``k`` in ``which``.

    Each window is summed as its own contiguous slice, so the result equals
    numpy's pairwise sum of that window as a standalone array, bit for bit.
    ``np.add.reduceat`` and ``np.bincount`` accumulate sequentially and do
    not.
    """
    b = bounds.tolist()
    return {k: float(values[b[k] : b[k + 1]].sum()) for k in which}


class OverlapChunk(NamedTuple):
    """Kernel output for a run of consecutive windows.

    ``windows`` selects the caller's windows covered; element ``e`` of
    window ``k`` (counted within the chunk) sits at ``bounds[k] + e`` of
    the per-element arrays.
    """

    windows: slice
    bounds: np.ndarray
    rows1: np.ndarray
    rows2: np.ndarray
    inter: np.ndarray
    smaller: np.ndarray

    def iom_sums(self) -> dict[int, float]:
        """Summed intersection over minimum of every window that overlaps.

        Keys are window positions within the chunk; a window whose boxes
        never intersect is left out, its sum being exactly 0.0.
        """
        hit = np.flatnonzero(np.add.reduceat(self.inter, self.bounds[:-1]))
        return slice_sums(self.inter / self.smaller, self.bounds, hit.tolist())


class BoxTable:
    """The boxes of a tube sequence as struct-of-arrays rows.

    The ``k``-th box of the ``i``-th tube is row ``first[i] + k``; the
    columns are ``left``, ``top``, ``right``, ``bottom`` (exclusive edges)
    and ``area``.
    """

    def __init__(self, tubes: Iterable[Tube]) -> None:
        tubes = list(tubes)
        lengths = np.array([t.length for t in tubes], dtype=np.int64)
        self.first = np.cumsum(lengths) - lengths

        coords = np.concatenate([t.coords for t in tubes] or [np.zeros((0, 4), np.int64)])
        self.left, self.top, width, height = coords.T.copy()
        self.area = width * height
        self.right = self.left + width
        self.bottom = self.top + height

    def overlaps(
        self, row1: np.ndarray, row2: np.ndarray, n: np.ndarray
    ) -> Iterator[OverlapChunk]:
        """Per-frame intersection and smaller area of many aligned windows.

        Window ``k`` pairs rows ``row1[k] + e`` and ``row2[k] + e`` for
        ``e < n[k]``; every ``n[k]`` must be at least 1.  Windows come back
        in order, grouped into chunks of bounded element count (a longer
        window forms a chunk of its own).
        """
        n = np.asarray(n, dtype=np.int64)
        bounds = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=bounds[1:])
        lo = 0
        while lo < len(n):
            hi = int(np.searchsorted(bounds, bounds[lo] + _CHUNK_ELEMENTS, side="right")) - 1
            hi = max(hi, lo + 1)
            cb = bounds[lo : hi + 1] - bounds[lo]
            counts = n[lo:hi]
            step = np.arange(int(cb[-1]), dtype=np.int64) - np.repeat(cb[:-1], counts)
            i1 = np.repeat(row1[lo:hi], counts) + step
            i2 = np.repeat(row2[lo:hi], counts) + step
            iw = np.minimum(self.right[i1], self.right[i2]) - np.maximum(
                self.left[i1], self.left[i2]
            )
            ih = np.minimum(self.bottom[i1], self.bottom[i2]) - np.maximum(
                self.top[i1], self.top[i2]
            )
            inter = np.maximum(iw, 0) * np.maximum(ih, 0)
            smaller = np.minimum(self.area[i1], self.area[i2])
            yield OverlapChunk(slice(lo, hi), cb, i1, i2, inter, smaller)
            lo = hi


def overlapping_pairs(
    starts: np.ndarray, ends: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index pairs of the half-open intervals ``[start, end)`` that overlap.

    A sweep by start: after sorting, interval ``i``'s partners are the run
    of later-starting intervals that begin before ``end[i]``.  Yields blocks
    of ``(i, j)`` index arrays into the inputs, each pair once with
    ``starts[i] <= starts[j]``, in bounded block sizes.
    """
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    stop = np.searchsorted(s, ends[order], side="left")
    count = np.maximum(stop - np.arange(len(s)) - 1, 0)
    total = np.cumsum(count)
    lo = 0
    while lo < len(s):
        base = int(total[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(total, base + _PAIR_BLOCK, side="right")), lo + 1)
        c = count[lo:hi]
        pairs = int(c.sum())
        if pairs:
            first = np.repeat(np.arange(lo, hi), c)
            offset = np.arange(pairs) - np.repeat(np.cumsum(c) - c, c)
            yield order[first], order[first + 1 + offset]
        lo = hi
