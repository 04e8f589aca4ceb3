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
pairs through ``BoxTable.pair_sums``, giving tube indices and the frame at
which each tube is placed; window alignment, chunking and exact summation
stay inside it.  Its work is linear in the pairs and the frames they share,
and ``overlapping_pairs`` finds the pairs worth pricing by a sweep, in
O(n log n + overlapping pairs).

``components`` is the pipeline's one connected-components routine: grouping
merges linked tubes with it, and the pixel labelling merges touching runs.

Exactness: float sums are bit-identical to pricing each pair alone.
Elementwise ratios do not depend on the batch; each pair's frames are summed
by numpy as their own contiguous slice (numpy's pairwise summation of a
standalone array), never with ``reduceat`` or ``bincount``; and callers add
the per-pair sums as Python floats in the order the pair loops used.
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
    "PairSums",
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
    "overlapping_pairs",
    "components",
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
        if min(self.width, self.height, self.frame_count) <= 0 or not 0 < self.fps < math.inf:
            raise ValueError("video metadata fields must all be positive, fps finite")


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
    """Per-group synopsis start frames plus the synopsis length; no tube is in two groups."""

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
        seen: set[int] = set()
        for group in self.groups:
            for tid in group.tube_ids:
                if tid in seen:
                    raise ValueError(f"tube {tid} appears in more than one group")
                seen.add(tid)

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
    """Synopsis start frame of every tube, in placement order: its group's
    synopsis start plus its frozen offset.  A schedule holds each tube once."""
    return {tid: s + off for group, s in schedule.placements for tid, off in group.members}


def _overlap(near: np.ndarray, far: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Length shared by the intervals ``[near, far)`` of rows ``i1`` and ``i2``."""
    return np.maximum(np.minimum(far[i1], far[i2]) - np.maximum(near[i1], near[i2]), 0)


class PairSums(NamedTuple):
    """Per pair: shared-frame count and summed intersection area (int64),
    summed intersection over minimum and centre distance (float64, or None
    when not asked for)."""

    frames: np.ndarray
    inter: np.ndarray
    iom: np.ndarray | None
    distance: np.ndarray | None


class BoxTable:
    """The boxes of a tube sequence as struct-of-arrays rows.

    The ``k``-th box of the ``i``-th tube is row ``first[i] + k``; the
    columns are ``left``, ``top``, ``right``, ``bottom`` (exclusive edges)
    and ``area``.  Tubes are addressed by their index ``i`` in the sequence,
    whose source start and box count are ``start[i]`` and ``length[i]``.
    """

    def __init__(self, tubes: Iterable[Tube]) -> None:
        tubes = list(tubes)
        self.start = np.array([t.start for t in tubes], dtype=np.int64)
        self.length = np.array([t.length for t in tubes], dtype=np.int64)
        self.first = np.cumsum(self.length) - self.length

        coords = np.concatenate([t.coords for t in tubes] or [np.zeros((0, 4), np.int64)])
        self.left, self.top, width, height = coords.T.copy()
        self.area = width * height
        self.right = self.left + width
        self.bottom = self.top + height

    def pair_sums(
        self,
        a: np.ndarray,
        b: np.ndarray,
        at_a: np.ndarray,
        at_b: np.ndarray,
        *,
        iom: bool = False,
        distance: bool = False,
    ) -> PairSums:
        """Sums over the shared frames of tubes ``a[k]`` and ``b[k]``.

        Tube ``a[k]`` is placed with its first box at frame ``at_a[k]`` and
        tube ``b[k]`` at ``at_b[k]``; ``iom`` and ``distance`` select the
        float sums to compute.  Each float sum is numpy's sum of the pair's
        frames as one contiguous slice, so it equals summing that pair
        alone, bit for bit; a pair whose boxes never intersect gets an
        ``iom`` of exactly 0.0.
        """
        lo = np.maximum(at_a, at_b)
        frames = np.maximum(np.minimum(at_a + self.length[a], at_b + self.length[b]) - lo, 0)
        floats = [np.zeros(len(frames)) if want else None for want in (iom, distance)]
        out = PairSums(frames, np.zeros_like(frames), *floats)
        live = np.flatnonzero(frames)
        n = frames[live]
        row1 = (self.first[a] + lo - at_a)[live]
        row2 = (self.first[b] + lo - at_b)[live]
        bounds = np.concatenate([[0], np.cumsum(n)])
        w0 = 0
        while w0 < len(live):
            # pairs w0..w1-1: a bounded element count, or one longer pair alone
            w1 = int(np.searchsorted(bounds, bounds[w0] + _CHUNK_ELEMENTS, side="right")) - 1
            w1 = max(w1, w0 + 1)
            cb = bounds[w0 : w1 + 1] - bounds[w0]
            step = np.arange(cb[-1]) - np.repeat(cb[:-1], n[w0:w1])
            i1 = np.repeat(row1[w0:w1], n[w0:w1]) + step
            i2 = np.repeat(row2[w0:w1], n[w0:w1]) + step
            inter = _overlap(self.left, self.right, i1, i2)
            inter *= _overlap(self.top, self.bottom, i1, i2)
            pairs = live[w0:w1]
            out.inter[pairs] = np.add.reduceat(inter, cb[:-1])
            e = cb.tolist()
            # floats never through reduceat or bincount: they do not sum pairwise
            if iom:
                ratio = inter / np.minimum(self.area[i1], self.area[i2])
                hit = np.flatnonzero(out.inter[pairs]).tolist()
                out.iom[pairs[hit]] = [ratio[e[k] : e[k + 1]].sum() for k in hit]
            if distance:
                # centres as (left + right) / 2: the same floats as left + width / 2
                x1, x2 = ((self.left[i] + self.right[i]) / 2.0 for i in (i1, i2))
                y1, y2 = ((self.top[i] + self.bottom[i]) / 2.0 for i in (i1, i2))
                d = np.hypot(x1 - x2, y1 - y2)
                out.distance[pairs] = [d[e[k] : e[k + 1]].sum() for k in range(len(pairs))]
            w0 = w1
        return out


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


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's root in the graph on ``0..n-1`` with edges ``(a[k], b[k])``:
    the least node of its connected component.

    Hooks each root under the least root it shares an edge with, then jumps
    pointers, until every edge joins one tree; a parent never exceeds its
    node, so each tree's root is its least node.
    """
    parent = np.arange(n)
    while not np.array_equal(root_a := parent[a], root_b := parent[b]):
        least = np.minimum(root_a, root_b)
        np.minimum.at(parent, root_a, least)
        np.minimum.at(parent, root_b, least)
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    return parent
