"""Per-box scalar geometry: the reference that the batched kernel is checked against.

The package prices tube pairs only through ``core.BoxTable.pair_sums``.
These functions price one box pair, or list one tube pair's shared frames,
with plain Python arithmetic, so the tests can compare the kernel with an
implementation that shares none of its code.
"""

from __future__ import annotations

import math

from videosynopsis.core import BoundingBox, Tube


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
