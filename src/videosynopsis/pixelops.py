"""Small pixel-level primitives shared by ingest and render.

Everything here is numpy-only.  The difference and morphology kernels work
at integer width; the labelling merges runs of set pixels with
``core.components``.  Each kernel equals its ``scipy.ndimage`` counterpart,
which the tests use as the reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import components

__all__ = [
    "channel_absdiff_sum",
    "binary_open",
    "binary_close",
    "component_slices",
    "largest_component",
]


def channel_absdiff_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Absolute uint8 difference summed over channels, as uint16 (H, W),
    and the channel count ``c``.

    For an integer threshold ``t``, ``sum > c * t`` is exactly the float
    test ``mean > t`` on the channel mean, and ``min(s1 + s2, 255 * c) >
    c * t`` is exactly ``min(mean1 + mean2, 255.0) > t``.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {a.dtype} and {b.dtype}")
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    if diff.ndim == 2:
        return diff.astype(np.uint16), 1
    total = diff[..., 0].astype(np.uint16)
    for channel in range(1, diff.shape[2]):
        total += diff[..., channel]
    return total, diff.shape[2]


def _square_filter(mask: np.ndarray, radius: int, op: Callable) -> np.ndarray:
    """``op`` (``np.logical_and`` or ``np.logical_or``) over each pixel's
    ``(2r+1)``-square neighbourhood, rows then columns, False outside."""
    height, width = mask.shape
    padded = np.zeros((height + 2 * radius, width + 2 * radius), dtype=bool)
    padded[radius : radius + height, radius : radius + width] = mask
    rows = padded[:height].copy()
    for k in range(1, 2 * radius + 1):
        op(rows, padded[k : k + height], out=rows)
    out = rows[:, :width].copy()
    for k in range(1, 2 * radius + 1):
        op(out, rows[:, k : k + width], out=out)
    return out


def binary_open(mask: np.ndarray, radius: int) -> np.ndarray:
    """Erosion then dilation by the ``(2r+1)`` square; pixels outside the
    mask count as unset, as in ``scipy.ndimage.binary_opening``."""
    if radius < 1:
        return mask
    eroded = _square_filter(mask, radius, np.logical_and)
    return _square_filter(eroded, radius, np.logical_or)


def binary_close(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilation then erosion by the ``(2r+1)`` square; pixels outside the
    mask count as unset, as in ``scipy.ndimage.binary_closing``, so the
    erosion also clears a ``radius``-wide border."""
    if radius < 1:
        return mask
    dilated = _square_filter(mask, radius, np.logical_or)
    return _square_filter(dilated, radius, np.logical_and)


def _label_runs(
    mask: np.ndarray, diagonal: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Runs of set pixels in raster order, labelled by connected component.

    Returns each run's row, start and end column (exclusive), its 0-based
    label, and the component count.  Components are numbered by their
    first pixel in raster order, as ``scipy.ndimage.label`` numbers them.
    ``diagonal`` selects 8-connectivity, otherwise 4-connectivity.
    """
    height, width = mask.shape
    stride = width + 1
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1).ravel()
    # flat indices into ``edges`` are keys row * stride + column, so runs
    # come in raster order, and the runs of the next row that touch a run
    # form one range: those starting at most at its end and ending at least
    # at its start, one column tighter each way without diagonals
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    shrink = 0 if diagonal else 1
    lo = np.searchsorted(ends, starts + stride + shrink, "left")
    counts = np.maximum(np.searchsorted(starts, ends + stride - shrink, "right") - lo, 0)
    above = np.repeat(np.arange(len(starts)), counts)
    below = np.arange(len(above)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    # each component's root is its least run, which comes first in raster order
    parent = components(len(starts), above, below)
    is_root = parent == np.arange(len(parent))
    labels = (np.cumsum(is_root) - 1)[parent]
    rows, first = np.divmod(starts, stride)
    return rows, first, ends % stride, labels, int(is_root.sum())


def _paint(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Boolean mask of ``shape`` with the given disjoint runs set."""
    edges = np.zeros((shape[0], shape[1] + 1), dtype=np.int8)
    edges[rows, starts] = 1
    edges[rows, ends] = -1
    return np.cumsum(edges[:, :-1], axis=1, dtype=np.int8) > 0


def component_slices(mask: np.ndarray) -> list[tuple[slice, slice]]:
    """Bounding slices of each connected component (8-connectivity), in
    ``scipy.ndimage.find_objects`` order."""
    rows, starts, ends, labels, count = _label_runs(mask, diagonal=True)
    top = np.full(count, mask.shape[0])
    np.minimum.at(top, labels, rows)
    bottom = np.zeros(count, dtype=np.int64)
    np.maximum.at(bottom, labels, rows + 1)
    left = np.full(count, mask.shape[1])
    np.minimum.at(left, labels, starts)
    right = np.zeros(count, dtype=np.int64)
    np.maximum.at(right, labels, ends)
    return [
        (slice(t, b), slice(l, r))
        for t, b, l, r in zip(top.tolist(), bottom.tolist(), left.tolist(), right.tolist())
    ]


def largest_component(mask: np.ndarray) -> np.ndarray | None:
    """Filled mask of the largest connected component (8-connectivity);
    None when empty.  Of equal sizes the lowest label wins, and holes are
    the background 4-connected to no border pixel, as in
    ``scipy.ndimage.binary_fill_holes``."""
    rows, starts, ends, labels, count = _label_runs(mask, diagonal=True)
    if count == 0:
        return None
    chosen = labels == int(np.argmax(np.bincount(labels, weights=ends - starts)))
    rows, starts, ends = rows[chosen], starts[chosen], ends[chosen]
    top, bottom = int(rows[0]), int(rows[-1]) + 1
    left, right = int(starts.min()), int(ends.max())
    # the component's box with a one-pixel background frame: the frame's
    # first row is the background's first run, so label 0 is outside
    box = _paint(rows - top + 1, starts - left + 1, ends - left + 1, (bottom - top + 2, right - left + 2))
    rows, starts, ends, labels, _ = _label_runs(~box, diagonal=False)
    outside = labels == 0
    filled = ~_paint(rows[outside], starts[outside], ends[outside], box.shape)
    out = np.zeros(mask.shape, dtype=bool)
    out[top:bottom, left:right] = filled[1:-1, 1:-1]
    return out
