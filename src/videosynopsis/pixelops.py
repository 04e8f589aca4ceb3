"""Small pixel-level primitives shared by ingest and render.

The difference and morphology kernels are numpy-only and work at integer
width.  scipy is imported inside the labelling functions that call it, so
the tube-only subcommands, which never call them, start without loading it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def component_slices(mask: np.ndarray) -> list[tuple[slice, slice]]:
    """Bounding slices of each connected component (8-connectivity)."""
    from scipy import ndimage

    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        return []
    return [s for s in ndimage.find_objects(labels) if s is not None]


def largest_component(mask: np.ndarray) -> np.ndarray | None:
    """Filled mask of the largest connected component; None when empty."""
    from scipy import ndimage

    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        return None
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
    component = labels == (int(np.argmax(sizes)) + 1)
    return ndimage.binary_fill_holes(component)
