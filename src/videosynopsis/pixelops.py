"""Small pixel-level primitives shared by ingest and render.

scipy is imported inside the functions that call it, so the tube-only
subcommands, which never call them, start without loading it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "channel_mean_absdiff",
    "binary_open",
    "binary_close",
    "component_slices",
    "largest_component",
]


def channel_mean_absdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Absolute difference averaged over channels, as float (H, W)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = np.abs(a.astype(np.int16) - b.astype(np.int16))
    if diff.ndim == 3:
        return diff.mean(axis=2)
    return diff.astype(np.float64)


def _structure(radius: int) -> np.ndarray:
    side = 2 * radius + 1
    return np.ones((side, side), dtype=bool)


def binary_open(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return mask
    from scipy import ndimage

    return ndimage.binary_opening(mask, structure=_structure(radius))


def binary_close(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return mask
    from scipy import ndimage

    return ndimage.binary_closing(mask, structure=_structure(radius))


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
