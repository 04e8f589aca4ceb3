"""Synopsis frame synthesis: background, per-object masks, stitching."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import SynopsisSchedule, Tube, check_synopsis_length
from .ingest import BackgroundSampleStore, median_background
from .pixelops import binary_close, binary_open, channel_absdiff_sum, largest_component

__all__ = [
    "SegmentationConfig",
    "ObjectMask",
    "RenderedFrame",
    "RenderError",
    "generate_background",
    "segment",
    "stitch_frame",
    "render_synopsis",
]


class RenderError(ValueError):
    """A schedule, tube set or frame source that cannot be rendered."""


@dataclass(frozen=True)
class SegmentationConfig:
    initial_threshold: int = 80
    min_foreground_ratio: float = 0.15
    threshold_decrement: int = 10
    morphology_kernel: int = 2
    threshold_floor: int = 20

    def __post_init__(self) -> None:
        if not math.inf > self.initial_threshold > self.threshold_floor >= 1:
            raise ValueError("need inf > initial_threshold > threshold_floor >= 1")
        if not 0.0 < self.min_foreground_ratio < 1.0:
            raise ValueError("min_foreground_ratio must be in (0, 1)")
        if not 1 <= self.threshold_decrement < math.inf:
            raise ValueError("threshold_decrement must be finite and >= 1")
        if not 0 <= self.morphology_kernel < math.inf:
            raise ValueError("morphology_kernel must be finite and >= 0")


@dataclass(frozen=True)
class ObjectMask:
    """Crop-sized binary mask; the filled largest foreground contour.

    ``is_fallback`` marks degenerate segmentations where the adaptive
    threshold bottomed out without finding a plausible object, in which case
    the mask may be the whole box.
    """

    pixels: np.ndarray
    is_fallback: bool = False

    @property
    def foreground_ratio(self) -> float:
        return float(self.pixels.mean())


def generate_background(store: BackgroundSampleStore) -> np.ndarray:
    """Synopsis background: validity-aware median of the collected samples."""
    return median_background(store)


def segment(
    crop: np.ndarray,
    background_crop: np.ndarray,
    previous_crop: np.ndarray | None,
    cfg: SegmentationConfig,
) -> ObjectMask:
    """Foreground mask of one object crop.

    Two difference cues are summed: the crop against the generated
    background, and the crop against the same image region one tube frame
    earlier (motion), which recovers foreground areas that happen to match
    the background's colors.  The binarization threshold starts high and
    drops until the mask covers a plausible share of the box, then the
    largest connected component, holes filled, becomes the mask.
    """
    if crop.shape != background_crop.shape:
        raise ValueError(f"crop {crop.shape} vs background {background_crop.shape}")
    # channel sums against ``c * threshold`` decide exactly as the channel
    # means against ``threshold``, with the motion cue clamped at 255 * c
    combined, channels = channel_absdiff_sum(crop, background_crop)
    if previous_crop is not None:
        if previous_crop.shape != crop.shape:
            raise ValueError(f"crop {crop.shape} vs previous {previous_crop.shape}")
        combined += channel_absdiff_sum(crop, previous_crop)[0]
        np.minimum(combined, 255 * channels, out=combined)

    threshold = cfg.initial_threshold
    fg = combined > channels * threshold
    while fg.mean() < cfg.min_foreground_ratio and threshold > cfg.threshold_floor:
        threshold = max(threshold - cfg.threshold_decrement, cfg.threshold_floor)
        fg = combined > channels * threshold

    fg = binary_close(binary_open(fg, cfg.morphology_kernel), cfg.morphology_kernel)
    component = largest_component(fg)
    if component is None:
        return ObjectMask(pixels=np.ones(crop.shape[:2], dtype=bool), is_fallback=True)
    mask = ObjectMask(pixels=component, is_fallback=False)
    if mask.foreground_ratio < cfg.min_foreground_ratio:
        return ObjectMask(pixels=component, is_fallback=True)
    return mask


def stitch_frame(
    background: np.ndarray,
    placed_objects: Sequence[tuple[np.ndarray, ObjectMask, tuple[int, int]]],
) -> np.ndarray:
    """Paint object crops onto a copy of the background, in list order.

    Each entry is (crop, mask, (left, top)); masked pixels overwrite, later
    entries win in overlaps, everything outside all masks stays bit-identical
    to the background.
    """
    out = background.copy()
    height, width = background.shape[:2]
    for crop, mask, (left, top) in placed_objects:
        ch, cw = crop.shape[:2]
        if mask.pixels.shape != (ch, cw):
            raise RenderError(f"mask {mask.pixels.shape} does not fit crop {(ch, cw)}")
        if left < 0 or top < 0 or left + cw > width or top + ch > height:
            raise RenderError(
                f"object at ({left}, {top}) size {cw}x{ch} exceeds the "
                f"{width}x{height} frame"
            )
        region = out[top : top + ch, left : left + cw]
        region[mask.pixels] = crop[mask.pixels]
    return out


@dataclass(frozen=True)
class RenderedFrame:
    index: int
    pixels: np.ndarray
    contributions: tuple[tuple[int, int], ...]  # (tube id, source frame)


def _crop(pixels: np.ndarray, box: list[int]) -> np.ndarray:
    left, top, width, height = box
    return pixels[top : top + height, left : left + width]


def _source_frame(frames: Sequence[np.ndarray], index: int, tid: int, background: np.ndarray) -> np.ndarray:
    """Source frame ``index`` for tube ``tid``; a ``RenderError`` unless it
    has the background's size and number of channels."""
    try:
        source = frames[index]
    except (IndexError, KeyError) as exc:
        raise RenderError(f"source frame {index} for tube {tid} unavailable: {exc}") from None
    if source.shape[:2] != background.shape[:2]:
        raise RenderError(
            f"source frame {index} is {source.shape[1]}x{source.shape[0]}, "
            f"the background is {background.shape[1]}x{background.shape[0]}"
        )
    if source.shape != background.shape:
        channels = [p.shape[2] if p.ndim == 3 else 1 for p in (source, background)]
        raise RenderError(
            f"source frame {index} has {channels[0]}-channel pixels, "
            f"the background has {channels[1]}-channel pixels"
        )
    return source


def _compose(
    index: int,
    entries: list[tuple[int, int, int]],
    tubes: Mapping[int, Tube],
    sources: Mapping[int, np.ndarray],
    background: np.ndarray,
    cfg: SegmentationConfig,
) -> RenderedFrame:
    """One synopsis frame from its (tube id, tube frame k, source frame)
    entries, in paint order.  Its crops die with it, so between synopsis
    frames only ``sources`` holds source frames."""
    placed = []
    for tid, k, frame in entries:
        box = tubes[tid].coords[k].tolist()
        crop = _crop(sources[frame], box)
        previous = None
        if k > 0:
            # Same image region, previous tube frame: a motion cue rather
            # than a re-crop at the previous box position.
            previous = _crop(sources[frame - 1], box)
        mask = segment(crop, _crop(background, box), previous, cfg)
        placed.append((crop, mask, (box[0], box[1])))
    return RenderedFrame(
        index=index,
        pixels=stitch_frame(background, placed),
        contributions=tuple((tid, frame) for tid, _, frame in entries),
    )


def render_synopsis(
    schedule: SynopsisSchedule,
    tubes: Mapping[int, Tube],
    frames: Sequence[np.ndarray],
    background: np.ndarray,
    cfg: SegmentationConfig,
) -> Iterator[RenderedFrame]:
    """Yield synopsis frames in order.

    For every synopsis frame, each tube with a box mapped there contributes a
    segmented crop from its source frame; paint order is ascending synopsis
    start of the owning group, ties by tube id.  The schedule holds each
    tube once, so one walk over its placements maps every box.

    Source frames are carried from one synopsis frame to the next, so a
    frame that both need is read once.  Before a synopsis frame reads any,
    every carried frame it does not need is dropped: at most one synopsis
    frame's source frames are held.

    A tube not in ``tubes``, a ``synopsis_length`` other than the last tube
    end and a frame source too short for a tube are a ``RenderError`` by the
    first frame; a source frame whose size or channels differ from the
    background's is one when it is read.
    """
    per_frame: dict[int, list[tuple[tuple[int, int], int, int]]] = {}
    last = (-1, None)  # greatest (last source frame, tube)
    for group, s in schedule.placements:
        for tid, off in group.members:
            if tid not in tubes:
                raise RenderError(f"schedule references unknown tube {tid}")
            tube = tubes[tid]
            for k in range(tube.length):
                per_frame.setdefault(s + off + k, []).append(((s, tid), tid, k))
            last = max(last, (tube.end, tid))
    try:
        check_synopsis_length(schedule, tubes)
    except ValueError as exc:
        raise RenderError(str(exc)) from None
    if last[0] >= len(frames):
        raise RenderError(f"frame source has {len(frames)} frames, tube {last[1]} needs {last[0] + 1}")

    sources: dict[int, np.ndarray] = {}
    for s in range(schedule.synopsis_length):
        entries = [(tid, k, tubes[tid].start + k) for _, tid, k in sorted(per_frame.get(s, []))]
        needs: dict[int, int] = {}  # source frame -> first tube needing it
        for tid, k, frame in entries:
            for needed in (frame - 1, frame) if k > 0 else (frame,):
                needs.setdefault(needed, tid)
        for stale in sources.keys() - needs.keys():
            del sources[stale]
        for needed, tid in needs.items():
            if needed not in sources:
                sources[needed] = _source_frame(frames, needed, tid, background)
        yield _compose(s, entries, tubes, sources, background, cfg)
