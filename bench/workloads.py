"""Seeded workload generators and the writers for their on-disk inputs.

The generators and writers live here, apart from the package and its test
helpers, so that a change to the program cannot silently change what the
benchmark feeds it.  Tube geometry comes from the standard library's
``random.Random`` (stable across Python and numpy versions); only the
pixel frames of ``clip_720p`` use numpy.

A tube is ``(tube_id, start_frame, boxes)`` with 0-based frames and
``boxes`` a list of ``(left, top, width, height)``, one per frame: tubes
are gapless and lie fully inside the frame, so parsing them back is exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Box = tuple[int, int, int, int]
TubeSpec = tuple[int, int, list[Box]]

WIDTH, HEIGHT = 1280, 720
# per-channel sensor noise of clip frames; far under the empty-frame gate's
# default binary threshold of 30, so quiet frames stay empty
SENSOR_NOISE = 4


@dataclass
class Workload:
    """Everything a workload run needs: geometry, config, tubes, stage chain."""

    name: str
    frame_count: int
    tubes: list[TubeSpec]
    config: dict
    chain: tuple[str, ...]
    sizes: dict
    # clip workloads only: source frames to write as PPM files
    clip: "Clip | None" = None
    files: dict[str, Path] = field(default_factory=dict)


@dataclass
class Clip:
    background: np.ndarray
    objects: list["ClipObject"]
    seed: int


@dataclass
class ClipObject:
    tube_id: int
    start: int
    boxes: list[Box]
    texture: np.ndarray  # (h, w, 3) uint8 appearance, fixed over the tube


def _random_walk(rng: random.Random, length: int, w: int, h: int, x: int, y: int, step: int) -> list[Box]:
    boxes = []
    for _ in range(length):
        boxes.append((x, y, w, h))
        x = min(max(x + rng.randint(-step, step), 0), WIDTH - w)
        y = min(max(y + rng.randint(-step, step), 0), HEIGHT - h)
    return boxes


def _stratified(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [0, 1), shuffled."""
    draws = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def random_walk_tubes(
    seed: int,
    count: int,
    frame_count: int,
    length_range: tuple[int, int],
    companion_share: float,
    size_range: tuple[int, int] = (20, 48),
    step: int = 3,
    offset: int = 12,
) -> list[TubeSpec]:
    """Random-walk tubes spread over the source video.

    Lengths and start frames are stratified, so every seed gives a scene of
    the same density and concurrency that differs only in detail; this keeps
    run-to-run spread down to what the program does with the detail.  A
    ``companion_share`` of the tubes start next to a leader tube, in time
    and in space, so the grouping stage sees related pairs; companions
    attach to leaders only, which keeps groups from chaining into a few
    giant ones.
    """
    rng = random.Random(seed)
    companions = round(count * companion_share)
    leaders = count - companions
    lo, hi = length_range
    tubes: list[TubeSpec] = []
    for u_len, u_start in zip(_stratified(rng, leaders), _stratified(rng, leaders)):
        length = lo + int(u_len * (hi - lo + 1))
        start = int(u_start * (frame_count - length + 1))
        w, h = rng.randint(*size_range), rng.randint(*size_range)
        x, y = rng.randint(0, WIDTH - w), rng.randint(0, HEIGHT - h)
        tubes.append((len(tubes) + 1, start, _random_walk(rng, length, w, h, x, y, step)))
    partners = list(range(leaders))
    rng.shuffle(partners)
    for k, u_len in enumerate(_stratified(rng, companions)):
        _, lead_start, lead_boxes = tubes[partners[k % leaders]]
        length = lo + int(u_len * (hi - lo + 1))
        start = min(max(0, lead_start + rng.randint(-20, 20)), frame_count - length)
        w, h = rng.randint(*size_range), rng.randint(*size_range)
        x = min(max(lead_boxes[0][0] + rng.randint(-offset, offset), 0), WIDTH - w)
        y = min(max(lead_boxes[0][1] + rng.randint(-offset, offset), 0), HEIGHT - h)
        tubes.append((len(tubes) + 1, start, _random_walk(rng, length, w, h, x, y, step)))
    tubes.sort(key=lambda t: (t[1], t[0]))
    return tubes


def _config(frame_count: int, **scheduler) -> dict:
    cfg: dict = {"video": {"width": WIDTH, "height": HEIGHT, "frame_count": frame_count, "fps": 30.0}}
    if scheduler:
        cfg["scheduler"] = scheduler
    return cfg


def crowded(seed: int, count: int = 220, frame_count: int = 2400) -> Workload:
    tubes = random_walk_tubes(seed, count, frame_count, (100, 300), companion_share=0.4, size_range=(28, 64))
    return Workload(
        name="crowded",
        frame_count=frame_count,
        tubes=tubes,
        config=_config(frame_count, collision_threshold=0.05),
        chain=("synopsize", "score"),
        sizes={"tubes": count, "source_frames": frame_count, "rows": _rows(tubes)},
    )


def sparse_long(seed: int, count: int = 250, frame_count: int = 10_000) -> Workload:
    tubes = random_walk_tubes(seed, count, frame_count, (60, 180), companion_share=0.25)
    return Workload(
        name="sparse_long",
        frame_count=frame_count,
        tubes=tubes,
        config=_config(frame_count),
        chain=("synopsize", "score"),
        sizes={"tubes": count, "source_frames": frame_count, "rows": _rows(tubes)},
    )


def _background(rng: np.random.Generator) -> np.ndarray:
    """Static textured scene: smooth shading, a few flat regions, fine grain."""
    yy, xx = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float32)
    base = np.empty((HEIGHT, WIDTH, 3), dtype=np.float32)
    for c in range(3):
        fx, fy, phase = rng.uniform(0.002, 0.008), rng.uniform(0.002, 0.008), rng.uniform(0, 6.3)
        base[..., c] = 115 + 20 * np.sin(xx * fx + yy * fy + phase)
    for _ in range(6):
        x0, y0 = int(rng.integers(0, WIDTH - 200)), int(rng.integers(0, HEIGHT - 120))
        base[y0 : y0 + int(rng.integers(40, 120)), x0 : x0 + int(rng.integers(80, 200))] += rng.uniform(-15, 15, 3)
    base += rng.normal(0, 4, (HEIGHT, WIDTH, 1)).astype(np.float32)
    return np.clip(base, 90, 160).astype(np.uint8)


def _object_texture(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Bright or dark object with vertical banding, far from the background."""
    tone = rng.uniform(215, 245, 3) if rng.random() < 0.5 else rng.uniform(15, 45, 3)
    bands = 8 * np.sin(np.arange(h, dtype=np.float32)[:, None, None] * rng.uniform(0.2, 0.6))
    tex = tone[None, None, :] + bands + rng.normal(0, 3, (h, w, 3))
    return np.clip(tex, 0, 255).astype(np.uint8)


def clip_720p(
    seed: int, bursts: int = 3, per_burst: int = 5, quiet: int = 4, life: tuple[int, int] = (12, 16)
) -> Workload:
    """Pixel clip: quiet stretches around bursts of concurrent movers.

    Each burst's objects appear, fully inside the frame, within a few frames
    of the burst start and move on straight lines; the frames between bursts
    hold only the static scene plus sensor noise.
    """
    rng = np.random.default_rng(seed)
    background = _background(rng)
    objects: list[ClipObject] = []
    frame = quiet
    tid = 0
    for _ in range(bursts):
        end = frame
        for _ in range(per_burst):
            tid += 1
            length = int(rng.integers(life[0], life[1] + 1))
            start = frame + int(rng.integers(0, 6))
            w, h = int(rng.integers(36, 64)), int(rng.integers(80, 140))
            vx, vy = int(rng.integers(3, 9)) * (1 if rng.random() < 0.5 else -1), int(rng.integers(-2, 3))
            # pick the entry point so the whole straight path stays inside
            xs = (0, vx * (length - 1))
            ys = (0, vy * (length - 1))
            x0 = int(rng.integers(-min(xs), WIDTH - w - max(xs)))
            y0 = int(rng.integers(-min(ys), HEIGHT - h - max(ys)))
            boxes = [(x0 + vx * k, y0 + vy * k, w, h) for k in range(length)]
            objects.append(ClipObject(tid, start, boxes, _object_texture(rng, w, h)))
            end = max(end, start + length)
        frame = end + quiet
    frame_count = frame
    tubes = [(o.tube_id, o.start, o.boxes) for o in objects]
    tubes.sort(key=lambda t: (t[1], t[0]))
    return Workload(
        name="clip_720p",
        frame_count=frame_count,
        tubes=tubes,
        config=_config(frame_count),
        chain=("extract", "synopsize", "render", "score"),
        sizes={
            "tubes": len(tubes),
            "source_frames": frame_count,
            "rows": _rows(tubes),
            "width": WIDTH,
            "height": HEIGHT,
        },
        clip=Clip(background=background, objects=objects, seed=seed),
    )


WORKLOADS = {"crowded": crowded, "sparse_long": sparse_long, "clip_720p": clip_720p}


def _rows(tubes: list[TubeSpec]) -> int:
    return sum(len(boxes) for _, _, boxes in tubes)


def write_csv(tubes: list[TubeSpec], path: Path) -> None:
    """MOT-style rows ``frame,id,left,top,width,height,conf,label,vis``,
    1-based frames, ordered by frame then id as trackers emit them."""
    rows = [
        (start + k + 1, tid, box)
        for tid, start, boxes in tubes
        for k, box in enumerate(boxes)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w") as fh:
        for frame, tid, (l, t, w, h) in rows:
            fh.write(f"{frame},{tid},{l},{t},{w},{h},1,1,1\n")


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Reader for the binary P6 files the program writes (one header line)."""
    data = Path(path).read_bytes()
    fields = data.split(maxsplit=4)
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 image")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=len(data) - w * h * 3).reshape(h, w, 3)


def clip_frame(clip: Clip, index: int) -> np.ndarray:
    """Source frame ``index``: background, sensor noise, then objects by id."""
    rng = np.random.default_rng((clip.seed, index))
    noise = rng.integers(-SENSOR_NOISE, SENSOR_NOISE + 1, size=clip.background.shape, dtype=np.int16)
    out = (clip.background.astype(np.int16) + noise).astype(np.uint8)
    for obj in clip.objects:
        k = index - obj.start
        if 0 <= k < len(obj.boxes):
            l, t, w, h = obj.boxes[k]
            out[t : t + h, l : l + w] = obj.texture
    return out


def materialize(workload: Workload, root: Path) -> None:
    """Write the workload's input files under ``root`` (not timed)."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")
    workload.files["config"] = config
    # a clip's CSV is the detector's answers for extract; otherwise it is the tube file
    kind = "detections" if workload.clip is not None else "tubes"
    workload.files[kind] = root / f"{kind}.csv"
    write_csv(workload.tubes, workload.files[kind])
    if workload.clip is not None:
        frames = root / "frames"
        frames.mkdir(exist_ok=True)
        for index in range(workload.frame_count):
            write_ppm(frames / f"{index:06d}.ppm", clip_frame(workload.clip, index))
        workload.files["frames"] = frames
