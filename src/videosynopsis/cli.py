"""Command-line pipeline driver.

Each stage of the pipeline is exposed as a subcommand so evaluation
workflows can re-run any stage from its on-disk inputs:

    init       write a config file with every default spelled out
    extract    frames + detections -> tube CSV, background samples, log
    synopsize  tube CSV -> schedule JSON + metrics report
    render     schedule + tubes + frames -> synopsis frames + manifest
    score      any schedule JSON + tubes -> metrics report
    sweep      tube CSV -> one report per collision threshold

Exit codes: 0 success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
import zipfile
from collections import deque
from pathlib import Path

import numpy as np

from .core import SynopsisSchedule, Tube, VideoMeta
from .frames import (
    FrameSequence,
    ImageDirectoryFrames,
    RawVideoFrames,
    check_writable,
    read_image,
    write_image,
)
from .grouping import GroupingConfig, build_groups, dump_pair_table
from .ingest import (
    BackgroundSampleStore,
    EmptyFrameConfig,
    FileDetectionSource,
    parse_annotations,
    run_extraction,
    serialize_annotations,
)
from .metrics import format_report, format_sweep_table, score_schedule
from .render import SegmentationConfig, generate_background, render_synopsis
from .scheduler import (
    SchedulerConfig,
    rearrange,
    schedule_from_dict,
    schedule_to_dict,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


@dataclasses.dataclass
class PipelineConfig:
    """Aggregate of every stage's knobs plus the source-video geometry."""

    video: VideoMeta
    grouping: GroupingConfig = dataclasses.field(default_factory=GroupingConfig)
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)
    segmentation: SegmentationConfig = dataclasses.field(default_factory=SegmentationConfig)
    empty_frame: EmptyFrameConfig = dataclasses.field(default_factory=EmptyFrameConfig)
    frame_source: typing.Literal["directory", "raw"] = "directory"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @classmethod
    def defaults(cls) -> "PipelineConfig":
        return cls(video=VideoMeta(width=1280, height=720, frame_count=1000, fps=30.0))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: object) -> "PipelineConfig":
        return _build(cls, data, "config")

    @classmethod
    def load(cls, path: str | Path | None) -> "PipelineConfig":
        if path is None:
            return cls.defaults()
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config not found: {path}")
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except ValueError as exc:
            raise ValueError(f"bad config {path}: {exc}") from None


def _build(want: object, value: object, where: str) -> object:
    """Check a JSON value against the type hint ``want`` and build it.

    A dataclass is read from an object whose keys name its fields, each
    built from that field's hint; a field whose hint is a dataclass is a
    section.  ``int`` takes an integer and ``float`` any finite number (a
    bool is neither), ``str`` a string, ``Literal`` one of its values, and a
    tuple an array of its length (any length for ``tuple[X, ...]``).  Any of
    these may be ``| None``.  A mismatch is a ``ValueError`` naming ``where``.
    """
    if type(None) in typing.get_args(want):  # ``X | None``
        if value is None:
            return None
        (want,) = set(typing.get_args(want)) - {type(None)}
    args = typing.get_args(want)
    if dataclasses.is_dataclass(want):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
        hints = typing.get_type_hints(want)
        for name in value:
            if name not in hints:
                raise ValueError(f"unknown field {name!r} in {where}")
        built = {}
        for field in dataclasses.fields(want):
            name, hint = field.name, hints[field.name]
            section = dataclasses.is_dataclass(hint)
            if name in value:
                inner = f"section {name!r}" if section else f"{where} field {name!r}"
                built[name] = _build(hint, value[name], inner)
            elif field.default is field.default_factory is dataclasses.MISSING:
                raise ValueError(f"{where} has no {name!r} {'section' if section else 'field'}")
        return want(**built)
    if typing.get_origin(want) is tuple:
        variadic = len(args) == 2 and args[1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            size = "" if variadic else f" of {len(args)} items"
            raise ValueError(f"{where} must be a list{size}, got {value!r}")
        items = args[:1] * len(value) if variadic else args
        return tuple(_build(t, v, f"{where}[{k}]") for k, (t, v) in enumerate(zip(items, value)))
    if typing.get_origin(want) is typing.Literal:
        if value not in args:
            raise ValueError(f"{where} must be one of {', '.join(map(repr, args))}, got {value!r}")
        return value
    accepted = {int: int, float: (int, float), str: str}[want]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be {want.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"{where} must be a finite float, got {value!r}")
    return value


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _open_frames(path: str, cfg: PipelineConfig) -> FrameSequence:
    if cfg.frame_source == "raw":
        return RawVideoFrames(path, cfg.video.width, cfg.video.height)
    return ImageDirectoryFrames(path)


T = typing.TypeVar("T")


def _read(path: str, what: str, parse: typing.Callable[[typing.IO[str]], T]) -> T:
    """``parse`` of the text file at ``path``.  A missing file, bytes that
    are not text or malformed JSON are bad input naming the file as
    ``what``."""
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            return parse(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{what} {path}: {exc}") from None


def _load_tubes(path: str, cfg: PipelineConfig):
    return _read(path, "tubes", lambda fh: parse_annotations(fh, cfg.video))


def _load_schedule(path: str, tubes: typing.Mapping[int, Tube]) -> SynopsisSchedule:
    return schedule_from_dict(_read(path, "schedule", json.load), tubes)


def _save_store(store: BackgroundSampleStore, path: Path) -> None:
    samples = store.samples
    pixels = np.stack([p for p, _ in samples])
    grid = pixels.shape[1:3]
    validity = np.stack(
        [np.ones(grid, dtype=bool) if v is None else v for _, v in samples]
    )
    np.savez(path, samples=pixels, validity=validity, capacity=store.capacity)


def _load_store(path: Path, meta: VideoMeta) -> BackgroundSampleStore:
    """Read the samples ``extract`` wrote, checking each field against
    ``meta``'s frame size."""
    if not path.is_file():
        raise FileNotFoundError(f"background samples not found: {path}")
    if not zipfile.is_zipfile(path):
        raise ValueError(f"background samples {path}: not an .npz archive")
    with np.load(path) as data:
        for name in ("samples", "validity", "capacity"):
            if name not in data.files:
                raise ValueError(f"background samples {path}: field {name!r} is missing")
        samples, validity, capacity = data["samples"], data["validity"], data["capacity"]

    def bad(name: str, want: str, array: np.ndarray) -> ValueError:
        return ValueError(
            f"background samples {path}: field {name!r} must be {want}, "
            f"got {array.dtype} of shape {array.shape}"
        )

    grid = (meta.height, meta.width)
    if samples.dtype != np.uint8 or samples.shape[1:] not in (grid, grid + (3,)) or not len(samples):
        raise bad("samples", f"uint8 of shape (n >= 1, {meta.height}, {meta.width}[, 3])", samples)
    n = len(samples)
    if validity.dtype != bool or validity.shape != (n,) + grid:
        raise bad("validity", f"bool of shape ({n}, {meta.height}, {meta.width})", validity)
    if capacity.shape != () or capacity.dtype.kind not in "iu" or capacity < n:
        raise bad("capacity", f"an integer of at least {n}, the sample count", capacity)
    store = BackgroundSampleStore(int(capacity))
    for pixels, valid in zip(samples, validity):
        store.push(pixels, valid)
    return store


def cmd_init(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.defaults()
    fields = ("width", "height", "frame_count", "fps")
    given = {k: v for k in fields if (v := getattr(args, k)) is not None}
    cfg.video = dataclasses.replace(cfg.video, **given)
    _dump_json(cfg.to_dict(), Path(args.out))
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.load(args.config)
    source = _read(args.detections, "detections", FileDetectionSource)
    frames = _open_frames(args.frames, cfg)
    source.check_within(min(len(frames), cfg.video.frame_count))

    result = run_extraction(frames, source, cfg.empty_frame, cfg.video)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "tubes.csv", "w") as fh:
        serialize_annotations(result.tubes, fh)
    if len(result.store):
        _save_store(result.store, out_dir / "background_samples.npz")
    log_rows = [
        {
            "frame": r.frame,
            "mode": r.mode,
            "queried": r.queried,
            "judged_empty": r.judged_empty,
        }
        for r in result.log
    ]
    _dump_json({"frames": log_rows}, out_dir / "extraction_log.json")
    print(
        f"extracted {len(result.tubes)} tubes; detector queried on "
        f"{result.detector_queries}/{len(result.log)} frames"
    )
    return EXIT_OK


def cmd_synopsize(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.load(args.config)
    tubes = _load_tubes(args.tubes, cfg)
    groups = build_groups(tubes, cfg.grouping)
    schedule = rearrange(groups, {t.id: t for t in tubes}, cfg.scheduler)
    # an object-free video has an empty schedule, which render accepts
    report = score_schedule(schedule, tubes, cfg.video) if tubes else None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.pair_table:
        with open(args.pair_table, "w") as fh:
            dump_pair_table(tubes, fh)
    _dump_json(schedule_to_dict(schedule), out_dir / "schedule.json")
    if report is None:
        print("warning: no tubes, nothing to score; wrote an empty schedule", file=sys.stderr)
        return EXIT_OK
    _dump_json(report.to_dict(), out_dir / "metrics.json")
    (out_dir / "metrics.txt").write_text(format_report(report) + "\n")
    print(format_report(report))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    # only render writes in threads; the other subcommands skip the import
    from concurrent.futures import ThreadPoolExecutor

    cfg = PipelineConfig.load(args.config)
    if args.threads:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    tubes = _load_tubes(args.tubes, cfg)
    by_id = {t.id: t for t in tubes}
    schedule = _load_schedule(args.schedule, by_id)

    out_dir = Path(args.out_dir)
    if schedule.synopsis_length == 0:
        print("warning: schedule is empty, no frames to render", file=sys.stderr)
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json({"synopsis_length": 0, "frames": {}}, out_dir / "manifest.json")
        return EXIT_OK

    ext = args.image_format
    check_writable(out_dir / f"background.{ext}")  # before anything is written
    frames = _open_frames(args.frames, cfg)
    scheduled = [by_id[tid] for group in schedule.groups for tid in group.tube_ids]
    last, tid = max(((t.end, t.id) for t in scheduled), default=(-1, None))
    if last >= len(frames):
        raise ValueError(
            f"frame source {args.frames} has {len(frames)} frames, "
            f"tube {tid} needs {last + 1}"
        )
    if args.background:
        background = read_image(args.background)
        if background.shape[:2] != (cfg.video.height, cfg.video.width):
            raise ValueError(
                f"background {args.background} is {background.shape[1]}x{background.shape[0]}, "
                f"the config's video is {cfg.video.width}x{cfg.video.height}"
            )
    else:
        # extract writes the sample store beside the tube file
        samples = (
            Path(args.samples)
            if args.samples
            else Path(args.tubes).parent / "background_samples.npz"
        )
        background = generate_background(_load_store(samples, cfg.video))
    if scheduled:  # one source frame's size, checked before any output exists
        first = min(t.start for t in scheduled)
        shape = frames.frame(first).shape
        if shape[:2] != background.shape[:2]:
            raise ValueError(
                f"source frame {first} is {shape[1]}x{shape[0]}, "
                f"the background is {background.shape[1]}x{background.shape[0]}"
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_image(out_dir / f"background.{ext}", background)
    manifest: dict[str, list[list[int]]] = {}
    rendered = render_synopsis(schedule, by_id, frames, background, cfg.segmentation)
    digits = max(6, len(str(schedule.synopsis_length)))

    # at most ``threads`` rendered frames wait for their writes, so memory
    # stays flat however long the synopsis is
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        pending: deque = deque()
        for item in rendered:
            manifest[str(item.index)] = [[tid, src] for tid, src in item.contributions]
            if len(pending) == cfg.threads:
                pending.popleft().result()
            path = out_dir / f"frame_{item.index:0{digits}d}.{ext}"
            pending.append(pool.submit(write_image, path, item.pixels))
        for future in pending:
            future.result()
    _dump_json(
        {"synopsis_length": schedule.synopsis_length, "frames": manifest},
        out_dir / "manifest.json",
    )
    print(f"rendered {schedule.synopsis_length} frames to {out_dir}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.load(args.config)
    tubes = _load_tubes(args.tubes, cfg)
    by_id = {t.id: t for t in tubes}
    schedule = _load_schedule(args.schedule, by_id)
    report = score_schedule(schedule, tubes, cfg.video)
    if args.out:
        _dump_json(report.to_dict(), Path(args.out))
    print(format_report(report))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.load(args.config)
    tubes = _load_tubes(args.tubes, cfg)
    by_id = {t.id: t for t in tubes}
    groups = build_groups(tubes, cfg.grouping)
    thresholds = [float(v) for v in args.thresholds.split(",") if v.strip()]
    if not thresholds:
        raise ValueError("no thresholds given")

    rows = []
    for threshold in thresholds:
        sched_cfg = dataclasses.replace(
            cfg.scheduler, collision_threshold=threshold, shift_levels=None
        )
        schedule = rearrange(groups, by_id, sched_cfg)
        report = score_schedule(schedule, tubes, cfg.video)
        rows.append((threshold, report))

    table = format_sweep_table(rows)
    print(table)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.txt").write_text(table + "\n")
        _dump_json(
            {
                "levels": [
                    {"threshold": threshold, **report.to_dict()}
                    for threshold, report in rows
                ]
            },
            out_dir / "sweep.json",
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videosynopsis",
        description="Condense a static-camera video by rearranging object tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a config file with all defaults")
    p.add_argument("--out", default="config.json")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--frame-count", type=int)
    p.add_argument("--fps", type=float)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("extract", help="run the frame/detection extraction stage")
    p.add_argument("--frames", required=True, help="frame directory or raw RGB24 file")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synopsize", help="group, schedule, and score tubes")
    p.add_argument("--tubes", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pair-table", default=None, help="dump per-pair grouping costs as CSV")
    p.set_defaults(func=cmd_synopsize)

    p = sub.add_parser("render", help="synthesize synopsis frames")
    p.add_argument("--schedule", required=True)
    p.add_argument("--tubes", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--samples", default=None, help="background sample NPZ from extract")
    p.add_argument("--background", default=None, help="explicit background image")
    p.add_argument("--image-format", default="ppm")
    p.add_argument("--threads", type=int, default=0, help="cap render worker count")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("score", help="score any schedule JSON against a tube file")
    p.add_argument("--schedule", required=True)
    p.add_argument("--tubes", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep", help="rearrange at several collision thresholds")
    p.add_argument("--tubes", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--thresholds", required=True, help="comma-separated threshold list")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
