"""Command-line pipeline driver.

Each stage of the pipeline is exposed as a subcommand so evaluation
workflows can re-run any stage from its on-disk inputs:

    init       write a config file with every default spelled out
    extract    frames + detections -> tube CSV, background samples, log
    synopsize  tube CSV -> schedule JSON + metrics report
    render     schedule + tubes + frames -> synopsis frames + manifest
    score      any schedule JSON + tubes -> metrics report
    sweep      tube CSV -> one report per collision threshold

Outputs are staged and renamed into ``--out-dir`` only when the run
succeeds, so a failed run leaves ``--out-dir`` as it was.  Exit codes: 0
success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import shutil
import sys
import tempfile
import typing
import zipfile
import zlib
from collections import deque
from pathlib import Path

import numpy as np

from .core import VideoMeta, check_places_exactly
from .frames import ImageDirectoryFrames, RawVideoFrames, check_writable, read_image, write_image
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
_STAGING_PREFIX = ".videosynopsis-staging-"


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
        return _read(path, "config", lambda fh: cls.from_dict(json.load(fh)))


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


@contextlib.contextmanager
def _publish(out_dir: Path, *stale: str) -> typing.Iterator[Path]:
    """A staging directory, in an existing ``out_dir`` or beside a new one,
    whose files are renamed into ``out_dir`` in name order if the body
    returns, removing the unstaged files that match a ``stale`` pattern."""
    home = out_dir if out_dir.is_dir() else out_dir.parent
    home.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=home))
    try:
        yield staging
        out_dir.mkdir(exist_ok=True)
        staged = sorted(path.name for path in staging.iterdir())
        for name in staged:
            os.replace(staging / name, out_dir / name)
        for path in (path for pattern in stale for path in out_dir.glob(pattern)):
            if path.name not in staged and not path.is_dir():
                path.unlink()
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@contextlib.contextmanager
def _publish_file(path: Path) -> typing.Iterator[Path]:
    """A path in a staging directory beside ``path``, renamed to ``path`` if
    the body returns; the staging directory goes either way."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    staging = Path(tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=path.parent))
    try:
        yield staging / path.name
        os.replace(staging / path.name, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _open_frames(path: str, cfg: PipelineConfig) -> typing.Sequence[np.ndarray]:
    if cfg.frame_source == "raw":
        return RawVideoFrames(path, cfg.video.width, cfg.video.height)
    return ImageDirectoryFrames(path)


T = typing.TypeVar("T")


def _read(path: str | Path, what: str, parse: typing.Callable[[typing.IO], T], mode: str = "r") -> T:
    """``parse`` of the file at ``path`` opened in ``mode``.  A missing
    file, and any ``ValueError`` or ``RecursionError`` of ``parse`` (bytes
    that are not text, malformed or over-nested JSON, a broken rule, a
    damaged archive), are bad input naming the file as ``what``."""
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path, mode) as fh:
        try:
            return parse(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{what} {path}: {exc}") from None


def _load_tubes(path: str, cfg: PipelineConfig):
    return _read(path, "tubes", lambda fh: parse_annotations(fh, cfg.video))


def _save_store(store: BackgroundSampleStore, path: Path) -> None:
    """Write the uncompressed ``.npz`` that ``np.savez`` would of the stacked
    samples, masks (all true for ``None``) and capacity, one sample at a
    time, so the stack is never built."""
    samples = store.samples
    shape = samples[0][0].shape
    everywhere = np.ones(shape[:2], bool)
    members = (
        ("samples", np.uint8, shape, [p for p, _ in samples]),
        ("validity", bool, shape[:2], [everywhere if v is None else v for _, v in samples]),
    )
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for name, dtype, part_shape, parts in members:
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                descr = np.lib.format.dtype_to_descr(np.dtype(dtype))
                header = {"descr": descr, "fortran_order": False, "shape": (len(samples), *part_shape)}
                np.lib.format.write_array_header_1_0(fh, header)
                for part in parts:
                    fh.write(np.ascontiguousarray(part))
        with archive.open("capacity.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array(fh, np.asarray(store.capacity))


def _load_store(path: Path, meta: VideoMeta) -> BackgroundSampleStore:
    """Read the samples ``extract`` wrote, checking each field against
    ``meta``'s frame size."""
    return _read(path, "background samples", lambda fh: _parse_store(fh, meta), mode="rb")


def _parse_store(fh: typing.IO[bytes], meta: VideoMeta) -> BackgroundSampleStore:
    if not zipfile.is_zipfile(fh):
        raise ValueError("not an .npz archive")
    try:
        with np.load(fh) as data:
            for name in ("samples", "validity", "capacity"):
                if name not in data.files:
                    raise ValueError(f"field {name!r} is missing")
            samples, validity, capacity = data["samples"], data["validity"], data["capacity"]
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError, RuntimeError) as exc:
        # a damaged archive: a bad CRC or header, a broken compressed stream,
        # a cut-off member, an offset before the file start (OSError), an
        # unknown compression method or a set encryption flag (RuntimeError)
        raise ValueError(f"damaged archive: {exc}") from None

    def bad(name: str, want: str, array: np.ndarray) -> ValueError:
        return ValueError(
            f"field {name!r} must be {want}, got {array.dtype} of shape {array.shape}"
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
    frames = _open_frames(args.frames, cfg)
    limit = min(len(frames), cfg.video.frame_count)
    source = _read(args.detections, "detections", lambda fh: FileDetectionSource(fh, cfg.video, limit))
    result = run_extraction(frames, source, cfg.empty_frame, cfg.video)

    with _publish(Path(args.out_dir), "background_samples.npz") as staging:
        with open(staging / "tubes.csv", "w") as fh:
            serialize_annotations(result.tubes, fh)
        if len(result.store):
            _save_store(result.store, staging / "background_samples.npz")
        log_rows = [dataclasses.asdict(r) for r in result.log]
        _dump_json({"frames": log_rows}, staging / "extraction_log.json")
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

    with contextlib.ExitStack() as stack:
        if args.pair_table:
            table = stack.enter_context(_publish_file(Path(args.pair_table)))
            with open(table, "w") as fh:
                dump_pair_table(tubes, fh)
        with _publish(Path(args.out_dir), "metrics.*") as staging:
            _dump_json(schedule_to_dict(schedule), staging / "schedule.json")
            if report is None:
                print("warning: no tubes, nothing to score; wrote an empty schedule", file=sys.stderr)
                return EXIT_OK
            _dump_json(report.to_dict(), staging / "metrics.json")
            (staging / "metrics.txt").write_text(format_report(report) + "\n")
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
    schedule = _read(args.schedule, "schedule", lambda fh: schedule_from_dict(json.load(fh), by_id))

    out_dir = Path(args.out_dir)
    ext = args.image_format
    stale = (f"frame_*.{ext}", f"background.{ext}")
    if schedule.synopsis_length == 0:
        print("warning: schedule is empty, no frames to render", file=sys.stderr)
        with _publish(out_dir, *stale) as staging:
            _dump_json({"synopsis_length": 0, "frames": {}}, staging / "manifest.json")
        return EXIT_OK

    check_writable(out_dir / f"background.{ext}")  # before anything is written
    frames = _open_frames(args.frames, cfg)
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
    rendered = render_synopsis(schedule, by_id, frames, background, cfg.segmentation)
    manifest: dict[str, list[list[int]]] = {}
    digits = max(6, len(str(schedule.synopsis_length)))

    with _publish(out_dir, *stale) as staging:
        write_image(staging / f"background.{ext}", background)
        # at most ``threads`` rendered frames wait for their writes, so memory
        # stays flat however long the synopsis is
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            pending: deque = deque()
            for item in rendered:
                manifest[str(item.index)] = [[tid, src] for tid, src in item.contributions]
                if len(pending) == cfg.threads:
                    pending.popleft().result()
                path = staging / f"frame_{item.index:0{digits}d}.{ext}"
                pending.append(pool.submit(write_image, path, item.pixels))
            for future in pending:
                future.result()
        manifest_path = staging / "manifest.json"
        _dump_json({"synopsis_length": schedule.synopsis_length, "frames": manifest}, manifest_path)
    print(f"rendered {schedule.synopsis_length} frames to {out_dir}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.load(args.config)
    tubes = _load_tubes(args.tubes, cfg)
    by_id = {t.id: t for t in tubes}
    # a schedule that misplaces the tube set is the file's fault; an empty tube set is not
    schedule = _read(
        args.schedule, "schedule", lambda fh: check_places_exactly(schedule_from_dict(json.load(fh), by_id), by_id)
    )
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
        with _publish(Path(args.out_dir)) as staging:
            (staging / "sweep.txt").write_text(table + "\n")
            levels = [{"threshold": threshold, **report.to_dict()} for threshold, report in rows]
            _dump_json({"levels": levels}, staging / "sweep.json")
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
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError, ValueError) as exc:
        # the OS errors: a path of the wrong kind, e.g. a file for --out-dir
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
