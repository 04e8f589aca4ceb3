"""Output correctness checks, written apart from the package under test.

Every check returns a list of human-readable problems; an empty list means
the output is correct.  The metric check recomputes FR, CA and CDR by brute
force from the generator's own tubes, so it shares no code with
``videosynopsis.metrics``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import TubeSpec, read_ppm


def _tube_index(tubes: list[TubeSpec]) -> dict[int, TubeSpec]:
    return {t[0]: t for t in tubes}


def tube_starts(schedule: dict) -> dict[int, int]:
    """Synopsis start per tube id; a tube placed twice keeps its first start."""
    starts: dict[int, int] = {}
    for placement in schedule["placements"]:
        for tid, start in placement["per_tube_starts"].items():
            starts.setdefault(int(tid), int(start))
    return starts


def check_schedule(schedule: dict, tubes: list[TubeSpec]) -> list[str]:
    """Every tube placed exactly once, group offsets kept, length covering all."""
    index = _tube_index(tubes)
    problems: list[str] = []
    seen = Counter()
    for placement in schedule["placements"]:
        per_tube = {int(t): int(s) for t, s in placement["per_tube_starts"].items()}
        if sorted(per_tube) != sorted(int(t) for t in placement["tube_ids"]):
            problems.append(f"group {placement['group_index']}: tube_ids disagree with per_tube_starts")
        seen.update(list(per_tube))
        unknown = [t for t in per_tube if t not in index]
        if unknown:
            problems.append(f"group {placement['group_index']}: unknown tubes {unknown}")
            continue
        if int(placement["synopsis_start"]) != min(per_tube.values()):
            problems.append(f"group {placement['group_index']}: start is not its earliest member's")
        src0 = min(index[t][1] for t in per_tube)
        syn0 = int(placement["synopsis_start"])
        for tid, start in per_tube.items():
            if start - syn0 != index[tid][1] - src0:
                problems.append(f"tube {tid}: synopsis offset {start - syn0} != source offset {index[tid][1] - src0}")
    missing = sorted(set(index) - set(seen))
    twice = sorted(t for t, n in seen.items() if n > 1)
    if missing:
        problems.append(f"{len(missing)} tubes never placed, e.g. {missing[:5]}")
    if twice:
        problems.append(f"tubes placed more than once: {twice[:5]}")
    starts = tube_starts(schedule)
    end = max((starts[t] + len(index[t][2]) for t in starts if t in index), default=0)
    if int(schedule["synopsis_length"]) < end:
        problems.append(f"synopsis_length {schedule['synopsis_length']} cuts tubes ending at {end}")
    return problems


def _placed_boxes(tubes: list[TubeSpec], starts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """All boxes as (synopsis frame,) and (left, top, right, bottom) arrays."""
    frames, boxes = [], []
    for tid, _, tube_boxes in tubes:
        arr = np.asarray(tube_boxes, dtype=np.int64)
        frames.append(starts[tid] + np.arange(len(arr)))
        boxes.append(np.column_stack([arr[:, 0], arr[:, 1], arr[:, 0] + arr[:, 2], arr[:, 1] + arr[:, 3]]))
    return np.concatenate(frames), np.concatenate(boxes)


def brute_force_metrics(tubes: list[TubeSpec], starts: dict[int, int], synopsis_length: int, frame_count: int) -> dict:
    """FR, CA, CDR and collision level straight from their definitions.

    CA sums, over every synopsis frame, the pairwise intersection area of
    all boxes shown there; CDR counts tube pairs whose synopsis order
    strictly inverts their source order.
    """
    frames, boxes = _placed_boxes(tubes, starts)
    order = np.argsort(frames, kind="stable")
    frames, boxes = frames[order], boxes[order]
    cuts = np.flatnonzero(np.diff(frames)) + 1
    ca = 0
    for chunk in np.split(boxes, cuts):
        if len(chunk) < 2:
            continue
        l, t, r, b = (chunk[:, i] for i in range(4))
        iw = np.clip(np.minimum(r[:, None], r[None, :]) - np.maximum(l[:, None], l[None, :]), 0, None)
        ih = np.clip(np.minimum(b[:, None], b[None, :]) - np.maximum(t[:, None], t[None, :]), 0, None)
        ca += int(np.triu(iw * ih, k=1).sum())
    ids = [t[0] for t in tubes]
    src = np.array([t[1] for t in tubes], dtype=np.int64)
    syn = np.array([starts[i] for i in ids], dtype=np.int64)
    n = len(ids)
    inversions = int((np.sign(src[:, None] - src[None, :]) * np.sign(syn[:, None] - syn[None, :]) < 0).sum()) // 2
    area = int(sum(w * h for _, _, bs in tubes for _, _, w, h in bs))
    return {
        "fr": synopsis_length / frame_count,
        "ca": ca,
        "cdr": inversions / (n * (n - 1) // 2) if n > 1 else None,
        "collision_level": ca / area,
    }


def check_metrics(report: dict, expected: dict) -> list[str]:
    return [
        f"metrics.json {key}={report.get(key)!r}, brute force gives {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]


def synopsis_overlap_ratio(tubes: list[TubeSpec], starts: dict[int, int]) -> float:
    """Share of tube pairs whose synopsis intervals overlap."""
    lo = np.array([starts[t[0]] for t in tubes], dtype=np.int64)
    hi = lo + np.array([len(t[2]) for t in tubes], dtype=np.int64)
    return _overlapping_pairs(lo, hi) / max(1, len(tubes) * (len(tubes) - 1) // 2)


def source_concurrent_pairs(tubes: list[TubeSpec]) -> int:
    lo = np.array([t[1] for t in tubes], dtype=np.int64)
    return _overlapping_pairs(lo, lo + np.array([len(t[2]) for t in tubes], dtype=np.int64))


def _overlapping_pairs(lo: np.ndarray, hi: np.ndarray) -> int:
    """Pairs of half-open intervals [lo, hi) that share a frame."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    # interval i overlaps each later-starting j with lo[j] < hi[i]
    later_starts = np.searchsorted(lo, hi, side="left") - np.arange(1, len(lo) + 1)
    return int(np.clip(later_starts, 0, None).sum())


def read_csv_tubes(path: Path) -> dict[int, tuple[int, list[tuple[int, int, int, int]]]]:
    """Tubes from an annotation CSV the program wrote, keyed by id."""
    rows: dict[int, list[tuple[int, tuple[int, int, int, int]]]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            f = line.split(",")
            rows.setdefault(int(f[1]), []).append((int(f[0]) - 1, tuple(int(v) for v in f[2:6])))
    tubes = {}
    for tid, entries in rows.items():
        entries.sort()
        tubes[tid] = (entries[0][0], [box for _, box in entries])
    return tubes


def check_extract(out_dir: Path, tubes: list[TubeSpec]) -> list[str]:
    """The extracted tubes are exactly the generator's tubes."""
    got = read_csv_tubes(out_dir / "tubes.csv")
    want = {tid: (start, [tuple(b) for b in boxes]) for tid, start, boxes in tubes}
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"extracted tube ids {sorted(got)[:8]} != generated {sorted(want)[:8]}")
    for tid in sorted(set(got) & set(want)):
        if got[tid] != want[tid]:
            problems.append(f"tube {tid}: extracted boxes differ from the generated ones")
    if not (out_dir / "background_samples.npz").is_file():
        problems.append("no background_samples.npz written")
    return problems


def missed_object_rate(out_dir: Path, tubes: list[TubeSpec]) -> float:
    """Ground-truth boxes on frames the detector was not queried on, as a share."""
    log = json.loads((out_dir / "extraction_log.json").read_text())["frames"]
    queried = {row["frame"] for row in log if row["queried"]}
    total = sum(len(boxes) for _, _, boxes in tubes)
    missed = sum(1 for _, start, boxes in tubes for k in range(len(boxes)) if start + k not in queried)
    return missed / total


def check_render(out_dir: Path, schedule: dict, tubes: list[TubeSpec]) -> list[str]:
    """Frame count, manifest contents, and untouched pixels outside all boxes."""
    index = _tube_index(tubes)
    starts = tube_starts(schedule)
    length = int(schedule["synopsis_length"])
    expected: dict[int, list[tuple[int, int]]] = {}
    painted: dict[int, list[tuple[int, int, int, int]]] = {}
    for tid, start in starts.items():
        src_start, boxes = index[tid][1], index[tid][2]
        for k, box in enumerate(boxes):
            expected.setdefault(start + k, []).append((tid, src_start + k))
            painted.setdefault(start + k, []).append(box)
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if int(manifest["synopsis_length"]) != length:
        problems.append(f"manifest synopsis_length {manifest['synopsis_length']} != {length}")
    got = {int(s): sorted(tuple(c) for c in contribs) for s, contribs in manifest["frames"].items()}
    want = {s: sorted(c) for s, c in expected.items()}
    if {s: c for s, c in got.items() if c} != want:
        problems.append("manifest does not list each scheduled (tube, source frame) exactly once")
    files = sorted(out_dir.glob("frame_*.ppm"))
    if len(files) != length:
        problems.append(f"{len(files)} frames written, synopsis_length is {length}")
    background = read_ppm(out_dir / "background.ppm")
    for path in files:
        s = int(path.stem.split("_")[1])
        outside = np.ones(background.shape[:2], dtype=bool)
        for l, t, w, h in painted.get(s, []):
            outside[t : t + h, l : l + w] = False
        if not np.array_equal(read_ppm(path)[outside], background[outside]):
            problems.append(f"{path.name}: pixels outside every painted box differ from background.ppm")
    return problems


def fingerprint(schedule_path: Path, report: dict) -> dict:
    """Output identity: schedule hash plus the metrics a change must keep."""
    return {
        "schedule_sha256": hashlib.sha256(Path(schedule_path).read_bytes()).hexdigest(),
        "fr": report["fr"],
        "ca": report["ca"],
        "cdr": report["cdr"],
    }
