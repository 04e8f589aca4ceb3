"""Partition tubes into groups of related or occluding tubes.

Two tubes belong together when their concurrency-weighted average distance
falls below a distance threshold, or when their summed per-frame overlap
(intersection over minimum) exceeds a collision threshold.  Linked pairs are
merged transitively into maximal groups: the connected components of the
link graph, from ``core.components``.  Only source-concurrent pairs can
link, so a sweep by source start finds them and ``core.BoxTable.pair_sums``
prices them all in one kernel call: O(n log n + concurrent pairs) instead
of O(n^2) pair evaluations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .core import BoxTable, Tube, TubeGroup, components, overlapping_pairs

__all__ = [
    "GroupingConfig",
    "average_distance",
    "weight_f",
    "concurrency_weight",
    "weighted_distance",
    "total_collision",
    "pair_costs",
    "linked",
    "build_groups",
    "pair_table",
    "dump_pair_table",
]


@dataclass(frozen=True)
class GroupingConfig:
    """Thresholds for the pair link predicate.

    ``distance_threshold`` is in pixels (applied to the weighted average
    distance); ``collision_threshold`` is a dimensionless overlap sum.
    """

    distance_threshold: float = 100.0
    collision_threshold: float = 5.0

    def __post_init__(self) -> None:
        if not (0 < self.distance_threshold < math.inf and 0 < self.collision_threshold < math.inf):
            raise ValueError("grouping thresholds must be finite and strictly positive")


def pair_costs(t1: Tube, t2: Tube) -> tuple[float | None, float]:
    """Average center distance and total collision of a pair in one pass.

    Returns ``(None, 0.0)`` for non-concurrent tubes: the distance is an
    empty average and the collision sum is empty.
    """
    return _batch_costs(BoxTable([t1, t2]), np.array([0]), np.array([1]))[0]


def _batch_costs(
    table: BoxTable, first: np.ndarray, second: np.ndarray
) -> list[tuple[float | None, float]]:
    """``pair_costs`` of the tube pairs ``(first[k], second[k])`` of ``table``.

    All pairs are priced in one ``BoxTable.pair_sums`` call at their source
    starts: the distance is the mean of the per-frame center distances and
    the collision the sum of the per-frame intersection over minimum.
    """
    s = table.pair_sums(
        first, second, table.start[first], table.start[second], iom=True, distance=True
    )
    return [
        (d / n, c) if n else (None, 0.0)
        for n, d, c in zip(s.frames.tolist(), s.distance.tolist(), s.iom.tolist())
    ]


def average_distance(t1: Tube, t2: Tube) -> float | None:
    """Mean center-to-center distance over common frames; None when none."""
    return pair_costs(t1, t2)[0]


def weight_f(x: float) -> float:
    """Decreasing concurrency weight ``(1 + 1/(1+e^(x/2)))^4`` on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"concurrency ratio {x} outside [0, 1]")
    return (1.0 + 1.0 / (1.0 + math.exp(x / 2.0))) ** 4


def concurrency_weight(t1: Tube, t2: Tube) -> float | None:
    """Weight for a pair from its shared-frame ratio; None if non-concurrent.

    The ratio is the number of common frames over the length of the shorter
    tube, so a short tube fully inside a long one counts as fully concurrent.
    """
    shared = min(t1.end, t2.end) - max(t1.start, t2.start) + 1
    if shared <= 0:
        return None
    return weight_f(shared / min(t1.length, t2.length))


def weighted_distance(t1: Tube, t2: Tube) -> float | None:
    """Average distance scaled by the concurrency weight; None if undefined."""
    d = average_distance(t1, t2)
    if d is None:
        return None
    w = concurrency_weight(t1, t2)
    assert w is not None
    return d * w


def total_collision(t1: Tube, t2: Tube) -> float:
    """Sum of per-frame intersection-over-minimum over common frames."""
    return pair_costs(t1, t2)[1]


def linked(
    t1: Tube,
    t2: Tube,
    cfg: GroupingConfig,
    *,
    costs: tuple[float | None, float] | None = None,
) -> bool:
    """Pair link predicate: close on (weighted) average, or heavily occluding.

    Non-concurrent pairs have an undefined weighted distance and can only be
    linked through the collision term, which is zero for them, so they are
    never linked.  ``costs`` must be ``pair_costs(t1, t2)``; ``build_groups``
    passes it from its batched pass, so each pair is still judged here, one
    ``linked`` call per pair evaluated.
    """
    d, c = pair_costs(t1, t2) if costs is None else costs
    if c > cfg.collision_threshold:
        return True
    if d is None:
        return False
    w = concurrency_weight(t1, t2)
    assert w is not None
    return d * w < cfg.distance_threshold


def build_groups(tubes: Sequence[Tube], cfg: GroupingConfig) -> list[TubeGroup]:
    """Merge linked pairs transitively into groups; singletons otherwise.

    The groups are the connected components of the pair link graph, found
    by ``core.components``.  The result partitions the input (every tube id
    in exactly one group) and is sorted by group start in the source video.
    """
    ids = [t.id for t in tubes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate tube ids in grouping input")

    # Only source-concurrent pairs can link, so a sweep by start finds the
    # candidates and one kernel call per block prices them.
    table = BoxTable(tubes)
    links: list[tuple[int, int]] = []
    for first, second in overlapping_pairs(table.start, table.start + table.length):
        costs = _batch_costs(table, first, second)
        links += [
            (i, j)
            for i, j, pc in zip(first.tolist(), second.tolist(), costs)
            if linked(tubes[i], tubes[j], cfg, costs=pc)
        ]
    a, b = np.array(links, dtype=np.int64).reshape(-1, 2).T
    by_root: dict[int, list[Tube]] = {}
    for tube, root in zip(tubes, components(len(tubes), a, b).tolist()):
        by_root.setdefault(root, []).append(tube)

    groups = []
    for members in by_root.values():
        start = min(t.start for t in members)
        offsets = sorted(((t.id, t.start - start) for t in members), key=lambda m: (m[1], m[0]))
        groups.append(TubeGroup(members=tuple(offsets), source_start=start))
    groups.sort(key=lambda g: (g.source_start, g.members[0][0]))
    return groups


def pair_table(tubes: Sequence[Tube]) -> list[dict[str, object]]:
    """Per-pair (D, W, DW, C) rows for threshold tuning."""
    first, second = np.triu_indices(len(tubes), k=1)
    costs = _batch_costs(BoxTable(tubes), first, second)
    rows: list[dict[str, object]] = []
    for i, j, (d, c) in zip(first.tolist(), second.tolist(), costs):
        t1, t2 = tubes[i], tubes[j]
        w = concurrency_weight(t1, t2)
        rows.append(
            {
                "tube_a": t1.id,
                "tube_b": t2.id,
                "distance": d,
                "weight": w,
                "weighted_distance": None if d is None or w is None else d * w,
                "collision": c,
            }
        )
    return rows


def dump_pair_table(tubes: Sequence[Tube], stream: IO[str]) -> None:
    """Write the pair cost table as CSV (empty cells for undefined values)."""
    writer = csv.writer(stream)
    writer.writerow(["tube_a", "tube_b", "distance", "weight", "weighted_distance", "collision"])
    for row in pair_table(tubes):
        writer.writerow(
            [
                row["tube_a"],
                row["tube_b"],
                "" if row["distance"] is None else f"{row['distance']:.6f}",
                "" if row["weight"] is None else f"{row['weight']:.6f}",
                "" if row["weighted_distance"] is None else f"{row['weighted_distance']:.6f}",
                f"{row['collision']:.6f}",
            ]
        )
