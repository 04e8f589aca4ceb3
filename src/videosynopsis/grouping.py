"""Partition tubes into groups of related or occluding tubes.

Two tubes belong together when their concurrency-weighted average distance
falls below a distance threshold, or when their summed per-frame overlap
(intersection over minimum) exceeds a collision threshold.  Linked pairs are
merged transitively into maximal groups: the connected components of the
link graph, from ``core.components``.  Only source-concurrent pairs can
link, so a sweep by source start finds them and ``core.BoxTable.pair_sums``
prices them all in one kernel call: O(n log n + concurrent pairs) instead
of O(n^2) pair evaluations.

That kernel is the only pair geometry; ``dump_pair_table`` writes every
pair's costs for threshold tuning, one tube's pairs per kernel call.
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
    "weight_f",
    "concurrency_weight",
    "pair_costs",
    "linked",
    "build_groups",
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


def dump_pair_table(tubes: Sequence[Tube], stream: IO[str]) -> None:
    """Write the (D, W, DW, C) of each pair ``i < j`` as a CSV row, in input
    order, with empty cells where the pair shares no frame.  Tube ``i``'s
    pairs are priced in one kernel call and written at once; per-pair sums
    do not depend on the batch."""
    writer = csv.writer(stream)
    writer.writerow(["tube_a", "tube_b", "distance", "weight", "weighted_distance", "collision"])
    table = BoxTable(tubes)
    for i, t1 in enumerate(tubes[:-1]):
        rest = np.arange(i + 1, len(tubes))
        costs = _batch_costs(table, np.full_like(rest, i), rest)
        for t2, (d, c) in zip(tubes[i + 1 :], costs):
            w = concurrency_weight(t1, t2)
            cells = (d, w, None if d is None else d * w, c)
            writer.writerow([t1.id, t2.id, *("" if v is None else f"{v:.6f}" for v in cells)])
