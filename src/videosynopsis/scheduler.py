"""Greedy group rearrangement: assign every group a synopsis start frame.

Groups are processed in batches, sorted by source start.  Each group enters
at the batch's start frame and is shifted forward, a few frames at a time,
until its weighted collision cost against every already-placed group drops
under the threshold.  A group that stretches the output video sees its
collision weight decayed, so it stops fleeing collisions that are cheaper
than more video.  Each batch's entry frame is estimated from the per-frame
box-count histogram of everything placed so far, and is 0 for the first.

Collision costs come from ``core.BoxTable.pair_sums``, the pipeline's one
box-overlap kernel, over one table of every group's tubes in input order.
Groups are accepted in that order, so the placed groups are the table's
leading tubes and the group being placed comes next.  A new group is priced
against all placed groups in one call; the placed groups are then walked in
order.  While the group is shifted against one opponent, each call prices a
run of starts along the current step (8, then 16, 32 and at most 64 of
them), and the shifts read the prices from those runs; the remaining
opponents are priced again in one call once it is cleared.  Each call
returns a (start x opponent asked for) matrix of costs, each entry equal to
``group_collision``'s bit for bit: the kernel sums each tube pair exactly as
alone, and ``np.add.at`` adds the pair sums in member order.  Per group the
work is one kernel call over the placed tubes, one per run of shifts and one
per opponent cleared after a shift; a group with nothing placed yet makes no
kernel call.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import BoxTable, SynopsisSchedule, Tube, TubeGroup, check_synopsis_length, group_extent

__all__ = [
    "SchedulerConfig",
    "PlacedGroup",
    "SchedulerTrace",
    "group_collision",
    "box_count_histogram",
    "calculate_start",
    "rearrange",
    "schedule_to_dict",
    "schedule_from_dict",
]

@dataclass(frozen=True)
class SchedulerConfig:
    batch_size: int = 8
    decay_rate: float = 0.9
    collision_threshold: float = 0.1
    shift_step: int = 3
    startframe_skip_fraction: float = 0.15
    startframe_back_off: int = 30
    first_batch_size: int | None = None
    # Optional coarse-to-fine ladder of (threshold, step) pairs, highest
    # threshold first; the last threshold must equal collision_threshold.
    shift_levels: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError("decay_rate must be in (0, 1]")
        if not 0 < self.collision_threshold < math.inf:
            raise ValueError("collision_threshold must be finite and > 0")
        if self.shift_step < 1:
            raise ValueError("shift_step must be >= 1")
        if not 0.0 <= self.startframe_skip_fraction < 1.0:
            raise ValueError("startframe_skip_fraction must be in [0, 1)")
        if self.startframe_back_off < 0:
            raise ValueError("startframe_back_off must be >= 0")
        if self.first_batch_size is not None and self.first_batch_size < 1:
            raise ValueError("first_batch_size must be >= 1")
        if self.shift_levels is not None:
            thresholds = [t for t, _ in self.shift_levels]
            if not thresholds or thresholds[-1] != self.collision_threshold:
                raise ValueError("last shift level must sit at collision_threshold")
            if not all(math.isfinite(t) for t in thresholds):
                raise ValueError("shift level thresholds must be finite")
            if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
                raise ValueError("shift level thresholds must strictly decrease")
            if any(s < 1 for _, s in self.shift_levels):
                raise ValueError("shift level steps must be >= 1")

    @property
    def effective_first_batch(self) -> int:
        # A larger first batch gives the box-count histogram enough mass for
        # a meaningful threshold before the first start-frame estimate.
        return self.first_batch_size or max(self.batch_size, 10)

    @property
    def ladder(self) -> tuple[tuple[float, int], ...]:
        if self.shift_levels is not None:
            return self.shift_levels
        return ((self.collision_threshold, self.shift_step),)


@dataclass
class PlacedGroup:
    """A group with a tentative synopsis start and its collision weight."""

    group: TubeGroup
    synopsis_start: int
    weight: float = 1.0
    index: int = -1  # position in the rearrange input, for trace identity
    member_offsets: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    member_lengths: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def place(
        cls, group: TubeGroup, tubes: Mapping[int, Tube], start: int, index: int = -1
    ) -> "PlacedGroup":
        offsets = np.array([off for _, off in group.members], dtype=np.int64)
        lengths = np.array([tubes[tid].length for tid, _ in group.members], dtype=np.int64)
        return cls(
            group=group,
            synopsis_start=start,
            index=index,
            member_offsets=offsets,
            member_lengths=lengths,
        )

    # The member arrays are fixed at placement, and the scheduler reads
    # these two once per opponent check.
    @cached_property
    def extent(self) -> int:
        return int((self.member_offsets + self.member_lengths).max())

    @property
    def end(self) -> int:
        """Exclusive synopsis end frame."""
        return self.synopsis_start + self.extent

    @cached_property
    def box_count(self) -> int:
        return int(self.member_lengths.sum())


class _Opponents:
    """The placed groups' tubes, for pricing in bulk.

    Groups are added in box-table order, so the placed tubes are the
    table's first ``size`` tubes and the group priced next follows them.
    Each added group takes the next slot; each placed tube holds its slot
    and its synopsis start.
    """

    def __init__(self, table: BoxTable) -> None:
        self.table = table
        self.start, self.slot, self.box_counts = np.empty((3, len(table.length)), dtype=np.int64)
        self.slots = self.size = 0

    def add(self, pg: PlacedGroup) -> None:
        """Index the next placed group's tubes where they are now."""
        a, b = self.size, self.size + pg.group.size
        self.start[a:b] = pg.synopsis_start + pg.member_offsets
        self.slot[a:b] = self.slots
        self.box_counts[self.slots] = pg.box_count
        self.slots += 1
        self.size = b

    def costs(self, pg: PlacedGroup, slots: Sequence[int], starts: Sequence[int]) -> np.ndarray:
        """``group_collision(pg, opponent in slots[j])`` with ``pg`` at
        ``starts[i]``, as entry ``[i, j]`` of a (starts x slots) float64 matrix.

        ``pg`` is the group after the placed ones in the box table.  The
        (start x member x opponent tube) pairs run start-major, then
        member-major, and ``np.add.at`` adds the nonzero pair sums in that
        order, so each entry is summed in ``group_collision``'s order
        (``pg``'s members outer, the opponent's inner).  Only opponent tubes
        overlapping the union of ``pg``'s spans are paired; a pair sharing
        no frame at some start sums to exactly 0.0 there and is skipped with
        the rest.
        """
        members = np.arange(self.size, self.size + pg.group.size)
        start = self.start[: self.size]
        column = np.full(self.slots, -1)  # each slot's result column; -1 when not asked
        column[slots] = np.arange(len(slots))
        col = column[self.slot[: self.size]]
        opp = np.flatnonzero(
            (col >= 0)
            & (start < max(starts) + pg.extent)
            & (start + self.table.length[: self.size] > min(starts))
        )
        per_start = len(members) * len(opp)
        a = np.tile(np.repeat(members, len(opp)), len(starts))
        b = np.tile(opp, len(members) * len(starts))
        s1 = np.repeat(np.add.outer(starts, pg.member_offsets).ravel(), len(opp))
        iom = self.table.pair_sums(a, b, s1, start[b], iom=True).iom
        hit = np.flatnonzero(iom)
        totals = np.zeros((len(starts), len(slots)))
        np.add.at(totals, (hit // per_start, col[b[hit]]), iom[hit])
        return totals / np.maximum(pg.box_count, self.box_counts[slots])


def group_collision(g1: PlacedGroup, g2: PlacedGroup, tubes: Mapping[int, Tube]) -> float:
    """Collision cost between two tentatively placed groups.

    Tube boxes are re-indexed by each tube's synopsis placement; the summed
    pairwise collision is normalized by the larger group's box count, so big
    groups are not penalized merely for containing more boxes.
    """
    opponents = _Opponents(BoxTable(tubes[tid] for tid in g2.group.tube_ids + g1.group.tube_ids))
    opponents.add(g2)
    return float(opponents.costs(g1, [0], [g1.synopsis_start])[0, 0])


def box_count_histogram(placed: Sequence[PlacedGroup]) -> np.ndarray:
    """Number of boxes present in each synopsis frame of the placed groups."""
    if not placed:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate([pg.synopsis_start + pg.member_offsets for pg in placed])
    ends = starts + np.concatenate([pg.member_lengths for pg in placed])
    # +1 where each tube enters, -1 where it leaves, summed up to each frame
    diff = np.zeros(max(pg.end for pg in placed) + 1, dtype=np.int64)
    np.add.at(diff, starts, 1)
    np.add.at(diff, ends, -1)
    return np.cumsum(diff[:-1])


def calculate_start(placed: Sequence[PlacedGroup], cfg: SchedulerConfig) -> int:
    """Entry frame for the next batch, from the box-count histogram.

    Skips the sparse opening stretch of the synopsis, then finds the first
    frame whose box count falls under the halfway point between the
    histogram's maximum and mean, and backs off a fixed number of frames so
    the thinly filled region before it can still be used.
    """
    if not placed:
        return 0
    hist = box_count_histogram(placed)
    length = len(hist)
    threshold = (hist.max() + hist.mean()) / 2.0
    skip = math.ceil(cfg.startframe_skip_fraction * length)
    for s in range(skip, length):
        if hist[s] < threshold:
            return max(0, s - cfg.startframe_back_off)
    return max(0, length - cfg.startframe_back_off)


class SchedulerTrace:
    """Event log of one rearrangement run.

    ``events`` is a flat list of tuples mirroring the algorithm's steps;
    ``checks`` records, for every (group, opponent) pair examined, the final
    collision cost, the group's weight, and the group's position at the
    moment the pair cleared the threshold, so feasibility can be re-verified
    after the fact.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.checks: list[tuple[int, int, float, float, int]] = []

    def add(self, *event: object) -> None:
        self.events.append(tuple(event))


def _ignore(*_: object) -> None:
    """Recorder of an untraced run."""


# Starts priced per call while a group is shifted against one opponent: the
# first run, doubled for each further run up to the last.
_FIRST_RUN, _LAST_RUN = 8, 64


def _sort_key(pg: PlacedGroup) -> tuple[int, int, int]:
    return (pg.synopsis_start, pg.group.source_start, pg.group.members[0][0])


def rearrange(
    groups: Sequence[TubeGroup],
    tubes: Mapping[int, Tube],
    cfg: SchedulerConfig,
    trace: SchedulerTrace | None = None,
) -> SynopsisSchedule:
    """Assign synopsis start frames to all groups (greedy, batched).

    ``groups`` must be sorted by source start, as the grouping stage emits
    them; relative offsets inside each group are never altered.
    """
    if any(b.source_start < a.source_start for a, b in zip(groups, groups[1:])):
        raise ValueError("groups must be sorted by source start")
    if not groups:
        return SynopsisSchedule(placements=(), synopsis_length=0)

    video_length = max(group_extent(g, tubes) for g in groups)
    ladder = cfg.ladder
    gate = ladder[-1][0]

    placed: list[PlacedGroup] = []
    # groups are accepted in input order, so a group's slot is its index
    opponents = _Opponents(BoxTable(tubes[tid] for g in groups for tid in g.tube_ids))
    if trace is None:
        record = check = _ignore
    else:
        record, check = trace.add, trace.checks.append

    edges = [0, *range(cfg.effective_first_batch, len(groups), cfg.batch_size), len(groups)]
    for first, stop in zip(edges, edges[1:]):
        start_frame = calculate_start(placed, cfg)
        record("batch", start_frame)
        for gi in range(first, stop):
            pg = PlacedGroup.place(groups[gi], tubes, start_frame, index=gi)
            record("init", gi, start_frame)
            # Price pg against every opponent at once, and again against
            # the rest whenever a shift has moved it.
            priced_at = None
            for k, opp in enumerate(placed):
                oi = opp.index
                if pg.synopsis_start != priced_at:
                    priced_at = pg.synopsis_start
                    remaining = [o.index for o in placed[k:]]
                    costs = iter(opponents.costs(pg, remaining, [priced_at])[0].tolist())
                cost = next(costs)
                record("cost", gi, oi, cost, pg.weight)
                # Shifts read prices from runs of starts along the current
                # step, each run priced in one call and longer than the last.
                shifted: dict[int, float] = {}
                run = _FIRST_RUN
                while cost * pg.weight > gate:
                    weighted = cost * pg.weight
                    step = next(s for t, s in ladder if weighted > t)
                    pg.synopsis_start += step
                    record("shift", gi, pg.synopsis_start)
                    if pg.end > video_length:
                        video_length = pg.end
                        pg.weight *= cfg.decay_rate
                        record("extend", gi, video_length, pg.weight)
                    if pg.synopsis_start not in shifted:
                        starts = range(pg.synopsis_start, pg.synopsis_start + run * step, step)
                        prices = opponents.costs(pg, [oi], starts)
                        shifted.update(zip(starts, prices[:, 0].tolist()))
                        run = min(2 * run, _LAST_RUN)
                    cost = shifted[pg.synopsis_start]
                    record("cost", gi, oi, cost, pg.weight)
                # The length check also runs when no shift happened for this
                # opponent, e.g. a late batch start frame already pushing
                # this group past the current video length.
                if pg.end > video_length:
                    video_length = pg.end
                    pg.weight *= cfg.decay_rate
                    record("extend", gi, video_length, pg.weight)
                check((gi, oi, cost, pg.weight, pg.synopsis_start))
            opponents.add(pg)
            insort(placed, pg, key=_sort_key)
            record("accept", gi, pg.synopsis_start, pg.weight)

    synopsis_length = max(pg.end for pg in placed)
    # insort keeps placed in _sort_key order, and accepted groups never move
    placements = tuple((pg.group, pg.synopsis_start) for pg in placed)
    return SynopsisSchedule(placements=placements, synopsis_length=synopsis_length)


def schedule_to_dict(schedule: SynopsisSchedule) -> dict:
    """Wire format of a schedule: JSON-ready dict.

    Layout: ``{synopsis_length, placements: [{group_index, tube_ids,
    synopsis_start, per_tube_starts}]}``; this is also the format accepted
    from third parties for metric scoring.
    """
    placements = []
    for index, (group, start) in enumerate(schedule.placements):
        placements.append(
            {
                "group_index": index,
                "tube_ids": list(group.tube_ids),
                "synopsis_start": start,
                "per_tube_starts": {str(tid): start + off for tid, off in group.members},
            }
        )
    return {"synopsis_length": schedule.synopsis_length, "placements": placements}


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer"}
_INT64_MAX = int(np.iinfo(np.int64).max)


def _field(obj: object, key: str, kind: type, where: str):
    """``obj[key]`` of a schedule file, checked to exist and to be a ``kind``."""
    if not isinstance(obj, dict):
        raise ValueError(f"schedule {where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"schedule {where} has no {key!r} field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(
            f"schedule {where} field {key!r} must be {_JSON_KINDS[kind]}, "
            f"got {type(value).__name__}"
        )
    return value


def schedule_from_dict(data: dict, tubes: Mapping[int, Tube]) -> SynopsisSchedule:
    """Rebuild a schedule from its wire format, validated against the tubes.

    Third-party schedules are accepted: group offsets are re-derived from
    ``per_tube_starts`` and the earliest member defines the group start.  A
    missing or wrongly shaped field, two keys naming one tube (``"1"`` and
    ``"01"``), or a ``synopsis_length`` other than the last tube end (0
    without placements) is a ``ValueError`` that names them.
    """
    entries = []
    length = _field(data, "synopsis_length", int, "file")
    for placement in _field(data, "placements", list, "file"):
        starts = _field(placement, "per_tube_starts", dict, "placement")
        if not starts:
            raise ValueError("placement without tubes in schedule file")
        per_tube, names = {}, {}
        for key in starts:
            try:
                tid = int(key)
            except ValueError:
                raise ValueError(f"schedule per_tube_starts key {key!r} is not a tube id") from None
            if tid in names:
                raise ValueError(
                    f"schedule per_tube_starts keys {names[tid]!r} and {key!r} both name tube {tid}"
                )
            names[tid] = key
            if tid not in tubes:
                raise ValueError(f"schedule references tube {tid} absent from the tube set")
            s = per_tube[tid] = _field(starts, key, int, "per_tube_starts")
            if s < 0:
                raise ValueError(f"schedule places tube {tid} at negative synopsis start {s}")
            end = s + tubes[tid].length
            if end > _INT64_MAX:  # the metrics hold tube ends in int64 arrays
                raise ValueError(
                    f"schedule places tube {tid} at synopsis start {s}; its end {end} "
                    "does not fit in 64 bits"
                )
        start = min(per_tube.values())
        members = tuple(
            sorted(((tid, s - start) for tid, s in per_tube.items()), key=lambda m: (m[1], m[0]))
        )
        source_start = min(tubes[tid].start for tid in per_tube)
        entries.append((TubeGroup(members=members, source_start=source_start), start))
    entries.sort(key=lambda e: e[1])
    schedule = SynopsisSchedule(placements=tuple(entries), synopsis_length=length)
    check_synopsis_length(schedule, tubes)
    return schedule
