"""
Tube geometry and grouping
==========================

Build a handful of object tubes by hand, look at the pairwise costs that
drive grouping, and watch related tubes merge into groups.
"""

from videosynopsis import Tube, GroupingConfig, build_groups
from videosynopsis.grouping import (
    average_distance,
    concurrency_weight,
    total_collision,
    weighted_distance,
    weight_f,
)


def walk(tid, start, x0, y0, dx, length=40, size=24):
    coords = [(x0 + k * dx, y0, size, size) for k in range(length)]
    return Tube(id=tid, class_label="person", start=start, coords=coords)


# Two people walking together, a third crossing their path later, and a
# fourth far away in time and space.
pair_a = walk(1, start=0, x0=10, y0=100, dx=4)
pair_b = walk(2, start=3, x0=10, y0=130, dx=4)
crosser = walk(3, start=25, x0=180, y0=60, dx=-3)
loner = walk(4, start=400, x0=400, y0=400, dx=1)

tubes = [pair_a, pair_b, crosser, loner]

# The concurrency weight inflates distances between barely-concurrent tubes
# so they do not get grouped off a few lucky frames.
print("weight at full concurrency:", round(weight_f(1.0), 4))
print("weight at zero concurrency:", round(weight_f(0.0), 4))
print()

for i in range(len(tubes)):
    for j in range(i + 1, len(tubes)):
        a, b = tubes[i], tubes[j]
        d = average_distance(a, b)
        w = concurrency_weight(a, b)
        dw = weighted_distance(a, b)
        c = total_collision(a, b)
        print(
            f"tubes {a.id}-{b.id}: "
            f"D={'n/a' if d is None else round(d, 1)} "
            f"W={'n/a' if w is None else round(w, 3)} "
            f"DW={'n/a' if dw is None else round(dw, 1)} "
            f"C={round(c, 3)}"
        )

# Tubes link when the weighted distance is small or the overlap is heavy;
# links merge transitively into groups.
config = GroupingConfig(distance_threshold=150.0, collision_threshold=2.0)
groups = build_groups(tubes, config)

print()
for g in groups:
    print(f"group starting at source frame {g.source_start}: members {g.members}")
