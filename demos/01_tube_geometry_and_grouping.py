"""
Tube geometry and grouping
==========================

Build a handful of object tubes by hand, look at the pairwise costs that
drive grouping, and watch related tubes merge into groups.
"""

import sys

from videosynopsis import Tube, GroupingConfig, build_groups
from videosynopsis.grouping import dump_pair_table, weight_f


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

# Every pair's average centre distance D, concurrency weight W, weighted
# distance DW and summed overlap C, as `synopsize --pair-table` writes them.
# A pair that shares no frame has no D, W or DW.
dump_pair_table(tubes, sys.stdout)

# Tubes link when the weighted distance is small or the overlap is heavy;
# links merge transitively into groups.
config = GroupingConfig(distance_threshold=150.0, collision_threshold=2.0)
groups = build_groups(tubes, config)

print()
for g in groups:
    print(f"group starting at source frame {g.source_start}: members {g.members}")
