#!/usr/bin/env python3
"""Cliff-scaling demo: watch Cliffhanger climb a performance cliff.

Generates a workload whose hit-rate curve has a smooth convex cliff (the
paper's Figure 3 shape), pins a queue *inside* the cliff, and compares:

* plain LRU at that size (stuck: the working set almost never fits);
* a CliffhangerQueue at the same size (Talus-style partitioning driven
  by the shadow-queue pointer search of Algorithms 2+3);
* the theoretical concave hull (what oracle Talus would reach).

    python examples/cliff_scaling_demo.py
"""

from repro.allocation.talus import plan_talus_partition
from repro.cache.policies import make_policy
from repro.core.cliff_scaling import ACCESS_HIT, CliffConfig, CliffhangerQueue
from repro.profiling.hrc import HitRateCurve
from repro.profiling.stack_distance import stack_distances
from repro.workloads.generators import ReuseDistanceStream
from repro.workloads.sizes import FixedSize

CHUNK = 256
CLIFF_CENTER = 400  # items
REQUESTS = 150_000


def main() -> None:
    stream = ReuseDistanceStream(
        "demo",
        mean_items=CLIFF_CENTER,
        sigma_items=CLIFF_CENTER // 5,
        size_model=FixedSize(100),
        refs_per_key=9,
        seed=7,
    )
    keys = [r.key for r in stream.generate(REQUESTS, 1000.0)]

    # Profile the true hit-rate curve (the operator would not have this;
    # Cliffhanger does not use it -- we print it for perspective).
    curve = HitRateCurve.from_stack_distances(stack_distances(keys))
    cliffs = curve.cliffs(tolerance=0.02)
    print(f"detected cliff regions (items): {[(int(a), int(b)) for a, b in cliffs]}")

    operating_point = int(CLIFF_CENTER * 0.75)  # stuck inside the ramp
    print(f"operating point: {operating_point} items\n")

    # 1. Plain LRU.
    lru = make_policy("lru", operating_point * CHUNK)
    lru_hits = 0
    for key in keys:
        if lru.access(key):
            lru_hits += 1
        else:
            lru.insert(key, CHUNK)

    # 2. Cliffhanger's incremental cliff scaling (no curve knowledge).
    config = CliffConfig(
        chunk_size=CHUNK,
        probe_items=16,
        credit_bytes=8 * CHUNK,
        min_queue_items_for_cliff=100,
    )
    queue = CliffhangerQueue("demo", operating_point * CHUNK, config)
    cliffhanger_hits = 0
    for key in keys:
        if queue.access(key) == ACCESS_HIT:
            cliffhanger_hits += 1
        else:
            queue.insert(key)

    # 3. Oracle Talus (given the full curve).
    plan = plan_talus_partition(curve, operating_point, tolerance=0.02)

    print(f"plain LRU hit rate:        {lru_hits / REQUESTS:6.3f}")
    print(f"Cliffhanger hit rate:      {cliffhanger_hits / REQUESTS:6.3f}")
    if plan is not None:
        print(f"oracle Talus (hull) rate:  {plan.expected_hit_rate:6.3f}")
        print(
            f"\noracle anchors:      ({plan.left_anchor:.0f}, "
            f"{plan.right_anchor:.0f}) items"
        )
    print(
        f"Cliffhanger pointers: ({queue.left_pointer / CHUNK:.0f}, "
        f"{queue.right_pointer / CHUNK:.0f}) items, "
        f"request ratio {queue.ratio:.2f}, split={queue._split}"
    )


if __name__ == "__main__":
    main()
