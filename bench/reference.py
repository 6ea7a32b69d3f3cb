"""A fixed pure-Python workload that measures how fast the machine is now.

The benchmark machine is shared.  Passes of identical work run up to
2x slower for minutes at a time, while other tenants load the cores.
Every worker process times this reference once, after its pass.  The
run then scales its times by
``NOMINAL_S / (mean reference time in the run)``, so a slowdown of
the whole machine mostly cancels out.

The work imitates distlaw's hot path: small slotted objects keyed by
sorted tuples, hashed, counted and sorted, with a working set of some
megabytes.  It never calls distlaw, so a change to distlaw cannot move
it.  ``NOMINAL_S`` is a fixed constant, about the reference's time on
a 2-core Xeon with Python 3.11.7.  Scaled times compare across runs
and commits; they are close to, not exactly, seconds on that machine.
"""

import random
import time

NOMINAL_S = 0.15


class _Node:
    __slots__ = ("items", "key", "_hash")

    def __init__(self, items):
        self.items = tuple(sorted(items))
        self.key = ("n",) + self.items
        self._hash = hash(self.key)


def measure():
    """Seconds the reference workload takes in this process, now."""
    rng = random.Random(12345)
    start = time.perf_counter()
    pool = [_Node(rng.randrange(50) for _ in range(rng.randint(1, 6))) for _ in range(30000)]
    counts = {}
    for node in pool:
        counts[node.key] = counts.get(node.key, 0) + 1
    sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return time.perf_counter() - start
