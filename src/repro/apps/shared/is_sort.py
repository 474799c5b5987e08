"""IS: Integer Sort kernel (bucket-sort ranking).

Paper: "IS is an Integer Sort kernel that uses bucket sort to rank a
list of integers.  This application also has a regular communication
pattern.  The input data is equally partitioned among the processors.
Each processor maintains local buckets for the chunk of the input list
that is allocated to it."  The paper's spatial finding: a *favorite
processor* pattern -- "one processor gets the maximum number of
messages and the rest of them get equal number of messages" (bimodal
uniform).

The favorite arises here exactly as in the original: the global bucket
table, its lock, and the bucket-start prefix table all live on
processor 0's memory, so every processor's accumulation and ranking
traffic converges on p0.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import SharedMemoryApplication
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext

#: Cycles charged per key for local bucket counting / ranking.
KEY_CYCLES = 4.0


class IntegerSortApp(SharedMemoryApplication):
    """Bucket-sort ranking of ``n`` integer keys in ``[0, buckets)``.

    Every key receives a rank such that gathering keys by rank yields a
    non-decreasing sequence (the NAS IS contract).
    """

    name = "is"
    description = "integer sort (bucket ranking); favorite-processor pattern"

    def __init__(self, n: int = 2048, buckets: int = 64, seed: int = 2) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.n = n
        self.buckets = buckets
        self.seed = seed
        self.input_keys: Optional[np.ndarray] = None

    def build(self, sim: ExecutionDrivenSimulation) -> None:
        rng = np.random.default_rng(self.seed)
        self.input_keys = rng.integers(0, self.buckets, size=self.n)
        self.keys = sim.array("is.keys", self.n, placement="chunked")
        self.keys.fill([int(k) for k in self.input_keys])
        self.ranks = sim.array("is.ranks", self.n, placement="chunked")
        # The globally shared structures all live on processor 0.
        self.global_counts = sim.array("is.counts", self.buckets, placement=0)
        self.global_counts.fill([0] * self.buckets)
        self.bucket_start = sim.array("is.start", self.buckets, placement=0)
        self.bucket_lock = sim.lock(home=0)
        self.count_barrier = sim.barrier(home=0)
        self.prefix_barrier = sim.barrier(home=0)

    def thread_body(self, ctx: ThreadContext) -> Generator:
        my = self.keys.chunk(ctx.pid)
        # Phase 1: count the local chunk into private buckets.
        local_counts = [0] * self.buckets
        my_keys: List[int] = []
        for i in my:
            key = yield from ctx.load(self.keys, i)
            local_counts[key] += 1
            my_keys.append(key)
            ctx.compute(KEY_CYCLES)

        # Phase 2: merge into the global table on p0 under its lock;
        # remember the pre-merge counts as this processor's base offset
        # within each bucket (merge order defines a consistent total
        # order, which is all ranking needs).
        my_base = [0] * self.buckets
        yield from ctx.lock(self.bucket_lock)
        for b in range(self.buckets):
            if local_counts[b] == 0:
                continue
            seen = yield from ctx.load(self.global_counts, b)
            my_base[b] = seen
            yield from ctx.store(self.global_counts, b, seen + local_counts[b])
        yield from ctx.unlock(self.bucket_lock)
        yield from ctx.barrier(self.count_barrier)

        # Phase 3: p0 turns global counts into bucket start offsets.
        if ctx.pid == 0:
            running = 0
            for b in range(self.buckets):
                count = yield from ctx.load(self.global_counts, b)
                yield from ctx.store(self.bucket_start, b, running)
                running += count
                ctx.compute(KEY_CYCLES)
        yield from ctx.barrier(self.prefix_barrier)

        # Phase 4: rank the local keys (reads the start table from p0).
        seen_in_bucket = [0] * self.buckets
        for offset, i in enumerate(my):
            key = my_keys[offset]
            start = yield from ctx.load(self.bucket_start, key)
            rank = start + my_base[key] + seen_in_bucket[key]
            seen_in_bucket[key] += 1
            yield from ctx.store(self.ranks, i, rank)
            ctx.compute(KEY_CYCLES)

    def verify(self) -> None:
        ranks = self.ranks.snapshot()
        keys = self.keys.snapshot()
        if sorted(ranks) != list(range(self.n)):
            raise AssertionError("ranks are not a permutation")
        output = [None] * self.n
        for key, rank in zip(keys, ranks):
            output[rank] = key
        if not all(output[i] <= output[i + 1] for i in range(self.n - 1)):
            raise AssertionError("gathering keys by rank is not sorted")
