"""Property-based coherence-protocol invariant checking.

Randomized thread programs (mixes of loads, stores, compute and
barriers over a small shared region) run to completion, after which the
protocol's global invariants must hold:

* **SWMR** -- a block in MODIFIED state anywhere has exactly one copy
  system-wide;
* **cache/directory agreement** -- every cached copy is accounted for
  by its home directory entry (no stale sharers besides the silent-
  eviction allowance, never a missing one);
* **functional correctness** -- the final memory image equals a serial
  oracle's, given the programs are made race-free by construction
  (each word is written by a single owner thread).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import CacheState, CoherenceConfig, DirectoryState
from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig


def check_global_invariants(sim: ExecutionDrivenSimulation) -> None:
    """Assert SWMR and cache/directory agreement over every block."""
    machine = sim.machine
    num = machine.num_processors
    blocks = set()
    for directory in machine.directories:
        blocks.update(directory._entries.keys())
    for cache in machine.caches:
        for bucket in cache._sets.values():
            blocks.update(bucket.keys())

    for block in blocks:
        home = machine.block_map.home_of(block)
        entry = machine.directories[home].entry(block)
        holders = {
            pid: machine.caches[pid].peek(block)
            for pid in range(num)
            if machine.caches[pid].peek(block) is not None
        }
        modified = [pid for pid, state in holders.items() if state is CacheState.MODIFIED]

        # SWMR: at most one modified copy, and then no other copies.
        assert len(modified) <= 1, f"block {block}: two writers {modified}"
        if modified:
            assert len(holders) == 1, (
                f"block {block}: modified at {modified[0]} but copies at {holders}"
            )
            assert entry.state is DirectoryState.EXCLUSIVE
            assert entry.owner == modified[0]

        # Directory agreement: every real copy is tracked (silent
        # S-eviction updates the directory in this implementation, so
        # tracking is exact both ways for SHARED too).
        if entry.state is DirectoryState.EXCLUSIVE:
            owner_state = machine.caches[entry.owner].peek(block)
            # The owner may have evicted (writeback in flight at end).
            assert owner_state in (CacheState.MODIFIED, None)
        elif entry.state is DirectoryState.SHARED:
            for sharer in entry.sharers:
                assert machine.caches[sharer].peek(block) is CacheState.SHARED, (
                    f"block {block}: directory lists p{sharer} but cache disagrees"
                )
        for pid, state in holders.items():
            if state is CacheState.SHARED:
                assert pid in entry.sharers, (
                    f"block {block}: p{pid} holds S copy unknown to the directory"
                )


def random_program(rng: np.random.Generator, words: int, steps: int):
    """A race-free random program: pid p writes only words with
    ``w % 8 == p`` but reads anywhere."""

    script = [
        (
            rng.choice(["load", "store", "compute"], p=[0.45, 0.45, 0.10]),
            int(rng.integers(0, words)),
            float(rng.integers(1, 50)),
        )
        for _ in range(steps)
    ]

    def body(ctx, data, barrier, oracle):
        my_offset = ctx.pid
        for op, word, amount in script:
            if op == "compute":
                ctx.compute(amount)
            elif op == "load":
                yield from ctx.load(data, word)
            else:
                target = (word - word % 8) + my_offset  # owned word
                if target < data.length:
                    value = (ctx.pid, word, amount)
                    yield from ctx.store(data, target, value)
                    oracle[target] = value
        yield from ctx.barrier(barrier)

    return body


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cache_lines=st.sampled_from([4, 16, 64]),
    protocol=st.sampled_from(["invalidate", "update"]),
)
def test_invariants_hold_after_random_programs(seed, cache_lines, protocol):
    rng = np.random.default_rng(seed)
    words = 8 * 12  # 12 blocks over 8 nodes
    sim = ExecutionDrivenSimulation(
        mesh_config=MeshConfig("4x2"),
        coherence_config=CoherenceConfig(
            cache_lines=cache_lines, associativity=2, protocol=protocol
        ),
    )
    data = sim.array("data", words)
    barrier = sim.barrier()
    oracles = [dict() for _ in range(8)]
    programs = [random_program(rng, words, steps=40) for _ in range(8)]

    def worker(ctx):
        yield from programs[ctx.pid](ctx, data, barrier, oracles[ctx.pid])

    sim.run(worker)
    if protocol == "invalidate":
        check_global_invariants(sim)

    # Functional oracle: each word's last writer is unique (ownership
    # by construction), so the union of per-thread oracles is exact.
    for oracle in oracles:
        for word, value in oracle.items():
            assert data.peek(word) == value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_invariants_hold_under_release_consistency(seed):
    rng = np.random.default_rng(seed)
    words = 8 * 8
    sim = ExecutionDrivenSimulation(
        coherence_config=CoherenceConfig(consistency="release", cache_lines=16,
                                         associativity=2),
    )
    data = sim.array("data", words)
    barrier = sim.barrier()
    oracles = [dict() for _ in range(8)]
    programs = [random_program(rng, words, steps=30) for _ in range(8)]

    def worker(ctx):
        yield from programs[ctx.pid](ctx, data, barrier, oracles[ctx.pid])
        # The barrier fenced all buffered stores.
        assert ctx.machine.outstanding_stores(ctx.pid) == 0

    sim.run(worker)
    check_global_invariants(sim)
    for oracle in oracles:
        for word, value in oracle.items():
            assert data.peek(word) == value
