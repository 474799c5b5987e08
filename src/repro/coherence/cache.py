"""Private per-processor caches with MSI states and LRU replacement."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Optional


class CacheState(enum.Enum):
    """MSI coherence states of a cached block."""

    MODIFIED = "M"
    SHARED = "S"
    # INVALID lines are simply absent from the cache.


@dataclass
class CacheLine:
    """One resident cache line."""

    block: int
    state: CacheState
    last_use: int = 0


class Cache:
    """A set-associative, LRU-replacement private cache.

    Only presence and coherence state are tracked -- actual data values
    live in the machine's shared backing store (the simulator separates
    functional values from timing, as execution-driven simulators do).
    """

    def __init__(self, lines: int, associativity: int, name: str = "cache") -> None:
        if lines < 1:
            raise ValueError(f"lines must be >= 1, got {lines}")
        if associativity < 1 or associativity > lines:
            raise ValueError(f"associativity must be in [1, lines], got {associativity}")
        if lines % associativity != 0:
            raise ValueError("lines must be a multiple of associativity")
        self.name = name
        self.lines = lines
        self.associativity = associativity
        self.sets = lines // associativity
        self._sets: Dict[int, Dict[int, CacheLine]] = {i: {} for i in range(self.sets)}
        self._clock = itertools.count()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations_received = 0

    def _set_of(self, block: int) -> Dict[int, CacheLine]:
        return self._sets[block % self.sets]

    def lookup(self, block: int) -> Optional[CacheState]:
        """State of ``block`` if resident (updates LRU), else None."""
        line = self._set_of(block).get(block)
        if line is None:
            self.misses += 1
            return None
        line.last_use = next(self._clock)
        self.hits += 1
        return line.state

    def peek(self, block: int) -> Optional[CacheState]:
        """State of ``block`` without touching LRU or hit counters."""
        line = self._set_of(block).get(block)
        return line.state if line is not None else None

    def insert(self, block: int, state: CacheState) -> Optional[CacheLine]:
        """Insert ``block`` in ``state``; returns the evicted line if any.

        Inserting a block that is already resident just updates its
        state (no eviction).
        """
        bucket = self._set_of(block)
        existing = bucket.get(block)
        if existing is not None:
            existing.state = state
            existing.last_use = next(self._clock)
            return None
        victim: Optional[CacheLine] = None
        if len(bucket) >= self.associativity:
            victim_block = min(bucket, key=lambda b: bucket[b].last_use)
            victim = bucket.pop(victim_block)
            self.evictions += 1
        bucket[block] = CacheLine(block=block, state=state, last_use=next(self._clock))
        return victim

    def invalidate(self, block: int) -> Optional[CacheState]:
        """Drop ``block``; returns its prior state (None if absent)."""
        bucket = self._set_of(block)
        line = bucket.pop(block, None)
        if line is None:
            return None
        self.invalidations_received += 1
        return line.state

    def downgrade(self, block: int) -> bool:
        """Demote ``block`` from MODIFIED to SHARED (owner keeps a copy).

        Returns True if the block was resident.
        """
        line = self._set_of(block).get(block)
        if line is None:
            return False
        line.state = CacheState.SHARED
        return True

    def set_state(self, block: int, state: CacheState) -> None:
        """Force the state of a resident block (protocol internal)."""
        line = self._set_of(block).get(block)
        if line is None:
            raise KeyError(f"block {block} not resident in {self.name}")
        line.state = state

    @property
    def occupancy(self) -> int:
        """Resident line count."""
        return sum(len(bucket) for bucket in self._sets.values())

    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
