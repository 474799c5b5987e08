"""Host-speed calibration for the benchmark's time metrics.

On a shared host the same pass can take 1.7x longer for tens of
seconds at a time, while other tenants load the machine.  Every timed
pass is therefore bracketed by a fixed pure-Python kernel whose work
never changes: a generator-driven event loop over a binary heap, close
to the simulator's own instruction mix but sharing none of its code.
A pass's *speed factor* is the median of the four kernel timings
nearest to it over :data:`REFERENCE_SECONDS`; time metrics are reported
as host seconds divided by that factor ("reference seconds").  A change to the
program moves them one for one; a slower host moves the kernel too.
"""

from __future__ import annotations

import heapq
import time

#: Kernel steps per calibration (about 0.4 s of host time).
STEPS = 400_000

#: Nominal kernel time that defines one reference second.
REFERENCE_SECONDS = 0.4


def _source(index: int):
    state = index
    clock = 0.0
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        clock += (state % 97) + 1.0
        yield clock


def kernel_seconds(steps: int = STEPS) -> float:
    """Host seconds the fixed kernel takes right now."""
    sources = [_source(index) for index in range(64)]
    heap = [(next(source), index) for index, source in enumerate(sources)]
    heapq.heapify(heap)
    fired = {}
    start = time.perf_counter()
    for _ in range(steps):
        _, index = heapq.heappop(heap)
        fired[index] = fired.get(index, 0) + 1
        heapq.heappush(heap, (next(sources[index]), index))
    return time.perf_counter() - start


def speed_factor(kernel_time: float) -> float:
    """Host slowness from a kernel timing (1.0 = reference host)."""
    return kernel_time / REFERENCE_SECONDS
