"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark's machine is shared, and other jobs slow every run by a
different amount. This loop does the same kind of work the simulator
does: heap pushes and pops, dict lookups over a table of 64 Ki objects,
attribute updates and method calls. So the other jobs slow it by about as
much as they slow the program. It never calls the program, so a change
to the program cannot change the loop's speed directly.

Host-time metrics are scaled to a host on which the loop runs at
:data:`REFERENCE_STEPS_PER_S`: a metric measured while the loop runs at
half that speed is doubled.
"""

from __future__ import annotations

import gc
import heapq
import time

#: loop steps per second on the reference host (a 2-vCPU Intel Xeon
#: virtual machine, at its fastest observed)
REFERENCE_STEPS_PER_S = 700_000.0
#: steps per timed burst (about 30 ms on the reference host)
BURST_STEPS = 20_000


class _Slot:
    __slots__ = ("key", "hits", "dirty")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.dirty = False

    def touch(self, write: bool) -> int:
        self.hits += 1
        if write:
            self.dirty = True
        return self.hits


class Calibrator:
    """Times bursts of the loop; owns the loop's table."""

    def __init__(self) -> None:
        self.table = {i: _Slot(i) for i in range(1 << 16)}

    def rate(self) -> float:
        """Loop steps per host second over one burst.

        The collector is off during the burst, so the size of the
        program's heap does not change the loop's speed; the loop makes
        no reference cycles.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return BURST_STEPS / self._burst()
        finally:
            if enabled:
                gc.enable()

    def _burst(self) -> float:
        table = self.table
        heap: list = []
        done: list[int] = []
        push, pop = heapq.heappush, heapq.heappop
        x = 12345
        t0 = time.perf_counter()
        for seq in range(BURST_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            slot = table[x & 0xFFFF]
            slot.touch(x & 3 == 0)
            push(heap, (x >> 16, seq, slot))
            if len(heap) > 256:
                done.append(pop(heap)[2].key)
                if len(done) > 1024:
                    done.clear()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Reference speed ÷ the fastest of three bursts taken now."""
        return REFERENCE_STEPS_PER_S / max(self.rate() for _ in range(3))
