"""Machine-speed probe used to put run times on a common footing.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over minutes, which would swamp a 10-25% regression bound. The
runner times this fixed workload between operations and reports times
scaled by ``NOMINAL_S / median(probe times)``: seconds on a machine where
the probe takes ``NOMINAL_S``. The probe chases pointers through a table
far larger than the processor caches and then builds a small dict, because
the program's own work (parsing, indexing, loading a 200 MB object graph)
is bound by memory in the same way; a compute-only probe tracked the
program's speed worse than no probe at all. The probe never touches the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# median probe time on the reference machine (2 vCPUs at 2.1 GHz, CPython 3.11)
NOMINAL_S = 0.060


class Probe:
    """Owns the probe's table (about 80 MB); create one per run."""

    def __init__(self) -> None:
        self.table = [(i, str(i)) for i in range(600_000)]
        order = list(range(len(self.table)))
        random.Random(0).shuffle(order)
        self.order = order[:80_000]
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        """Time the fixed workload ``times`` times, with the collector paused
        so the caller's heap does not leak into the figure."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = time.perf_counter()
                total = 0
                for i in self.order:
                    total += len(self.table[i][1])
                scratch: dict = {}
                for i in range(20_000):
                    scratch.setdefault((f"w{i % 5000}", i & 7), []).append(i)
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()


def factor(samples: list[float]) -> float:
    """Scale that turns a run's seconds into reference seconds."""
    return NOMINAL_S / statistics.median(samples)
