"""What the host is: the host block printed with every result, and the
host-speed probe that normalises the sim throughput.

On a 2-core virtual machine that shares its cores with other tenants the
speed drifts by ±20% over tens of seconds, which moves raw ops/s between
runs more than any bound worth having.  Each timed part of a sim run is
therefore paired with a probe run right before it, and the part's CPU time
is scaled by how slow the probe was against :data:`PROBE_REF_S`.  The
probe is plain Python shipped with the benchmark (a heap, attribute and dict
traffic over a pool of objects larger than the caches) and calls no program
code, so a faster program still shows as a faster rate.  The set-up time
is scaled by the probe taken just before it.  The live workload is not
normalised (see :mod:`perfbench.liveload`).
"""

from __future__ import annotations

import gc
import heapq
import os
import platform
import random
import statistics
import time
from typing import Dict, List

#: probe time of the reference host; a normalised rate is "ops per second
#: on a host where the probe takes this long"
PROBE_REF_S = 0.025
POOL_SIZE = 100_000
PROBE_STEPS = 15_000


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = float(key)


class HostProbe:
    """A fixed pure-Python kernel whose CPU time tracks host speed."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.pool: List[_Item] = [_Item(i) for i in range(POOL_SIZE)]
        self.order = [rng.randrange(POOL_SIZE) for _ in range(PROBE_STEPS)]
        self.table: Dict[int, int] = {}

    def __call__(self) -> float:
        """CPU seconds of one probe pass (garbage collection held off, so
        the program's heap does not leak into the measurement)."""
        pool, table = self.pool, self.table
        heap: list = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time()
            for n, i in enumerate(self.order):
                item = pool[i]
                item.weight = item.weight * 0.5 + table.get(i & 4095, n)
                table[i & 4095] = item.key
                heapq.heappush(heap, (item.weight, n))
                if len(heap) > 64:
                    heapq.heappop(heap)
            return time.process_time() - started
        finally:
            if enabled:
                gc.enable()


def engine_floor_us(events: int = 100_000, repeats: int = 3) -> float:
    """Per-event cost of the bare engine: 64 self-rescheduling timers, no
    protocol (the ``bench_hotpath`` calibration loop); median of repeats.

    Recorded for comparing hosts, not used to normalise: it runs program
    code, so an engine speed-up would cancel itself out."""
    from repro.sim.engine import Simulator

    samples = []
    for _ in range(repeats):
        sim = Simulator(seed=1)

        def make_tick(period: float, sim=sim):
            def tick() -> None:
                sim.call_after(period, tick, recyclable=True)
            return tick

        for i in range(64):
            sim.call_after(0.001 * (i + 1), make_tick(0.5 + 0.001 * i))
        started = time.perf_counter()
        sim.run(max_events=events)
        samples.append((time.perf_counter() - started)
                       / sim.events_processed * 1e6)
    return statistics.median(samples)


def host_block() -> Dict[str, object]:
    probe = HostProbe()
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "engine_floor_us_per_event": engine_floor_us(),
            "probe_ms": statistics.median(probe() for _ in range(5)) * 1e3}
