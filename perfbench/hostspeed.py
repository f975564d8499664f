"""Host-speed probe: how fast this host runs Python right now.

The benchmark shares a few cores of a host whose speed drifts.  A fixed
pure-Python workload runs at two or three speeds up to 1.8x apart; the
host switches between them within seconds and stays mostly at the slow
one for minutes at a time, so raw seconds from two runs a few minutes
apart differ by the host, not the program.

Each timing the benchmark reports is therefore adjusted to the reference
speed: ``raw * NOMINAL_S / probe``, where ``probe`` is the mean time of a
fixed workload run every ``EVERY_S`` while the timed work runs.  A point
probe next to a piece of work says little when the speed switches within
seconds; the probes taken during the piece give its average speed.
Probe time is kept out of every measured time.  The probe uses only the
standard library, so no change to the program moves it.  Raw seconds
are printed beside the adjusted ones in every report.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Tuple

# The probe's median on the 2-vCPU Xeon host the bounds were set on, in
# its middle state.  Any constant would do: it only sets the scale, and
# the same constant is used on both sides of every comparison.
NOMINAL_S = 0.00125
REPS = 5
# Interval between probes while a phase runs: ~3% of the time.
EVERY_S = 0.2
# Probes taken when a phase starts: enough for a short set-up.
FIRST = 8


def _workload() -> int:
    """Dict, string, sort and JSON work, then a SHA-256 chain: the mix of
    object work and hashing the program's serving and audit do."""
    rng = random.Random(1)
    table: dict = {}
    for i in range(800):
        table.setdefault(f"k{rng.randrange(160)}", []).append((i, str(i)))
    rows = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    state = json.dumps(rows).encode()
    for _ in range(120):
        state = hashlib.sha256(state).digest()
    return len(state)


def probe() -> Tuple[float, float]:
    """Median wall-clock and CPU seconds of ``REPS`` runs of the fixed
    workload.  The collector is off meanwhile: the probe's allocations
    must not trigger a collection of the program's heap, whose size
    would then set the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        walls, cpus = [], []
        for _ in range(REPS):
            start, cpu0 = time.perf_counter(), time.process_time()
            _workload()
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(walls), statistics.median(cpus)


class Speed(NamedTuple):
    """Speed factors of one phase, for wall-clock and for CPU times: the
    host can lose wall-clock time to other guests that the process's CPU
    time never shows."""

    wall: float
    cpu: float


RAW = Speed(1.0, 1.0)


def _factor(times: List[float]) -> float:
    """``NOMINAL_S`` over the mean probe, the slowest and fastest tenth
    left out."""
    times = sorted(times)
    cut = len(times) // 10
    return NOMINAL_S / statistics.mean(times[cut:len(times) - cut])


class Probes:
    """Probe times taken over one phase of a run, and the wall and CPU
    time the probing itself used, which :meth:`clock` leaves out."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.cpu_times: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def take(self) -> None:
        start, cpu0 = time.perf_counter(), time.process_time()
        wall, cpu = probe()
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - start
        self.times.append(wall)
        self.cpu_times.append(cpu)

    def wall(self) -> float:
        """Wall-clock seconds now, less the time spent probing so far:
        the difference of two readings is the work's own time."""
        return time.perf_counter() - self.wall_s

    def cpu(self) -> float:
        """Process CPU seconds now, less the probes' CPU time so far."""
        return time.process_time() - self.cpu_s

    @contextmanager
    def running(self) -> Iterator["Probes"]:
        """Probe ``FIRST`` times, then every ``EVERY_S`` until the block
        ends, from a SIGALRM handler: Python runs it on the main thread
        between two bytecodes of whatever the program is doing."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.take())
        for _ in range(FIRST):
            self.take()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, since: int = 0) -> Speed:
        """Speed factors from the probes taken since ``len(self.times)``
        was ``since``, and the one before them: the speed over a piece of
        work that started then.  :data:`RAW` with no probes (a traced
        window)."""
        first = max(since - 1, 0)
        if first >= len(self.times):
            return RAW
        return Speed(_factor(self.times[first:]),
                     _factor(self.cpu_times[first:]))
