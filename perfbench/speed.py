"""Host-speed probe: times in seconds at a fixed reference speed.

On a virtual machine that shares its cores with other tenants, the speed
of the same Python code drifts by up to 2x over seconds to minutes, and
a whole run can fall inside one slow stretch.  The benchmark therefore
times a fixed pure-Python reference (parsing text lines into a dict and a
depth-first search over a small graph, the kind of work crossflow does)
next to the commands, and rescales each command's wall time by how fast
the reference ran around it:

    reference_s = wall_s * REF_S / probe_s

The probe times the reference, best of three, at least every ``interval``
seconds between commands and every ``inner`` seconds while a command runs
(from a SIGALRM handler; the probes' own time is taken out of the
command's), and ``probe_s`` is the median of the probes from ``window``
seconds before the command to ``window`` seconds after it.  One probe is
noisy at the scale of milliseconds, the host's speed drifts at the scale
of seconds, and the window's median follows the drift without the noise.
``REF_S`` is the probe's time on a quiet 2-vCPU Xeon virtual machine, so
reference seconds there read as wall seconds.  The reference is this
file's own code, so a change to crossflow cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

REF_S = 0.0025
PROBE_REPS = 3

_rng = random.Random(7)
_LINES = [
    f"{_rng.randrange(10**6)} p{_rng.randrange(9)} C{_rng.randrange(50)}.m{_rng.randrange(20)} "
    f"send {_rng.randrange(99)}"
    for _ in range(1500)
]
_EDGES = {i: [_rng.randrange(800) for _ in range(3)] for i in range(800)}


def reference() -> int:
    by_method: dict[str, list[int]] = {}
    for line in _LINES:
        rec = line.split()
        by_method.setdefault(rec[2], []).append(int(rec[0]))
    reached = 0
    for start in range(0, 800, 100):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in _EDGES[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reached += len(seen)
    return reached + len(by_method)


def probe() -> float:
    """Best of ``PROBE_REPS`` timings of the reference, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Turns wall times into reference seconds.

    ``start``/``stop`` bracket a timed region; with sampling on, the host
    is probed every ``inner`` seconds inside it and ``stop`` returns the
    seconds those probes took.  ``add`` records the region's wall time
    with a sink, a callable that ``resolve`` later hands its time in
    reference seconds."""

    def __init__(self, sample: bool, interval: float = 0.1, inner: float = 0.25,
                 window: float = 1.0) -> None:
        self.sample = sample
        self.interval = interval
        self.inner = inner
        self.window = window
        self.at: list[float] = []
        self.probes: list[float] = []
        self.samples: list[tuple[float, float, float, object]] = []
        self.spent = 0.0
        self.t0 = self.t1 = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._alarm)
        self.tick()

    def tick(self) -> None:
        """Probe now."""
        self.at.append(time.perf_counter())
        self.probes.append(probe())

    def _alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.tick()
        self.spent += time.perf_counter() - t0

    def start(self, sample: bool = True) -> None:
        self.spent = 0.0
        if self.sample and sample:
            signal.setitimer(signal.ITIMER_REAL, self.inner, self.inner)
        self.t0 = time.perf_counter()

    def stop(self) -> float:
        self.t1 = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return self.spent

    def add(self, wall: float, sink) -> None:
        """Record the wall time of the region last started and stopped."""
        self.samples.append((self.t0, self.t1, wall, sink))
        if time.perf_counter() - self.at[-1] >= self.interval:
            self.tick()

    def resolve(self) -> None:
        """Hand every recorded time to its sink, in reference seconds."""
        self.tick()
        for t0, t1, wall, sink in self.samples:
            lo = bisect.bisect_left(self.at, t0 - self.window)
            hi = bisect.bisect_right(self.at, t1 + self.window)
            sink(wall * REF_S / statistics.median(self.probes[lo:hi]))
        self.samples.clear()
