"""Host speed, from a fixed pure-Python kernel timed in probe processes.

On the shared 2-CPU machine this benchmark was built on, CPU speed
drifts by ±20% over tens of milliseconds to minutes (other tenants
share the host), and the drift moves every timing together.  So each
timing is scaled by the speed of this kernel measured while it ran: a
reported time is what the item would have taken on a host where the
kernel takes ``REFERENCE_S``.  Raw times are printed alongside.

The kernel runs in small probe processes of its own, one per CPU and
pinned to it, never in the measured process.  Run in the measured
process, its speed would depend on the program's heap, allocator and
cache state, so a change to the program's footprint would move the
kernel too and the scaling would cancel part of that change.  A probe
shares only the host with the program.  Probe and program stamp times
with ``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC``, one
clock for every process.

    python3 perfbench/speed.py CPU   # a probe: samples until told to stop
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.0005
INTERVAL_S = 0.015


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _affine(p: _Point, x: int) -> int:
    return p.a * x + p.b


def _kernel() -> int:
    """Object creation, attribute access, calls, list and set traffic:
    the interpreter work the program's own hot loops do."""
    kept = []
    seen = set()
    acc = 0
    for i in range(400):
        p = _Point(i, i >> 1)
        acc += _affine(p, i & 15)
        if acc & 3:
            kept.append(p)
        seen.add((i & 63, i % 5))
    return acc + len(kept) + len(seen)


def probe(cpu: int) -> None:
    """Time the kernel on ``cpu`` every ``INTERVAL_S`` until a line
    arrives on standard input, then print ``[[midpoint, seconds], ...]``."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        samples.append(((t0 + t1) / 2, t1 - t0))
    print(json.dumps(samples))


class Speedometer:
    """One probe process per CPU for the duration of a ``with`` block.

    Each probe wakes every ``INTERVAL_S`` and runs the kernel for about
    0.3 ms, about 2% of one CPU.  Samples are collected when the block
    ends; :meth:`scale` is for use after it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._times: list[float] = []
        self._probes: list[subprocess.Popen] = []

    def __enter__(self) -> "Speedometer":
        for cpu in sorted(os.sched_getaffinity(0)):
            self._probes.append(
                subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        return self

    def __exit__(self, *exc: object) -> None:
        # A line, not EOF: a forked child of the measured process may
        # still hold the write end of a probe's standard input.
        for p in self._probes:
            p.stdin.write("stop\n")
            p.stdin.flush()
        for p in self._probes:
            out, _ = p.communicate(timeout=30)
            if exc[0] is None:
                self.samples.extend(tuple(s) for s in json.loads(out))
        self.samples.sort()
        self._times = [t for t, _ in self.samples]

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning a time measured from ``t0`` to ``t1`` into
        reference time: from every probe's samples taken during it plus
        the one either side of it."""
        i = bisect.bisect_left(self._times, t0)
        j = bisect.bisect_right(self._times, t1)
        pad = len(self._probes)
        window = self.samples[max(0, i - pad) : j + pad]
        return REFERENCE_S / statistics.median(s for _, s in window)


if __name__ == "__main__":
    probe(int(sys.argv[1]))
