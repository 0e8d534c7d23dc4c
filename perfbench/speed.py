"""Machine-speed normalisation of measured times.

The shared 2-vCPU machines this benchmark runs on change speed by up to
1.8x, per vCPU, in stretches from under a second to minutes (README,
"Machine speed"). A run's raw median takes the speed of whatever stretch
it fell in, so two sets of runs of the same code disagree by more than any
bound allows.

The benchmark therefore runs every process it times on one CPU (``pin``)
and, at quiet moments between operations, times a fixed reference kernel
(``Speed.probe``). The kernel is a small mix of the work citykit does,
and each workload picks the mix that slows down with the machine as its
own work does: ``service`` (the HTTP workloads) runs JSON round trips of an
NGSI-like document, a heap-based shortest-path search over a dict graph
and small numpy least-squares fits; ``batch`` (``forecast``) runs the
search and more of the fits. The kernels live in this file, so no change
to ``src/`` changes them. Every timed interval is then scaled by the
kernel's reference time over its measured time around the interval
(``Speed.scale``): the result is the time the interval would have taken at
the speed where the kernel takes ``REFERENCE_SECONDS[kind]``. A program
change that makes citykit faster or slower moves the scaled figures as
much as the raw ones; a change of machine speed moves the kernel with them.
"""

import heapq
import json
import os
import random
import statistics
import time
from bisect import bisect_left

import numpy as np

# Each kernel's time at reference speed: about its time in a fast stretch
# of the machine in README.
REFERENCE_SECONDS = {"service": 0.0035, "batch": 0.0025}
KERNEL_REPEATS = 3  # a probe is the median of this many kernel runs


def pin() -> int:
    """Run this process, and every process it starts from now on, on one
    CPU: the lowest it may use. Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _graph(n: int, seed: int) -> dict:
    rnd = random.Random(seed)
    return {u: [(rnd.randrange(n), rnd.randint(1, 30)) for _ in range(4)] for u in range(n)}


_GRAPH = _graph(1200, 5)
_DOC = {"id": "urn:ngsi-ld:Device:kernel", "type": "Device",
        **{f"attr{i}": {"type": "Number", "value": i * 1.5, "metadata": {"seq": {"value": i}}}
           for i in range(24)}}
_RNG = np.random.default_rng(5)
_X = _RNG.standard_normal((400, 10))
_Y = _RNG.standard_normal(400)


def _search() -> int:
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(dist)


def _fits(n: int) -> None:
    for _ in range(n):
        a = _X.T @ _X + np.eye(10)
        np.linalg.solve(a, _X.T @ _Y)


def kernel(kind: str = "service") -> None:
    """The reference work of one probe run."""
    if kind == "service":
        for _ in range(20):
            json.loads(json.dumps(_DOC))
        _search()
        _fits(6)
    else:
        _search()
        _fits(12)


class Speed:
    """Probes of the reference kernel over a run, and the scaling they give."""

    def __init__(self, kind: str = "service"):
        self.kind = kind
        self.reference = REFERENCE_SECONDS[kind]
        self.probes = []  # (start, end, kernel seconds)
        self._mids, self._ends = [], []
        kernel(kind)  # warm caches and imports; not a probe

    def probe(self) -> float:
        """Time the kernel now; returns its seconds. Call only while the
        benchmark's own threads and the services under test are idle."""
        start = time.perf_counter()
        runs = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            kernel(self.kind)
            runs.append(time.perf_counter() - t0)
        seconds = statistics.median(runs)
        self.probes.append((start, time.perf_counter(), seconds))
        return seconds

    def scale(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at reference speed, leaving
        out the probes that fall inside it."""
        if len(self._mids) != len(self.probes):
            self._mids = [(a + b) / 2 for a, b, _ in self.probes]
            self._ends = [b for _, b, _ in self.probes]
        total, t = 0.0, start
        i = bisect_left(self._ends, start)
        while i < len(self.probes) and self.probes[i][0] < end:
            a, b, _ = self.probes[i]
            if a > t:
                total += (a - t) * self._factor((a + t) / 2)
            t = max(t, b)
            i += 1
        if end > t:
            total += (end - t) * self._factor((end + t) / 2)
        return total

    def _factor(self, t: float) -> float:
        """Reference over kernel time at ``t``, interpolated between the
        middles of the probes around it."""
        mids = self._mids
        i = bisect_left(mids, t)
        if i == 0:
            return self.reference / self.probes[0][2]
        if i == len(mids):
            return self.reference / self.probes[-1][2]
        (_, _, k0), (_, _, k1) = self.probes[i - 1], self.probes[i]
        w = (t - mids[i - 1]) / (mids[i] - mids[i - 1])
        return self.reference / (k0 + w * (k1 - k0))
