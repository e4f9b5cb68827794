"""A clock that times the program in reference seconds, so that the host's drifting speed cancels out.

The benchmark runs on a few cores of a shared host whose speed swings by
up to about 1.7x from one second to the next, and stays slow or fast for
anything from a second to a minute. A unit of work therefore takes up to
1.7 times longer in one run than in the next, and no run is long enough
to average that out.

While a ``HostClock`` is active, a SIGALRM timer interrupts the main
thread every ``INTERVAL_S`` seconds and runs a fixed reference kernel (a
tree-multinomial resampler on a fixed 1000-node tree, numpy only and
kept in this file, so that no change to rdsvar changes it) and records
the CPU time it took. ``seconds(t0, t1)`` converts a wall interval of the
program into reference seconds: the interval, minus the time the samples
inside it took, times ``REF_CPU_S`` over the samples' mean CPU time. When
the host is 1.5x slow, the program and the samples in it both take 1.5x
longer, and the reference seconds stay the same.

Limits: the kernel shares its core and caches with the program, so a
change that makes the program thrash the caches more also slows the
samples and is partly forgiven, and one that thrashes them less is
partly under-credited. Only the main process is sampled; pool workers
are assumed to see the same host.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

INTERVAL_S = 0.05
REPLICATES = 4  # kernel replicates per sample: about 1.3 ms, i.e. 3 % of the run
# CPU seconds of one sample on an unloaded 2-vCPU KVM guest (Intel Xeon,
# Python 3.11, numpy 2.4); a reference second is a second of that host.
REF_CPU_S = 1.25e-3


def _reference_tree(n: int = 1000, roots: int = 10):
    """Traversal plan [(node, children, uniform pvals)] of a fixed random tree, parents before children."""
    rng = np.random.default_rng(3)
    kids: list[list[int]] = [[] for _ in range(n)]
    for i in range(roots, n):
        kids[int(rng.integers(max(0, i - 30), i))].append(i)
    return [(u, np.array(k), np.full(len(k), 1.0 / len(k))) for u, k in enumerate(kids) if k]


_PLAN = _reference_tree()
_ROOT_PVALS = np.full(10, 0.1)
_Z = np.random.default_rng(4).random((1000, 5))


def kernel(replicates: int = REPLICATES) -> float:
    """Tree-bootstrap replicates on the reference tree, each from its own seeded generator."""
    acc = 0.0
    for b in range(replicates):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11, b])))
        counts = np.zeros(len(_Z), dtype=np.int64)
        counts[: _ROOT_PVALS.size] = rng.multinomial(_ROOT_PVALS.size, _ROOT_PVALS)
        for u, kids, pvals in _PLAN:
            m = int(counts[u])
            if m:
                counts[kids] = rng.multinomial(m * kids.size, pvals)
        acc += float((counts @ _Z).sum())
    return acc


class WallClock:
    """Plain wall seconds; the clock of traced runs."""

    def seconds(self, t0: float, t1: float) -> float:
        return t1 - t0


class HostClock:
    """Samples the host's speed with the reference kernel while the program runs (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (wall start, wall end, CPU seconds)
        self._busy = False

    def sample(self) -> None:
        w0, c0 = perf_counter(), thread_time()
        kernel()
        self.samples.append((w0, perf_counter(), thread_time() - c0))

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        kernel()  # warm up: the first call is slower
        self.sample()  # so that there is always one
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _inside(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        return [s for s in self.samples if t0 <= s[0] and s[1] <= t1]

    def speed(self, t0: float, t1: float) -> float:
        """Host speed over [t0, t1] relative to the reference host; all samples so far if none fell inside."""
        cpu = [c for _, _, c in self._inside(t0, t1)] or [c for _, _, c in self.samples]
        return REF_CPU_S / statistics.fmean(cpu)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds the program spent in the wall interval [t0, t1]."""
        sampling = sum(end - start for start, end, _ in self._inside(t0, t1))
        return (t1 - t0 - sampling) * self.speed(t0, t1)
