"""Host-speed samples taken during a pass, and times scaled by them.

The benchmark shares a few vCPUs of a busy host.  The speed of a core it
gets drifts by 15–30% within seconds, and by up to 60% over tens of
minutes, with the program unchanged.  A run of 40 s fits only a few cold
passes, so medians over passes cannot average the drift away.  A fixed
pure-Python reference routine, which calls no ``twochar`` code, slows down
with the host the way the pure-Python library does.  ``HostSpeed`` runs it
every ``INTERVAL_S`` from a ``SIGALRM`` handler, so samples also fall
inside long tasks, in the one thread of the child (no thread or process of
its own).

``now()`` is a clock that stops while the handler runs, so no measured time
includes the samples.  ``scaled(seconds, t0, t1)`` converts seconds measured
over ``[t0, t1]`` into seconds on a host where the reference takes
``REF_S``: it multiplies by the mean, over the samples near that interval,
of ``REF_S`` over the reference time.  Samples come at even steps of time,
so that mean is the host's speed integrated over the interval; a median of
the reference times missed slow stretches that the wall time had.  A
change to the library moves the scaled time as it moves the wall time;
only the host's drift is divided out.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.1  # one sample per 0.1 s of the program's time: about 2% overhead
REF_S = 0.002  # the unit: near the reference's median time on the 2-vCPU host of the baselines
HALF_WINDOW_S = 0.5  # samples this close to an interval describe it
MIN_SAMPLES = 5  # ... and never fewer than this many, the nearest ones


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference() -> int:
    """Fixed interpreter work of the four kinds the library does: dicts
    keyed by tuples, integer arithmetic, row operations on lists of lists
    (as in the SNF) and small objects.  Their sum tracked the library's
    speed better than any one of them alone.  About 2 ms."""
    d: dict = {}
    s = 0
    for i in range(1500):
        k = (i & 63, i % 7)
        d[k] = d.get(k, 0) + i
        s += (i * i) % 97
    s += len(sorted(d.values()))
    for i in range(4000):
        s = (s * 31 + i) % 1000003
    n = 14
    rows = [[(7 * r + 3 * c) % 19 - 9 for c in range(n)] for r in range(n)]
    for k in range(n - 1):
        pivot = rows[k]
        for r in range(k + 1, n):
            row = rows[r]
            q = row[k] // (pivot[k] or 1)
            for j in range(n):
                row[j] -= q * pivot[j]
    x = _Pair(1, 2)
    chain = []
    for i in range(1500):
        x = _Pair(x.b, (x.a + i) & 1023)
        chain.append(x)
    return s + rows[-1][-1] + len(chain)


class HostSpeed:
    """Samples the reference between bytecodes of the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (now() at the sample, reference seconds)
        self.paused = 0.0  # wall seconds spent in samples

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.paused, t1 - t0))
        self.paused += time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)  # re-armed after the sample: never nested

    @contextlib.contextmanager
    def held(self):
        """No sample starts inside this block; one that falls due runs after
        it.  For timings of ~0.1 ms, which a sample would delay by its cache
        misses afterwards even though ``now()`` leaves its own time out."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def now(self) -> float:
        """perf_counter() minus the time spent in samples.  A sample may land
        between reading ``paused`` and the clock; then read both again."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REF_S over the reference time near ``[t0, t1]`` (times of
        ``now()``): below 1 when the host runs slow."""
        def distance(sample):
            return max(t0 - sample[0], 0.0, sample[0] - t1)

        near = sorted(self.samples, key=distance)
        k = max(MIN_SAMPLES, sum(distance(s) <= HALF_WINDOW_S for s in near))
        return statistics.fmean(REF_S / d for _, d in near[:k])

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)
