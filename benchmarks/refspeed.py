"""Scale measured times to a reference core speed.

On a shared host the same code runs at very different speeds from minute
to minute: other tenants contend for the physical core, its caches and its
memory bandwidth, and the process's CPU time grows as fast as its wall time
while it is slowed.  A time measured in seconds then says as much about
the host's phase as about the program.

``RefClock`` samples a fixed reference kernel, which is the benchmark's own
code and never changes with the program, at the start and end of a round
and every ``INTERVAL_S`` seconds in between, from a ``SIGALRM`` handler
that runs between the bytecodes of the operation being timed.  The
handler's own time is left out of the operation's time.  Each stretch of
operation time between two samples is scaled by ``REF_S`` over the mean of
the two samples that bracket it, which gives the time the operations would
have taken on a core that runs the kernel in ``REF_S`` seconds.  The kernel
mixes the kinds of work the workloads do: a vectorized numpy pass, small
numpy calls from a Python loop, and a pure-Python monotone-chain hull over
tuples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# about the kernel's time on the 2-core host of the reference figures
# (README) in its fast phases; it only sets the scale of the reported times
REF_S = 0.001
REPS = 5  # kernel runs per sample; their median is the sample
INTERVAL_S = 0.1  # time between samples taken inside a round

_rng = np.random.default_rng(20111)
_VEC = _rng.random(20_000)
_P = _rng.random((64, 64))
_P /= _P.sum(axis=1, keepdims=True)
_CUM = np.cumsum(_P, axis=1)
_U = _rng.random(120).tolist()
_PTS = [tuple(p) for p in _rng.random((300, 2)).tolist()]


def _half_hull(points):
    out = []
    for p in points:
        while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                 - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
            out.pop()
        out.append(p)
    return out


def kernel() -> float:
    """One run of the reference work; returns a value so nothing is skipped."""
    total = float(np.exp(np.sort(_VEC)).sum())
    state = 0
    for u in _U:
        state = min(int(np.searchsorted(_CUM[state], u)), _P.shape[0] - 1)
        total += float((_P[state] * 2.0).sum())
    pts = sorted(_PTS)
    hull = _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]
    return total + len(hull)


def sample() -> float:
    """Median time of ``REPS`` kernel runs."""
    perf = time.perf_counter
    times = []
    for _ in range(REPS):
        start = perf()
        kernel()
        times.append(perf() - start)
    return statistics.median(times)


class RefClock:
    """Times the operations of one round, raw and scaled to ``REF_S``.

    ``start()`` takes the first sample and arms the interval timer unless
    ``interval`` is 0; ``begin_op()`` and ``end_op()`` bracket one operation,
    and ``end_op`` returns its time without the samples taken inside it;
    ``stop()`` disarms the timer, takes the last sample and returns the
    round's scaled time.
    """

    def __init__(self, sampler=sample, interval: float = INTERVAL_S):
        self._sampler = sampler
        self._interval = interval
        self._guard = False  # set while the clock's own state changes
        self._last = 0.0
        self._pending = 0.0  # operation time since the last sample
        self._op = 0.0
        self._since = None  # start of the running operation's current stretch
        self.scaled = 0.0
        self.samples: list[float] = []

    def _take(self) -> None:
        new = self._sampler()
        self.samples.append(new)
        if self._pending:
            self.scaled += self._pending * 2.0 * REF_S / (self._last + new)
            self._pending = 0.0
        self._last = new

    def _on_timer(self, signum, frame) -> None:
        if self._guard:
            return  # the next tick samples instead
        self._guard = True
        if self._since is not None:
            stretch = time.perf_counter() - self._since
            self._op += stretch
            self._pending += stretch
        self._take()
        if self._since is not None:
            self._since = time.perf_counter()
        self._guard = False

    def start(self) -> None:
        self._guard = True
        self.scaled = 0.0
        self._pending = 0.0
        self._since = None
        self._take()
        self._guard = False
        if self._interval > 0:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)

    def begin_op(self) -> None:
        self._guard = True
        self._op = 0.0
        self._since = time.perf_counter()
        self._guard = False

    def end_op(self) -> float:
        self._guard = True
        stretch = time.perf_counter() - self._since
        self._since = None
        self._op += stretch
        self._pending += stretch
        self._guard = False
        return self._op

    def stop(self) -> float:
        if self._interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._guard = True
        self._take()
        self._guard = False
        return self.scaled
