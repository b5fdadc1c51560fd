"""Host time corrected for how fast the host core ran while it was measured.

On a shared host the same unit of work can take 30% longer in one
minute than in the next: other tenants' load slows the core the
benchmark runs on, and process CPU time slows with it.  A fixed piece
of work slows at the same moments, so the benchmark runs a small gauge
briefly and often *while* the measured code runs and divides the
slowdown out.

:class:`ReferenceClock` arms ``SIGALRM`` every :data:`INTERVAL_S` seconds.
Its handler times one run of :func:`gauge` (float arithmetic and dict
stores, about :data:`REFERENCE_S` seconds on an uncontended core of the
baseline host).  Python runs signal handlers in the main thread between
bytecodes, so the gauge measures the very core the measured code is on,
at moments spread over the whole interval, and shares no data with it.

With ``b_i`` the gauge's times and ``host_s`` the interval minus the
gauge's own time::

    speed = mean(REFERENCE_S / b_i)
    ref_s = host_s * speed ** SENSITIVITY

``speed`` is the core's speed relative to an uncontended core of the
baseline host.  The simulator, with its far larger working set, slows
more than the gauge when the core is contended: with ``SENSITIVITY`` 1
its unit times still rose with host time (slope 0.12 to 0.23 of log
unit time on log host time, in six comparison runs on three workloads),
and with 1.2 they did not (-0.05 to 0.07).  So ``ref_s`` is the time the
measured code would have taken on the baseline core.  A code change that
halves the work halves ``ref_s``; a neighbour that slows the core does
not move it.  One gauge run right before and one right after the
interval are always included, so short intervals still get a reading.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import perf_counter

#: Seconds between gauge runs; the gauge costs about 2% of measured time.
INTERVAL_S = 0.05
#: Gauge iterations per run.
GAUGE_ITERATIONS = 7_000
#: The gauge's time on an uncontended core of the baseline host: the
#: fastest tenth of its runs.
REFERENCE_S = 1.0e-3
#: How much more than the gauge the simulator slows under contention.
SENSITIVITY = 1.2


def gauge(iterations: int = GAUGE_ITERATIONS) -> float:
    acc = 0.0
    table = {}
    for i in range(iterations):
        acc += (i * 0.5) % 3.0
        table[i & 63] = acc
    return acc


def _timed_gauge() -> float:
    started = perf_counter()
    gauge()
    return perf_counter() - started


@dataclass(frozen=True)
class Reading:
    """One measured interval."""

    #: Host seconds, the gauge's own time excluded.
    host_s: float
    #: Host seconds on the baseline core (see the module docstring).
    ref_s: float
    #: Gauge runs, the two bracketing ones included.
    samples: int
    #: Mean core speed relative to the baseline over the interval.
    speed: float


class ReferenceClock:
    """Times a call in host seconds and in reference seconds.

    Use from the main thread only.  It takes ``SIGALRM`` for good: the
    handler stays installed between intervals and ignores a late signal,
    so none can reach a default handler and end the process.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._samples.append(_timed_gauge())

    def start(self) -> None:
        self._samples = [_timed_gauge()]
        self._active = True
        self._started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Reading:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        elapsed = perf_counter() - self._started
        inside = sum(self._samples[1:])
        self._samples.append(_timed_gauge())
        host = elapsed - inside
        speed = sum(REFERENCE_S / b for b in self._samples) / len(self._samples)
        return Reading(
            host_s=host,
            ref_s=host * speed**SENSITIVITY,
            samples=len(self._samples),
            speed=speed,
        )

    def time(self, fn):
        """Call ``fn()``; returns its value and the :class:`Reading`."""
        self.start()
        try:
            value = fn()
        finally:
            reading = self.stop()
        return value, reading
