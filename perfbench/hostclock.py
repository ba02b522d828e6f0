"""Host-speed calibration for timed passes.

The benchmark shares a 2-core machine with other tenants. A fixed
pure-Python loop slowed by up to 2x from one minute to the next on such a
host while its own CPU time stayed equal to its wall time, and raw pass times
of the workloads spread by ~20% (quartile distance over median) between runs.
A HostClock runs a fixed reference computation, which never calls the
library, every REF_INTERVAL_S of CPU time while a pass runs, and three times
on each side of it. ``factor()`` is NOMINAL_REF_S over the median reference
time in the pass, and ``factor_between()`` the same over the samples near
one job; run.py scales set-up times with ``scale()`` over samples taken
around each worker's start. Times multiplied by them read as seconds on a
host where the reference takes NOMINAL_REF_S. Over ten seeds per workload,
that scaling brought the spread of ``wall_s`` from 17-21% to 3-8%.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_INTERVAL_S = 0.5
# A job's own scale uses the samples within this many seconds of it, and at
# least LOCAL_MIN of them: the host's speed changes within seconds too.
LOCAL_WINDOW_S = 1.0
LOCAL_MIN = 3
# Median reference time measured on a 2-core Xeon host; it sets the scale of
# the reported times only.
NOMINAL_REF_S = 0.005


def reference() -> None:
    """Fixed interpreter work: an integer loop. Of the Fraction, dict,
    allocation and integer references tried, its speed tracked the
    workloads' best."""
    s = 0
    for i in range(50000):
        s += i * i % 7


def reference_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(reference_times) -> float:
    """Factor that turns a time measured while the reference took these
    times into seconds at NOMINAL_REF_S."""
    return NOMINAL_REF_S / statistics.median(reference_times)


class HostClock:
    """Context manager around one pass; ``spent`` is the time taken by
    reference samples inside the pass, which callers subtract."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0

    def _sample(self):
        start = time.perf_counter()
        took = reference_time()
        self.samples.append((start, took))
        return took

    def _on_timer(self, *_):
        self.spent += self._sample()

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        for _ in range(3):
            self._sample()
        return False

    def factor(self) -> float:
        """Scale for the whole pass."""
        return scale([took for _, took in self.samples])

    def factor_between(self, start: float, end: float) -> float:
        """Scale for one job: the median of the samples taken within
        LOCAL_WINDOW_S of it, or of the LOCAL_MIN nearest ones."""
        near = sorted(
            self.samples,
            key=lambda s: max(start - s[0], s[0] - end, 0.0),
        )
        inside = [took for t, took in near if start - LOCAL_WINDOW_S <= t <= end + LOCAL_WINDOW_S]
        if len(inside) < LOCAL_MIN:
            inside = [took for _, took in near[:LOCAL_MIN]]
        return scale(inside)
