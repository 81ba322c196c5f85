"""Reference clock: wall time rescaled by a calibration loop.

The machine this benchmark runs on shares its cores with other tenants, and
its speed for interpreted integer code drifts by up to about 1.8x, both
within a second and in phases that last seconds.  Raw wall times of one run
therefore say more about the phase than about the program.
:class:`ReferenceClock` samples the machine's speed with a fixed calibration
loop (built-in integer, tuple, dict and string work of the same kinds as the
program's hot paths) on a timer signal, and converts wall intervals into
*reference seconds*: the time the interval would have taken at the speed
where one calibration loop takes ``REFERENCE_S``.  Time spent inside the
calibration loop itself is excluded.

This module imports nothing that ``qhpp`` imports, so the set-up probe can
load it in a fresh interpreter before timing ``import qhpp``.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_S = 0.003  # calibration-loop duration that defines one reference second
PERIOD_S = 0.1  # timer period between speed samples

_VECTORS = tuple(tuple((i * j + 3) % 7 for j in range(48)) for i in range(24))


def calibrate() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0
    table = {}
    for a in _VECTORS:  # short dot products, like CurveClass.dot
        for b in _VECTORS:
            acc += sum(x * y for x, y in zip(a, b))
        table[a[0], acc & 255] = acc
    num, den = 10**45 + 7, 10**44 + 3  # big-integer Euclid, like expand / Fraction
    for _ in range(6):
        x, y = num, den
        while y:
            x, y = y, x % y
        num, den = num * 3 + acc, den * 7 + 1
    rows = []  # short-lived records and text, like the CLI output paths
    for i in range(200):
        record = {"q": i, "q1": i * 7 % 13, "chain": [2, 3, i % 5 + 2]}
        rows.append(f"{record['q']};{record['q1']}|" + ",".join(map(str, record["chain"])))
    return acc + x + len(table) + len("".join(rows))


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class ReferenceClock:
    """Context manager that samples speed on SIGALRM while it is open.

    ``now()`` reads the raw wall clock; after the context closes,
    ``ref_seconds(a, b)`` converts any interval measured inside it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum: list[float] = []
        self._slope: list[float] = []
        self._old_handler = None

    now = staticmethod(time.perf_counter)

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "ReferenceClock":
        for _ in range(3):  # warm the loop before the first recorded sample
            calibrate()
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._sample()
        cum = 0.0
        self._cum = [0.0]
        self._slope = []
        # segment k is the work between sample k-1 and sample k; the sample
        # that closes it gives its speed (the speed changes within a second,
        # so a wider window only blurs it)
        for k in range(1, len(self.starts)):
            slope = REFERENCE_S / (self.ends[k] - self.starts[k])
            cum += (self.starts[k] - self.ends[k - 1]) * slope
            self._slope.append(slope)
            self._cum.append(cum)

    def _ref(self, t: float) -> float:
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self._slope[0]
        if t <= self.ends[k]:  # inside a calibration sample: excluded
            return self._cum[k]
        slope = self._slope[min(k, len(self._slope) - 1)]
        return self._cum[k] + (t - self.ends[k]) * slope

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``now()`` readings."""
        return self._ref(end) - self._ref(start)

    def speed(self) -> float:
        """Median machine speed over the context, relative to the reference."""
        return _median(self._slope) if self._slope else 1.0
