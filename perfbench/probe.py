"""The probe: a short fixed piece of pure-Python work, timed next to the work
it corrects.

On a shared host the speed of this process changes by up to 1.5x, for a
fraction of a second to minutes.  The probe tracks that state, so a time
divided by the host factor, the probe's time over REF_PROBE_S, is a time on
the reference host (a 2-core VM, Python 3.11), on which the probe takes
REF_PROBE_S.  The probe does what laced does most, exact Fraction dot
products on short vectors and hashing of tuples, because on the reference
host a plain integer loop tracks laced's slowdowns only in part: over 90 s of
isometry_to_canonical(E8), the spread of 10-call medians was 0.20 with the
loop as the probe and 0.03 with this one.  loop_s stays as the calibration
diagnostic.

HostClock times the probe from an interval timer, so also in the middle of
a call: the state can change within a call of a second, and a correction
from probes at its two ends only left a spread of 0.08 over repeated
L(K10) embeds, against 0.015 with a probe every EVERY_S.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REF_PROBE_S = 0.0025
# a probe takes about 5 ms, so probing costs about a tenth of the wall time
EVERY_S = 0.05


def loop_s(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def fraction_work_s() -> float:
    """Wall time of a fixed piece of Fraction and tuple-hashing work."""
    t0 = time.perf_counter()
    vecs = [tuple(Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 2) for j in range(8)) for i in range(12)]
    seen = set()
    for a in vecs:
        for b in vecs[:6]:
            d = sum(x * y for x, y in zip(a, b))
            seen.add((d, a[0]))
    return time.perf_counter() - t0


def probe_s() -> float:
    return min(fraction_work_s(), fraction_work_s())


def host_factor(before: float, after: float) -> float:
    """The host factor of work between two probes."""
    return (before + after) / (2 * REF_PROBE_S)


class HostClock:
    """Within `with HostClock() as clock:`, the probe is timed every EVERY_S
    (on SIGALRM, in this thread).  Afterwards, split(t0, t1) gives the time
    between two perf_counter() readings taken inside the block, without the
    probes that fell into it, as wall time and as time on the reference
    host."""

    def __init__(self):
        self.marks = []  # (start, end, probe time) of each probe, in order
        self.probing_s = 0.0
        self._busy = False

    def _probe(self, *_) -> None:
        if self._busy:  # the timer fired again while the probe ran
            return
        self._busy = True
        start = time.perf_counter()
        p = probe_s()
        end = time.perf_counter()
        self.marks.append((start, end, p))
        self.probing_s += end - start
        self._busy = False

    def __enter__(self) -> HostClock:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """Each stretch between two probes is divided by the host factor of
        those two probes."""
        k = max(bisect.bisect_right(self.marks, t0, key=lambda m: m[1]) - 1, 0)
        wall = ref = 0.0
        while k + 1 < len(self.marks) and self.marks[k][1] < t1:
            (_, end, before), (start, _, after) = self.marks[k], self.marks[k + 1]
            stretch = min(start, t1) - max(end, t0)
            if stretch > 0:
                wall += stretch
                ref += stretch / host_factor(before, after)
            k += 1
        return wall, ref
