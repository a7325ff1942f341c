"""Host speed, measured beside the program, and time at a reference speed.

The benchmark runs on shared virtual machines whose speed swings by about
1.5x within seconds as other tenants come and go: a fixed pure-Python loop
takes 0.6 ms in fast phases and 0.9 to 1.0 ms in slow ones. Wall times of
one workload then spread by about 30% from run to run, more than a
regression bound can allow. So the client thread times that loop, the
probe, about ten times a second, and every interval the benchmark reports
is converted to reference seconds: the time it would have taken at the
speed where the probe takes ``REFERENCE_PROBE_S``. The time between two
probes is scaled by the probes around it; the probes' own time counts as
zero, so no statement pays for them.

The probe allocates no container objects, so it never starts a garbage
collection of the program's heap, and it shares no code with the program,
so a change to the program does not change the scale.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right

#: seconds of work between two probes
PROBE_EVERY_S = 0.1
#: the probe's time at the reference speed (about its time on an idle core
#: of the 2-vCPU Xeon VM the benchmark was tuned on, so reference times
#: read close to wall times there)
REFERENCE_PROBE_S = 0.6e-3

_TABLE = {i: i for i in range(64)}


def _probe() -> None:
    table = _TABLE
    acc = 0
    for i in range(4000):
        acc += table[i & 63] ^ (i * 7)
        table[i & 63] = acc & 255


class PaceClock:
    """Probe samples of one process and the conversions built on them."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._next = 0.0
        self._built = 0
        #: per probe k: reference and busy seconds up to its start, and
        #: the reference seconds per wall second after its end
        self._ref_at: list[float] = []
        self._busy_at: list[float] = []
        self._scale: list[float] = []
        self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._next = end + PROBE_EVERY_S

    def tick(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()

    def _build(self) -> None:
        if self._built == len(self.starts):
            return
        starts, ends = self.starts, self.ends
        took = [e - s for s, e in zip(starts, ends)]
        last = len(took) - 1
        # the median of each probe and its neighbours drops a lone probe
        # that an interrupt slowed
        self._scale = []
        for k in range(len(took)):
            around = sorted(took[max(0, k - 1):k + 2])
            self._scale.append(REFERENCE_PROBE_S / around[len(around) // 2])
        self._ref_at = [0.0]
        self._busy_at = [0.0]
        for k in range(last):
            gap = starts[k + 1] - ends[k]
            self._ref_at.append(self._ref_at[-1] + gap * self._scale[k])
            self._busy_at.append(self._busy_at[-1] + gap)
        self._built = len(starts)

    def _at(self, t: float) -> tuple[float, float]:
        """(reference, busy) seconds from the first probe to ``t``."""
        self._build()
        k = bisect_right(self.starts, t) - 1
        if k < 0:
            gap = t - self.starts[0]
            return gap * self._scale[0], gap
        after = max(0.0, t - self.ends[k])
        return self._ref_at[k] + after * self._scale[k], self._busy_at[k] + after

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return self._at(end)[0] - self._at(start)[0]

    def busy(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` outside probes."""
        return self._at(end)[1] - self._at(start)[1]

    def probe_ms(self, start: float, end: float) -> list[float]:
        """Every probe's time inside ``[start, end]``, in ms."""
        return [(e - s) * 1e3 for s, e in zip(self.starts, self.ends) if start <= s and e <= end]
