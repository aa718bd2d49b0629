"""Machine-speed probe: a fixed stdlib Fraction loop timed between items.

On a shared machine the same pure-Python work slows by up to 1.6x in
phases of seconds to minutes, in CPU time as much as in wall time.  Timing
this probe between items and rescaling each latency by the probes around
it cancels most of that drift: over 3 s windows of the `raise` items the
coefficient of variation fell from 12.5% raw to 2.4%.
Rescaled figures are seconds on a machine where the probe takes
NOMINAL_S.  Comparing two commits, only their ratio matters.
"""

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002
EVERY_S = 0.1           # probe before an item when this long has passed
WINDOW = 2              # probes on each side of an item that rescale it


def probe_work():
    """Sum of fixed Fractions whose denominators grow to ~700 bits: the mix
    of small and multi-limb integer arithmetic of the program's own work."""
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    return acc


def probe_once():
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Probes taken between the items of one pass."""

    def __init__(self):
        self.durations = []
        self._last = float("-inf")

    def between_items(self):
        """Probe if EVERY_S has passed since the last probe; returns the
        index of the latest probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.durations.append(probe_once())
            self._last = time.perf_counter()
        return len(self.durations) - 1

    def factor(self, index):
        """Multiplier that rescales a latency measured right after probe
        `index` to NOMINAL_S, from the probes around it."""
        window = self.durations[max(0, index - WINDOW + 1):index + WINDOW + 1]
        return NOMINAL_S / statistics.median(window)
