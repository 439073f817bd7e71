"""Host-speed probes that put the end-to-end timings on one scale.

On a shared 2-vCPU Intel Xeon VM, each core runs in two speed states
about 2x apart.  It switches between them within a second, and the share
of slow time drifts over minutes with the co-tenants' load, so raw medians
of the same code move by up to 2x between runs.  Every timed sample is therefore bracketed
by two runs of a fixed pure-Python Fraction loop, the probe, and reported
at the reference probe time:

    scaled = measured * factor,  factor = REFERENCE_S / mean(probe before, probe after)

The probe is the benchmark's own code, so a change to qhs moves the
measured time and not the probe.  Runs print the raw values beside the
scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

PROBE_ADDS = 1500
REFERENCE_S = 0.003  # about the probe's time on an uncontended core of a 2-vCPU Intel Xeon VM


def probe() -> float:
    """Seconds for the fixed loop; about 3 to 7 ms."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_ADDS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def factor(before: float, after: float) -> float:
    return 2 * REFERENCE_S / (before + after)


class Bracket:
    """Probes between consecutive samples: each sample's factor uses the
    probe just before it and the probe just after it."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def next_factor(self) -> float:
        after = probe()
        self.probes.append(after)
        value = factor(self.last, after)
        self.last = after
        return value
