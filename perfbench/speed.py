"""Speed probe: rescales every timing to one reference CPU speed.

The CPU speed this benchmark sees changes in phases.  On a 2-vCPU Linux VM
(Intel Xeon, 2.0 GHz, Python 3.11) a fixed piece of work alternated between
two speeds about 1.8x apart, in stretches from under a second to minutes,
with process CPU time equal to wall time.  Raw wall times from 36 s runs of
the same code spread by up to 0.35 of their median, wider than any useful
bound.

The benchmark therefore times `probe()`, a fixed piece of standard-library
work that never calls the program, just before every timed operation and
set-up and once after the last one.  An operation's wall time is divided by
the mean of the HALF_WINDOW probes before it and the HALF_WINDOW after it,
and multiplied by REFERENCE_S, the probe's time on the reference machine in
its fast phase.  A rescaled time is the time the operation would have taken at
that speed.  A change to the program moves the rescaled times as it moves
the raw ones; a change of machine phase moves the probe as well and cancels.
The raw times are printed beside the rescaled ones.

Besides the two speeds, short stalls of 10 to 45 ms hit some stretches, and
an operation caught by one runs long.  A mean over the probes counts the
stalls that probes catch, where a median would ignore them; probes further
away rescale worse, because a phase can change within a few operations.
Over five to ten 30 s runs per workload, replayed from their recorded times
and probes, the worst interquartile range over median of verdicts_per_s,
verdict_p50_ms or verdict_tail_ms was 0.304 with the 2 adjacent probes,
0.089 with the mean of 2 on each side, 0.111 with the mean of 3 on each
side, and 0.331 with their median.

The probe sums 1/i as exact Fractions, so it exercises what the program
spends its time on: integer gcds, big-integer arithmetic and the
allocation of small objects.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002   # median probe time on the reference machine, fast phase
HALF_WINDOW = 2       # probes on each side of an operation that rescale it
PROBE_TERMS = 700


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return perf_counter() - start


def rescale(times, probes):
    """Each times[i] rescaled to the reference speed.

    times[i] was measured between probes[i] and probes[i + 1], so there is
    one more probe than times.  It is rescaled by the mean of the
    HALF_WINDOW probes before it and the HALF_WINDOW after it, fewer at
    either end.
    """
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} probes, got {len(probes)}")
    return [
        t * REFERENCE_S / statistics.fmean(probes[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW])
        for i, t in enumerate(times)
    ]
