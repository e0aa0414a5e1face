"""The host's current speed, measured by a fixed piece of reference work.

This host's vCPUs run pure-Python code up to 1.7 times slower in some
phases than in others; the phases last from about one second to tens of
seconds and show no CPU steal in /proc/stat.  Every time the benchmark
reports is therefore scaled to a reference speed:

    reported = measured * REFERENCE_S / probe

where `probe` is the duration of the reference work measured next to the
timed operation, in the same process.  The reference work is made of what
the package's code is made of (tuple keys in dicts, sorting by a key
function, Fraction arithmetic) but lives here, so no change to bruhatpoly
can change it.  REFERENCE_S is the reference work's duration on
a quiet core of the host the baseline was taken on, so reported times read
as seconds on that host when nothing else runs.  See bench/README.md for
the measurements behind this.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Duration of one probe() on a quiet core of the baseline host
# (2-vCPU VM, Python 3.11), in seconds.
REFERENCE_S = 0.0030


def probe() -> float:
    """CPU seconds for one run of the reference work: count 6,000 tuple
    keys in a dict, sort its items by a key function, and sum Fractions.
    Its working set, about 1.5 MB, is what makes it slow down with the
    package's code; a 385-key version stayed in cache and tracked the host
    worse.  The price is that a probe taken while the program's heap is
    at its peak adds to the peak RSS of the process it runs in."""
    clock = time.process_time
    t0 = clock()
    counts = {}
    for i in range(6000):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    sum(Fraction(i, i + 1) for i in range(150))
    return clock() - t0


def calibrate() -> float:
    """The faster of two probes, which drops a probe hit by an interrupt.

    The garbage collector is off meanwhile: the probe's objects are freed
    by reference counting, so it neither pays for collecting the program's
    heap nor promotes objects that would make the program's next full
    collection come sooner."""
    gc.disable()
    try:
        return min(probe(), probe())
    finally:
        gc.enable()
