"""A gauge of the machine's speed, to time ops at a fixed reference speed.

The shared 2-core host this benchmark was tuned on runs the same Python
code at two speeds, in spells of tens of seconds to minutes.  Process CPU
time slows down with the wall clock, so neither tells the program's cost
from the spell it ran in, and a whole run can fall inside one spell.  A
fixed loop timed for 20 s nine times had medians from 6.3 to 8.3 ms.

So the runner times this module's fixed loop between ops, every
GAUGE_EVERY_S seconds of op time, and rescales each op to the speed at
which the loop takes REFERENCE_S: an op's latency is its wall-clock time
times REFERENCE_S over the loop's time around it.  Over three minutes on
that host, the slow spells stretched this loop by 1.49x, a batch of
`shapes` ops by 1.44x and a `tiles` search by 1.51x, so their rescaled
times differ by 3% and 1% between spells instead of 44% and 51%.  `walk`
ops wait on memory more and slowed by only 1.07x to 1.27x, so rescaling
over-corrects them by 15% to 28% in a slow spell; it still left the
`walk` figures of ten runs steadier than the unscaled ones.  The loop is
the benchmark's own code; no change to gridwords can move it.
"""

import gc
import time

# The gauge's seconds on the tuning host in its fast spells: Python 3.11,
# 2 cores of a shared x86-64 host.
REFERENCE_S = 2.2e-3
GAUGE_EVERY_S = 0.25  # seconds of op time between two readings
REPEATS = 3  # a reading is the fastest of this many loops


def _loop(steps=20000):
    """Integer arithmetic and stores into a small dict."""
    total = 0
    table = {}
    for i in range(steps):
        total += i * i
        table[i & 1023] = total
    return total


def gauge():
    """Seconds the gauge loop takes now: the fastest of REPEATS runs, with
    the cyclic GC held off so that only the machine's speed shows."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
