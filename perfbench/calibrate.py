"""A fixed Python loop that measures how fast the host runs right now.

The reference machine is a virtual machine on a shared host whose speed
switches between modes that differ by up to 1.6x and last from a fraction
of a second to minutes.  A job's wall time alone therefore measures the
host's mode as much as the program.  The benchmark runs `seconds()` next to
every timed job: the job's time divided by the loop's time is the same in
either mode, within a few per cent, because both are interpreter work of the
same process at the same moment.  Multiplied by `REF_S`, that ratio is the
job's time in *reference seconds*: its wall time on a host where one loop
takes `REF_S` seconds.

The loop is independent of `ribbonvol`, so no change to the program can
move it.  It mixes the work the program does: `Fraction` arithmetic with
growing denominators, tuple building, dict updates and a sort.
"""

import time
from fractions import Fraction

# Seconds of one loop, by definition of the reference second; close to what
# one loop takes on the reference machine (8 to 13 ms depending on mode).
REF_S = 0.010


def _loop():
    total = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        total += Fraction(i, i + 7)
        key = tuple((i * k) % 97 for k in range(8))
        seen[key] = seen.get(key, 0) + 1
    return total, sorted(seen)


def seconds() -> float:
    """Wall seconds of one run of the loop, now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
