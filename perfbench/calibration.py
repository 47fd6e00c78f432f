"""Time a fixed slice of pure-Python Fraction arithmetic: the machine's current speed.

On a shared 2-vCPU virtual machine the speed of a core swings by up to
1.7x over tens of seconds.  The benchmark times this slice around every
request and scales the request's latency by the slice's reference time
over its measured time.
"""

from __future__ import annotations

import time
from fractions import Fraction


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 800):
            acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return time.perf_counter() - t0
