"""A fixed calibration loop that measures how fast the machine is right now.

On a shared host the speed of one core swings by up to 2x over seconds to
minutes, as neighbours come and go. Times measured in different runs then
differ more than any regression a benchmark should catch. The benchmark
runs this loop between operations, about every 50 ms of timed work, and
divides each operation's time by the median of the last three samples
("cal"). Both slow down together when the host is busy, so the ratio stays
put; a change to bivnorm moves only the numerator, because this loop does
not call bivnorm.

How much a busy neighbour slows a piece of code depends on what it does,
so there are two loops. ``scalar`` runs a plain Python float loop and numpy
calls on 0-d arrays: the interpreter and per-call overhead that dominate
single-point calls. ``mixed`` makes the same 0-d calls plus ufuncs on a
4096-element array (cache-resident) and a 65536-element one, for
workloads whose time goes to array kernels. Each pass takes 1 to 2 ms.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.linspace(-3.0, 3.0, 4096)
_LARGE = np.linspace(-3.0, 3.0, 65536)


def _zero_d(s: float) -> float:
    for i in range(100):
        x = np.asarray(i * 0.01)
        s += float(np.exp(-0.5 * x * x))
    return s


def _scalar() -> float:
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) ** 0.5
    return _zero_d(s)


def _mixed() -> float:
    s = _zero_d(0.0)
    for _ in range(10):
        s += float(np.exp(-0.5 * _SMALL * _SMALL).sum())
    return s + float(np.exp(-0.5 * _LARGE * _LARGE).sum())


LOOPS = {"scalar": _scalar, "mixed": _mixed}


def sample(kind: str) -> int:
    """One timed pass of the named loop, in ns."""
    loop = LOOPS[kind]
    t0 = time.perf_counter_ns()
    loop()
    return time.perf_counter_ns() - t0
