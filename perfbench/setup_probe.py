"""Set-up time of bivnorm in a fresh process.

Imports the library from ``src/`` of the current directory, makes one
warm-up call per entry point the workloads use, and prints the seconds this
took. ``run.py`` starts it several times and reports the median as
``setup_s``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402

for _name, call in workloads.warmup_calls():
    call()
print(time.perf_counter() - _T0)
