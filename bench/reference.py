"""A fixed reference kernel that measures the machine's current speed.

On a virtual machine of a shared host, the speed of a single-threaded
Python process can drift by up to a factor of two over minutes (see
README.md). ``sample()`` times a fixed piece of exact arithmetic, of the
same kind as helly's (``Fraction`` elimination and big-integer
arithmetic, in pure Python), so that a time measured next to it can be
put at a fixed speed: ``t * NOMINAL_S / sample()`` is the time ``t``
would have taken where the kernel takes ``NOMINAL_S``. The kernel's
code and data are part of the benchmark and never change with helly.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# About the kernel's time on the 2-core virtual machine of README.md's
# reference figures, in a fast phase; reference-speed seconds are seconds
# on a machine where the kernel takes this.
NOMINAL_S = 0.002

ROWS, COLS = 8, 9
MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j * j + 1) % 23 - 11, 1 + (i + 2 * j) % 5) for j in range(COLS)) for i in range(ROWS)
)


def kernel() -> tuple:
    """Gauss-Jordan elimination of ``MATRIX`` over ``Fraction``, then a
    chain of big-integer multiply-and-reduce steps."""
    a = [list(row) for row in MATRIX]
    r = 0
    for c in range(COLS):
        p = next((i for i in range(r, ROWS) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(ROWS):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    x = 1
    for i in range(1, 300):
        x = (x * 1000003 + i) % (1 << 521)
    return a, x


def sample(repeats: int = 3) -> float:
    """The kernel's time now: the median of ``repeats`` timings, with the
    cyclic garbage collector held off so that it does not collect helly's
    garbage inside one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]
