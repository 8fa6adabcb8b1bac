"""A fixed reference kernel that tracks the speed of the machine.

The benchmark times ``reference_kernel`` between ops.  The kernel copies the
two shapes of work that dominate sturmspec -- a scalar 2x2 transfer-matrix
recurrence in pure Python and an elementwise recurrence over a numpy energy
grid -- but shares no code with the program, so a change to the program never
changes its time.  On a shared host, where the machine's speed drifts for
seconds to minutes at a time, an op's time divided by the kernel's time around
it is much steadier than the op's time alone.

Do not change the kernel or ``REFERENCE_S``: together they fix the unit of
``wall_ref_s``, and a change to either moves every recorded value.
"""

from __future__ import annotations

import time

import numpy as np

# wall_ref_s is in seconds on a machine where reference_kernel takes this
# long.  On the baseline machine (2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6) it took 11-25 ms, 17 ms at the median.
REFERENCE_S = 0.015

_GRID = np.linspace(-2.0, 3.0, 2001)


def reference_kernel():
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for k in range(40000):
        x = 0.37 - (k % 3) * 0.5
        a, b, c, d = x * a - c, x * b - d, a, b
        if k % 64 == 63:
            s = max(abs(a) + abs(b), abs(c) + abs(d))
            a, b, c, d = a / s, b / s, c / s, d / s
    u, w = np.ones_like(_GRID), np.zeros_like(_GRID)
    for k in range(640):
        u, w = (_GRID - (k % 3)) * u - w, u
        if k % 32 == 31:
            s = np.abs(u) + np.abs(w)
            u /= s
            w /= s
    return a + d + float(u[0])


def time_reference():
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
