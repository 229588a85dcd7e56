"""Host-speed calibration for timings on a shared, noisy host.

On a host whose other tenants come and go, the same wfalloc item can take
60 ms in one minute and 100 ms in the next, far beyond any bound a
regression check could use. So every timing is taken next to a fixed
reference of the same kind that runs no wfalloc code, and is scaled by
``reference time on the quiet host / reference time now``:

  * in-process item times, by the mean of a pure-Python kernel timed just
    before and just after each item: the same sort, prefix-sum,
    float-division, ``math.log`` and set/dict work as the library's hot
    loops;
  * fresh-process times, by the mean of ``python -c "import numpy"`` run
    just before and just after each one.

A change to wfalloc cannot move either reference, so it moves only the
scaled timings. The unscaled wall times are printed beside them.
"""

import math
import random
import statistics
import time

# Reference times on an Intel Xeon host (2 vCPUs, Python 3.11, numpy 2.4) in
# a quiet period; they only fix the unit of the scaled timings.
REFERENCE_S = 0.5e-3
REFERENCE_PROCESS_S = 0.15
REFERENCE_PROCESS = ("-c", "import numpy")

_rng = random.Random(0)
_ROWS = [[_rng.uniform(0.1, 10.0) for _ in range(24)] for _ in range(40)]


def kernel():
    total = 0.0
    memo = {}
    for _ in range(3):
        for row in _ROWS:
            xs = sorted(row)
            prefix = 0.0
            for k, x in enumerate(xs, 1):
                prefix += x
                level = (1.0 + prefix) / k
                if level > x:
                    total += math.log(level / x)
            key = frozenset(range(len(memo) % 7))
            memo[key] = memo.get(key, 0.0) + total
    return total


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factors(kernel_pairs):
    """Scale factor per item from the kernels timed just before and after it."""
    return [REFERENCE_S / statistics.fmean(pair) for pair in kernel_pairs]


def scaled(times, kernel_pairs):
    return [t * f for t, f in zip(times, factors(kernel_pairs))]
