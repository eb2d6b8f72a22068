"""A reference computation whose time tracks the host's current speed.

The shared 2-vCPU host the benchmark was tuned on changes speed by 1.3-1.5x,
for seconds to tens of minutes at a time, as other tenants load it (process
CPU time tracks wall time, so it is not scheduling).  Raw times of the same
code then spread by ~30% from run to run, more than any bound worth setting.
The benchmark therefore times this fixed computation, interpreted Python
and small numpy operations like the program's own and no code of the
package, next to every measurement, and reports times scaled to a host on
which it takes ``REFERENCE_S``:

    scaled time = measured time * REFERENCE_S / reference time around it

The scaling assumes that the program leaves nothing running between
requests (it is single-threaded, with BLAS pinned to one thread), so that
the reference sees only the host; raw times are printed next to the scaled
ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Time of one reference computation on the quiet host (2-vCPU x86-64 VM,
# Python 3.11.7, numpy 2.4.6), in seconds.
REFERENCE_S = 5e-4


class HostSpeed:
    """Times the reference computation."""

    def __init__(self):
        self._matrix = np.full((6, 6), 0.3)
        self._table: dict[tuple[int, int], float] = {}

    def reference(self) -> float:
        """Seconds one reference computation takes now.  The cyclic garbage
        collector is off meanwhile, so that collecting the program's garbage
        does not land in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table, total = self._table, 0.0
            for i in range(600):
                key = (i & 31, i >> 5)
                table[key] = i * 0.5
                total += table[key]
            v = np.ones(6)
            for _ in range(60):
                v = self._matrix @ v
                v /= np.max(np.abs(v))
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self, samples: int = 5) -> float:
        """REFERENCE_S / the median of a few reference timings taken now."""
        return REFERENCE_S / statistics.median(self.reference() for _ in range(samples))
