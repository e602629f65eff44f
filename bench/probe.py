"""Speed probe: a fixed piece of pure-Python work, timed between ops.

The benchmark host is shared.  Other tenants slow every process on it by
up to 1.7x, in episodes that last from a second to half a minute, so raw
wall times of the same pass differ by 30% between runs.  The probe runs
the same kind of work as the library (sparse dict products and q-product
loops) right before and right after every op, and the op's wall time is
rescaled to the speed at which the probe takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean(probe before, probe after)

On 20 identity_sweep passes in a busy period this cut the spread of the
pass time from 5.4-8.1 s raw to 3.9-4.3 s scaled.  Scaled times read as
seconds on this host when nothing else runs.  The probe is part of the
benchmark and must not change with the library.
"""

import gc
import time

# probe() on an Intel Xeon @ 2.1 GHz (2 vCPUs), Python 3.11, with no
# other load: the fast state of the host the benchmark was defined on
REFERENCE_S = 0.23e-3


def _kernel():
    a = {(j, k): 1.0 / (1 + j + k) for j in range(8) for k in range(8) if (j + k) % 2 == 0}
    b = {(j, j + 1): 0.5 ** j for j in range(8)}
    out = {}
    for (j1, k1), v1 in a.items():
        for (j2, k2), v2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    x, aq = 1.0, 0.3
    for _ in range(300):
        x = x * (1.0 - aq)
        aq = aq * 0.7
    return x + sum(out.values())


def probe():
    """Seconds three runs of the kernel take now, after one untimed run that
    refills the caches an op may have evicted; garbage collection is off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        for _ in range(3):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
