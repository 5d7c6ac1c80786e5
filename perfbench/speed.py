"""Machine-speed calibration.

The benchmark runs on a shared machine whose speed changes by up to about
1.8x over seconds, within one process and across processes, as other
tenants load it.  Every timed stretch is bracketed by a probe: a fixed
pure-Python loop that never touches alternant.  Dividing a time by the
probe's slowdown against REFERENCE_MS gives the time the stretch would have
taken on the unloaded machine, so figures from runs in different machine
states can be compared.  Raw figures are reported beside the normalised ones.
"""

from __future__ import annotations

from time import perf_counter_ns

# Probe time on an unloaded 2-core Intel Xeon under Python 3.11.
REFERENCE_MS = 0.70

_TABLE = [[(a * b) % 251 for b in range(16)] for a in range(16)]


def _loop() -> int:
    acc, out = 0, []
    for i in range(4000):
        row = _TABLE[i & 15]
        acc = row[(acc + i) & 15] ^ (i >> 3)
        out.append((acc, i))
    return acc


def probe() -> float:
    """Current slowdown of the machine: best of three probe loops over
    REFERENCE_MS (1.0 means as fast as the unloaded reference)."""
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        _loop()
        took = perf_counter_ns() - t0
        best = took if best is None else min(best, took)
    return best / 1e6 / REFERENCE_MS
