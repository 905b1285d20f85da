"""Scaling timings to a fixed machine speed.

The machine the bounds were set on (2 vCPUs of a 2.1 GHz Xeon, shared with
other tenants) changes throughput for the same Python work by 20-40% over
seconds to minutes (a fixed compile timed for four minutes ranged from 121 to
221 ms), far more than any bound worth keeping. So every timing the benchmark reports
is scaled: multiplied by ``REFERENCE_S`` over the time of ``reference_loop_s``
measured next to it. The loop is fixed pure-Python work of the kinds the
program does (dict and frozenset building, sorting, big-integer products); no
change to the program can alter it, so the scaling removes the machine's
drift and nothing else. Run next to each operation, it tracked the
operations' speed with a correlation of 0.65-0.8, and it cut the spread of
30-second means of one repeated compile from 18% to 2%.
"""

from __future__ import annotations

import gc
import time

# A reported second is the time in which the reference loop runs
# 1 / REFERENCE_S times: about one wall-clock second on the machine where
# the bounds were set, whose loop took 9-12 ms.
REFERENCE_S = 0.010


def reference_loop_s() -> float:
    """Wall time of one run of the fixed reference work, garbage collection
    off so that the program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(12000):
            key = (i * 7919) % 10007
            table[key] = frozenset((i, key))
        sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
        x = (1 << 1500) - 3
        for _ in range(300):
            x = (x * x) >> 1500
        return time.perf_counter() - start
    finally:
        gc.enable()
