"""Host speed, measured by fixed probes.

On a host shared with other tenants, every instruction slows by up to
about 2x for seconds to minutes at a time, in wall and CPU time alike, and
a run cannot outlast such a phase.  The benchmark therefore probes the
host while it measures and scales each timing by REFERENCE_S / (probe time
near that moment): times read as they would on the host in its quiet state.

Two probes serve two kinds of timing.  In-process timings are scaled by a
fixed pure-Python kernel (``kernel_probe``), which does the kind of work
dimcalc does (small objects, tuple comparisons, dicts, formatting).
Subprocess timings are scaled by the spawn of a bare interpreter
(``python -c pass``): a child's start-up, exec and page faults slow less
than pure Python does in the same phase, so kernel-scaled child timings
read low when the host is slow (on 10 runs of one seed, the IQR/median of
the CLI time was 0.099 kernel-scaled and 0.035 spawn-scaled).

Neither probe runs dimcalc code; changing a probe or its reference
changes every time metric of the benchmark.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

KERNEL_REFERENCE_S = 1.05e-3  # kernel time on the quiet host (Python 3.11, Xeon, 2 vCPUs)
SPAWN_REFERENCE_S = 0.044  # python -c pass, spawn to exit, on the same quiet host
KERNEL_GAP_S = 0.02  # measured work between two kernel probes


class _Entry:
    __slots__ = ("base", "sign")

    def __init__(self, base: int, sign: int):
        self.base = base
        self.sign = sign

    def key(self) -> tuple[int, int]:
        return (self.base, self.sign)


def kernel() -> int:
    rows: dict[int, tuple] = {}
    acc = 0
    for i in range(750):
        a = _Entry(i % 13, i % 3 - 1)
        b = _Entry((i * 7) % 11, (i // 3) % 3 - 1)
        key = max(a.key(), b.key())
        rows[i % 17] = rows.get(i % 17, ()) + (key,)
        acc += len(f"{a.base}{'-+'[a.sign > 0]}")
    for row in rows.values():
        acc += len(sorted(row))
    return acc


def kernel_probe() -> float:
    """Seconds one kernel run takes; collections are left to the code that
    allocated the garbage."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    kernel()
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


class HostSpeed:
    """Probes of one kind taken during a run, and the scale they give each
    moment: ``reference_s`` over the median probe time within ``window_s``."""

    def __init__(self, probe, reference_s: float, window_s: float):
        self.run_probe = probe  # () -> seconds the probe took
        self.reference_s = reference_s
        self.window_s = window_s
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = time.perf_counter()

    def probe(self) -> None:
        start = time.perf_counter()
        self.took.append(self.run_probe())
        self.at.append(start)
        self.last = time.perf_counter()

    def maybe_probe(self, gap_s: float) -> None:
        if time.perf_counter() - self.last >= gap_s:
            self.probe()

    def scale(self, moment: float) -> float:
        lo = bisect.bisect_left(self.at, moment - self.window_s)
        hi = bisect.bisect_right(self.at, moment + self.window_s)
        if hi == lo:  # no probe nearby: take the nearest one on each side
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return self.reference_s / statistics.median(self.took[lo:hi])

    def median_scale(self) -> float:
        return self.reference_s / statistics.median(self.took)
