"""Machine-speed calibration for a shared host.

On a small cloud VM the speed of one CPU swings by up to 2x within seconds
and by 30-50% from one minute to the next, as other tenants load the host.
Single-threaded interpreter code slows down in step with a fixed kernel of
the same kind of work, so the benchmark runs this kernel between CLI
invocations and reports times scaled by REFERENCE_S / (mean kernel time):
wall time on a machine where the kernel takes REFERENCE_S. The kernel is the
benchmark's own code, so no change to the package can move it.

    python3 bench/calibrate.py      # prints the mean kernel time here
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.009  # nominal kernel time; about the mean on a 2-CPU cloud VM
SHARE = 0.25  # calibration time per second of CLI invocation ...
MAX_BLOCK_S = 0.5  # ... but at most this much after one invocation
FIRST_BLOCK_S = 0.25  # calibration before the first invocation

_LOOPS = 14_000
_ARRAY_OPS = 220


def kernel() -> float:
    """Fixed dict, float and small-array work, like the CLI's mix; returns its seconds."""
    start = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(_LOOPS):
        x = (i * 2654435761) % 1000003
        table[x & 1023] = table.get(x & 1023, 0.0) + x * 0.5
        acc += math.sqrt(x)
    a = np.arange(64.0)
    for _ in range(_ARRAY_OPS):
        acc += float(np.exp(a * 1e-3).sum()) + float(a @ a)
    return perf_counter() - start


def run_for(seconds: float) -> list[float]:
    """Kernel times, repeating the kernel for about `seconds` (at least once)."""
    out = [kernel()]
    while sum(out) < seconds:
        out.append(kernel())
    return out


def scale(kernel_times: list[float]) -> float:
    """Factor that turns seconds measured next to these kernel times into reference seconds."""
    return REFERENCE_S / statistics.fmean(kernel_times)


if __name__ == "__main__":
    times = run_for(2.0)
    print(f"kernel mean {statistics.fmean(times):.5f} s over {len(times)} runs; min {min(times):.5f} s")
