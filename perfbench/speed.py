"""Machine-speed samples taken between ops.

On a shared virtual machine the same block can take 70 ms for a second or
two and 100 ms the next, because the CPU itself runs slower: process CPU
time grows with wall time.  A short fixed reference kernel, run just before
every op, slows down by the same factor, so every timing the benchmark
reports is scaled to the speed at which that kernel takes NOMINAL_MS:

    reported = measured * NOMINAL_MS / mean(kernel before, kernel after)

The kernel time is its own thread's CPU time, so threads the program
leaves running slow the ops but not the kernel, and the regression still
shows.  The raw timings are kept in the run's report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# reference kernel time that reported timings are scaled to; near its
# median on the machine the benchmark was written on (see report: speed)
NOMINAL_MS = 10.0
_KERNEL_N = 250_000


def _kernel(rng: np.random.Generator, x: np.ndarray) -> float:
    """Normal draws, a cosine and a sum over a preallocated array, like a
    block's physics.  Returns the thread's CPU ms."""
    c0 = time.thread_time()
    rng.standard_normal(out=x)
    np.cos(x, out=x)
    float(x.sum())
    return (time.thread_time() - c0) * 1e3


class SpeedProbe:
    """One kernel sample before every op and one after the last, so op i
    lies between samples i and i + 1 of its probe."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.buf = np.empty(_KERNEL_N)
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; return its index."""
        self.samples.append(_kernel(self.rng, self.buf))
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale factor for the op that follows sample `index`."""
        if index < 0:
            return 1.0
        pair = self.samples[index:index + 2]
        return NOMINAL_MS / (sum(pair) / len(pair))

    def summary(self) -> dict:
        ms = self.samples
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
        return {"samples": len(ms), "kernel_ms_p25": q[0],
                "kernel_ms_p50": statistics.median(ms), "kernel_ms_p75": q[2],
                "nominal_ms": NOMINAL_MS}
