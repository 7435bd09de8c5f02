"""Host-speed sampling interleaved with the measured work.

On shared machines the speed of a CPU drifts by up to 2x within
seconds (other tenants' load), which swamps any change a benchmark
wants to see. :class:`SpeedSampler` measures that drift *inside* the
interpreter doing the work: every :data:`INTERVAL_S` of wall time a
``SIGALRM`` handler times one fixed chunk of interpreter work. The
mean chunk time over a window is the host's speed during that window,
and a time ``t`` measured in the window becomes ``t * NOMINAL_CHUNK_S
/ mean`` reference seconds -- the time the work would have taken at
the nominal speed. Sampling costs about 1% of the window and its own
time is subtracted from the measured time.

The chunk touches only a few small objects, so the program's own
heap and caches barely move it; a change that makes the program
faster or slower moves the measured time, not the chunk. For the
same reason it tracks CPU-speed drift but not cache or memory
contention from other tenants, which slows the program more than the
chunk.
"""

from __future__ import annotations

import math
import signal
import time

#: Wall-clock seconds between two samples.
INTERVAL_S = 0.05

#: Iterations of one chunk, and its duration on an undisturbed host
#: (2-vCPU VM, Python 3.11): the speed reference seconds refer to.
CHUNK_ITERATIONS = 2_000
NOMINAL_CHUNK_S = 0.0003


def _chunk() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(CHUNK_ITERATIONS):
        table[i & 63] = acc
        acc += math.sqrt(table.get((i * 7) & 63, 1.0) + 1.0)
    return acc


class SpeedSampler:
    """Times :func:`_chunk` every :data:`INTERVAL_S` until stopped."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - began)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index that starts a new window."""
        return len(self.samples)

    def window(self, start: int, stop: int | None = None) -> dict:
        """Sample count, summed and mean chunk time of a window."""
        taken = self.samples[start:stop]
        if not taken:
            raise RuntimeError("no host-speed sample in the window; "
                               "the window is shorter than INTERVAL_S")
        return {"n": len(taken), "spent_s": sum(taken),
                "mean_s": sum(taken) / len(taken)}


def reference_s(seconds: float, mean_chunk_s: float) -> float:
    """``seconds`` measured at ``mean_chunk_s`` per chunk, expressed at
    the nominal speed."""
    return seconds * NOMINAL_CHUNK_S / mean_chunk_s
