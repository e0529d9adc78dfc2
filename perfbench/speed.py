"""Host-speed sampler: times a fixed calibration loop, over and over.

    python3 perfbench/speed.py OUT_FILE

The shared host this benchmark was written on changes speed by up to
2.5x within a minute, with no steal time: the CPU time of a fixed loop
swings with its wall time.  So a latency alone cannot tell a slower
program from a slower host.  run.py starts this sampler as a child
process for the whole timed loop.  It appends one line "start seconds"
per pass of the calibration loop, then sleeps PERIOD_S.  `start` is a
perf_counter value, comparable across processes, and `seconds` is the
pass's CPU time, so that time the sampler waits for a core that the
benchmark's own processes hold does not count.  run.py scales each
latency by CAL_REF_S over the mean pass time during it.  The loop is
interpreter and small-array numpy work, the kind that dominates
flipkit's Jacobi and row loops; it uses no flipkit code and no BLAS, so
only the host's speed moves it.  It keeps one core about 7% busy.  The
sampler exits when terminated or when its parent is gone.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

# the calibration loop's time at the reference host speed; scaled
# latencies are stated at this speed
CAL_REF_S = 0.010
PERIOD_S = 0.1


def calibrate() -> float:
    """CPU seconds of one pass of the calibration loop."""
    start = time.thread_time()
    a = np.arange(61.0)
    acc = 0.0
    for i in range(2000):
        acc += float(np.sum(a * a)) + math.sqrt(i)
        a[i % 61] = acc % 7.0
    return time.thread_time() - start


def main(path: str) -> int:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:
            start = time.perf_counter()
            seconds = calibrate()
            out.write(f"{start!r} {seconds!r}\n")
            out.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
