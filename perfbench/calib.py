"""A fixed reference task that measures how fast this machine runs right now.

The machine is shared, and its speed drifts by a quarter over minutes;
the task's time moves with the package's CPU time.  Timing the task
before every operation lets a run's times be restated at the reference
speed: ``seconds * REFERENCE_S / median(task times)``.  The task mixes
what the package spends its time on: interpreter bytecode, float ``repr``
and numpy streams over a few MB.  It does not use the package.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of the task at the reference speed: its median on a 2-core x86-64
# VM (Python 3.11, numpy 2.4) at a quiet time.
REFERENCE_S = 0.25


def calibrate() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i % 7
    ",".join([repr(i * 1.1) for i in range(50_000)])
    a = np.arange(1, 1_000_001, dtype=np.float64)
    for _ in range(3):
        np.cumsum(np.logaddexp.accumulate(np.log1p(a)))
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Factor that restates a time measured next to ``samples`` at reference speed."""
    return REFERENCE_S / statistics.median(samples)
