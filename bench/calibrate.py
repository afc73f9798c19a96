"""Fixed chunks of work that measure how fast the host runs right now.

The measurement host drifts in speed by 10-30% over seconds to minutes, and
the drift reaches wall time and process time alike (see README.md). The
benchmark therefore times fixed calibration work next to every measured
interval: before and after every operation of a timed pass, and before and
after every set-up probe. One chunk has two parts, timed apart:

- a Python part that parses text rows into dicts and sorts them, the kind of
  work trifuse's readers and matchers do;
- a numpy part that streams a fixed 32 MB buffer, the kind of work the volume
  path and the bootstrap do.

Host slowdowns hit interpreter-bound and memory-bound code differently, so an
interval is scaled by the geometric mean of the two parts' speed factors,
``NOMINAL / (mean of the bracketing chunks)``, and then reads in seconds at
the nominal host speed. The chunks are the benchmark's own code and never
change with the program, so a change to trifuse moves a calibrated time by
the same share as it moves wall time.

A ``Calibrator`` allocates its buffer once and keeps it resident, so in the
trifuse process, which creates one before its first pass, it adds exactly
``BUFFER_BYTES`` to the peak RSS; the runner subtracts it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

ROWS = 12_000
BUFFER_BYTES = 32 * 1024 * 1024
CHUNKS_PER_BRACKET = 2
# Median part times on the host the bounds were set on (2-core x86_64 VM,
# Python 3.11.7, numpy 2.4); only scales that turn calibrated times back into
# seconds.
NOMINAL_PY_S = 0.040
NOMINAL_NP_S = 0.013

_KEYS = tuple(f"{(i * 7919) % 100_003:06d}" for i in range(ROWS))


def _python_work() -> int:
    table = {}
    for i, key in enumerate(_KEYS):
        fields = f"{key},{i * 0.5:.3f},{i % 7},{i % 3}".split(",")
        table[fields[0]] = {"id": fields[0], "x": float(fields[1]), "k": int(fields[2]),
                            "b": fields[3] == "1"}
    rows = sorted(table.values(), key=lambda r: (r["k"], r["x"]))
    return len(rows)


def _numpy_work(buffer) -> float:
    np.multiply(buffer, 1.0, out=buffer)
    np.add(buffer, 0.0, out=buffer)
    return float(buffer.sum()) + float(buffer.max())


class Calibrator:
    """Runs the chunks; owns the numpy part's buffer, touched and resident from creation."""

    def __init__(self) -> None:
        self.buffer = np.ones(BUFFER_BYTES // 8, dtype=np.float64)

    def chunk(self) -> tuple[float, float]:
        """Seconds of the Python part and of the numpy part, collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _python_work()
            t1 = time.perf_counter()
            _numpy_work(self.buffer)
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return t1 - t0, t2 - t1

    def bracket(self) -> list[float]:
        """Mean part times of the chunks run at one bracket point."""
        parts = [self.chunk() for _ in range(CHUNKS_PER_BRACKET)]
        return [sum(p[i] for p in parts) / len(parts) for i in range(2)]


def scaled(seconds: float, before, after) -> float:
    """An interval in seconds at nominal host speed, from the brackets around it."""
    py = (before[0] + after[0]) / 2.0
    npy = (before[1] + after[1]) / 2.0
    return seconds * math.sqrt(NOMINAL_PY_S / py * NOMINAL_NP_S / npy)
