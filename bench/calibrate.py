"""A fixed amount of CPU work that measures how fast the machine is right now.

The host this benchmark was tuned on changes speed by up to 2x over
minutes (other tenants share its cores), which moves every timing by the
same factor. Timing this frozen work next to each measured pass and scaling
by it turns a measured time into reference seconds: the time the same work
would take on a machine where ``calibration_seconds()`` returns
``REFERENCE_S``. The work mixes interpreter-bound Python with small numpy
operations, as mrsplit does, and imports nothing from mrsplit, so no
change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median of calibration_seconds() on the 2-vCPU machine the bounds were set on.
REFERENCE_S = 0.15


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(400_000):
        acc += i * i
        table[i & 1023] = (i, acc & 7)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (30, 16))
    for _ in range(1500):
        x = np.maximum(x @ rng.uniform(-1.0, 1.0, (16, 16)), 0.0)
        x /= np.linalg.norm(x) + 1e-12
        np.linalg.svd(x, compute_uv=False)
    return time.perf_counter() - t0


def to_reference(seconds: float, calibration: float) -> float:
    """A time measured while the calibration took ``calibration`` seconds,
    expressed in reference seconds."""
    return seconds * REFERENCE_S / calibration
