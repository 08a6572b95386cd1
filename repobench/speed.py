"""Machine-speed probe: scale measured times to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts by
20-40 % over seconds to minutes (other tenants, sibling hyper-threads).
A raw time then says as much about the machine as about the program.
So every run also times a fixed kernel of the benchmark's own -- Python
geometry over a list of points plus small numpy array work, the same
kinds of work the router does -- in short slices interleaved with the
operations, and each measured time is scaled by how fast the kernel ran
around it::

    scaled = raw * REF_SLICE_S / (median slice time near the sample)

The kernel is part of the benchmark, not of the program, so a change to
the program moves the scaled figures and a change in machine speed
mostly does not.  On the reference VM (two Xeon vCPUs at 2.0 GHz) this
cut the quartile spread of 5-second medians of one repeated route from
16 % to 6 %.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List

import numpy as np

#: A typical slice time on the reference VM; scaled times read as times
#: on a machine where one slice takes this long.
REF_SLICE_S = 7.2e-3
#: Share of measured operation time spent on probe slices.
DUTY = 0.1
#: Slices a sample's scale is taken over (the nearest ones in time).
NEAREST = 9

_POINTS = [(math.cos(i * 0.37) * 50.0, math.sin(i * 0.91) * 50.0) for i in range(200)]
_ARRAY = np.random.default_rng(0).random((40, 2))


def _kernel() -> float:
    acc = 0.0
    for _ in range(6):
        cells = {}
        for (ax, ay), (bx, by) in zip(_POINTS, _POINTS[1:]):
            length = math.hypot(bx - ax, by - ay)
            key = (round(ax, 1), round(ay, 1))
            cells[key] = cells.get(key, 0.0) + length
            acc += min(abs(ax - bx), abs(ay - by)) / (length + 1e-9)
        acc += sum(cells.values())
    for _ in range(300):
        d = np.hypot(_ARRAY[:, 0] - _ARRAY[0, 0], _ARRAY[:, 1] - _ARRAY[0, 1])
        acc += float(d.min()) + float(_ARRAY.sum(axis=0)[0])
    return acc


class SpeedProbe:
    """Interleaved kernel slices and the scale they give each sample."""

    def __init__(self) -> None:
        #: Mid-times (``perf_counter``) and durations of the slices.
        self.at: List[float] = []
        self.slice_s: List[float] = []
        self._owed = 0.0

    def after(self, work_s: float) -> None:
        """Run slices until they make up ``DUTY`` of the work so far."""
        self._owed += DUTY * work_s
        while self._owed > 0.0:
            self._owed -= self._slice()

    def _slice(self) -> float:
        started = time.perf_counter()
        _kernel()
        took = time.perf_counter() - started
        self.at.append(started + took / 2.0)
        self.slice_s.append(took)
        return took

    def scale(self, at: float) -> float:
        """``REF_SLICE_S`` over the median of the slices nearest ``at``."""
        if not self.at:
            self._slice()
        i = bisect.bisect_left(self.at, at)
        near = sorted(
            range(max(0, i - NEAREST), min(len(self.at), i + NEAREST)),
            key=lambda j: abs(self.at[j] - at),
        )[:NEAREST]
        return REF_SLICE_S / statistics.median(self.slice_s[j] for j in near)
