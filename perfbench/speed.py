"""Host-speed normalisation for timed runs.

The benchmark shares its cores with other work it cannot see, and
while that work is busy this code runs up to 2x slower, for seconds to
minutes at a time.  Over a set of runs that moves a raw time by more
than any bound worth setting.  So a timed body stops at fixed
checkpoints to run the *probe*: a fixed routine of the benchmark's own,
which no change to ``src/`` touches, made of the work the workloads'
hot paths are made of (small numpy products, Python floats, lists and
dicts).  Each stretch of the body between two probes is scaled by
``REFERENCE_PROBE_S`` over the mean of those two probes, so a time is
reported in seconds at the reference speed: the seconds it would take
on a host where the probe takes ``REFERENCE_PROBE_S``.  A change to the
code moves the stretches and not the probes, so it shows in full.  The
raw host seconds are printed beside every result.

Probe time is not part of any stretch, so it is in no reported time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

perf = time.perf_counter

#: The probe's time at the reference speed.  On a 2-vCPU Xeon VM with
#: Python 3.11 the probe took 1.8-2.4 ms as the host's load varied.
REFERENCE_PROBE_S = 0.002
#: Iterations of the probe's loop (about 2 ms at the reference speed).
PROBE_STEPS = 400

_INPUTS = list(np.random.default_rng(0x5EED).uniform(size=(64, 4)))


def probe() -> None:
    """The reference routine: a recursive least-squares update on fixed
    inputs, its gains kept in a dict.  The cyclic garbage collector is
    off while it runs, so a collection the workload's allocations were
    due never lands in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        p = np.eye(4)
        gains = {}
        for i in range(PROBE_STEPS):
            x = _INPUTS[i % 64]
            px = p @ x
            k = px / (1.0 + x @ px)
            p = p - np.outer(k, px)
            gains[i % 50] = [float(v) for v in k]
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: int = 9) -> float:
    """``REFERENCE_PROBE_S`` over the median of a few probes run now."""
    times = []
    for _ in range(probes):
        t0 = perf()
        probe()
        times.append(perf() - t0)
    return REFERENCE_PROBE_S / statistics.median(times)


class SpeedTrack:
    """The probes of one timed body, and the body's time scaled by them.

    Call :meth:`mark` once before the body, at each checkpoint inside
    it, and once after it; then :meth:`close`.  Stretch ``i`` runs from
    the end of probe ``i`` to the start of probe ``i + 1``.
    """

    def __init__(self) -> None:
        self._probes: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._factors: List[float] = []

    def mark(self) -> None:
        t0 = perf()
        probe()
        self._probes.append((t0, perf()))

    def close(self) -> None:
        probes = self._probes
        took = [end - start for start, end in probes]
        self._starts = [end for _, end in probes[:-1]]
        self._ends = [start for start, _ in probes[1:]]
        self._factors = [2.0 * REFERENCE_PROBE_S / (a + b)
                         for a, b in zip(took, took[1:])]

    @property
    def stretches(self) -> int:
        return len(self._factors)

    def raw(self) -> float:
        """Host seconds of the body, probes excluded."""
        return sum(b - a for a, b in zip(self._starts, self._ends))

    def scaled(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """Seconds at the reference speed of ``[start, end]`` (default:
        the whole body), counting only time inside stretches."""
        starts, ends, factors = self._starts, self._ends, self._factors
        if start is None:
            return sum((b - a) * f for a, b, f in zip(starts, ends, factors))
        i = max(0, bisect.bisect_right(starts, start) - 1)
        total = 0.0
        while i < len(starts) and starts[i] < end:
            lo, hi = max(start, starts[i]), min(end, ends[i])
            if hi > lo:
                total += (hi - lo) * factors[i]
            i += 1
        return total


class Checkpoints:
    """Runs ``track.mark`` before every ``every``-th call of
    ``cls.name`` (a no-op when ``track`` is None)."""

    def __init__(self, cls: type, name: str, every: int,
                 track: Optional[SpeedTrack]) -> None:
        self.cls, self.name, self.every, self.track = cls, name, every, track
        self._original = None

    def __enter__(self) -> "Checkpoints":
        if self.track is None:
            return self
        self._original = original = self.cls.__dict__[self.name]
        mark, every = self.track.mark, self.every
        calls = [0]

        def checkpoint(*args, **kwargs):
            calls[0] += 1
            if calls[0] % every == 0:
                mark()
            return original(*args, **kwargs)

        setattr(self.cls, self.name, checkpoint)
        return self

    def __exit__(self, *exc) -> None:
        if self._original is not None:
            setattr(self.cls, self.name, self._original)
            self._original = None
