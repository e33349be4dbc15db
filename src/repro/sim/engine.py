"""The simulation engine: clock plus event dispatch loop.

A :class:`Simulator` owns one :class:`~repro.sim.events.EventQueue` and a
monotonic clock.  Components schedule work with :meth:`Simulator.at` /
:meth:`Simulator.after`; the driver advances time with
:meth:`Simulator.run_until` or :meth:`Simulator.step`.

Time never moves backwards and events always observe ``sim.now`` equal to
their own timestamp when they fire.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.obs import runtime as _obs
from repro.sim import fastpath as _fastpath
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised on scheduling violations (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulator with a named-stream RNG registry.

    Parameters
    ----------
    seed:
        Master seed for all random streams drawn via :attr:`rng`.
    sanitize:
        Attach :class:`~repro.sim.sanitize.SanitizerHooks`: assert the
        stable event tie-break invariant on every pop and count RNG
        draws per stream.  ``None`` (the default) follows the
        process-wide default toggled by ``repro run --sanitize``.
        Sanitizing never changes the numbers drawn or the events fired.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.after(2.0, lambda ev: fired.append(sim.now))
    >>> sim.run_until(5.0)
    >>> fired
    [2.0]
    >>> sim.now
    5.0
    """

    def __init__(
        self, seed: int = 0, *, sanitize: Optional[bool] = None
    ) -> None:
        from repro.sim import sanitize as _san

        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        if sanitize is None:
            sanitize = _san.default_enabled()
        #: Attached :class:`~repro.sim.sanitize.SanitizerHooks`, or ``None``.
        self.sanitizer = _san.SanitizerHooks() if sanitize else None
        if self.sanitizer is not None:
            self.rng: RngRegistry = _san.SanitizedRngRegistry(
                seed, self.sanitizer
            )
            _san.register_hooks(self.sanitizer)
        else:
            self.rng = RngRegistry(seed)
        #: Number of events dispatched so far (diagnostics only).
        self.dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def at(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is earlier than the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        return self._queue.push(time, callback, priority=priority, payload=payload)

    def after(
        self,
        delay: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(
            self._now + delay, callback, priority=priority, payload=payload
        )

    def reschedule(self, event: Event, time: float) -> Event:
        """Requeue a popped ``event`` at absolute ``time``, reusing it.

        The allocation-free companion to :meth:`at` for periodic
        processes: the event object is recycled instead of minting a new
        one per tick.  ``event`` must have been popped already (it is
        *not* in the queue); passing a still-queued event corrupts heap
        order.

        Raises
        ------
        SimulationError
            If ``time`` is earlier than the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot reschedule at t={time:.6f} < now={self._now:.6f}"
            )
        return self._queue.repush(event, time)

    def step(self) -> bool:
        """Dispatch the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (time is left unchanged in that case).
        """
        ev = self._queue.pop()
        if ev is None:
            return False
        if self.sanitizer is not None:
            self.sanitizer.check_pop(ev, next_seq=self._queue.next_seq)
        if ev.time < self._now:
            # A real raise, not an assert: the monotonicity guarantee is
            # part of the engine contract and must survive ``python -O``.
            raise SimulationError(
                f"event at t={ev.time:.6f} popped behind clock "
                f"now={self._now:.6f}"
            )
        self._now = ev.time
        self.dispatched += 1
        ev.fire()
        return True

    def run_until(self, t_end: float) -> None:
        """Dispatch every event with ``time <= t_end``; clock ends at ``t_end``.

        Re-entrant calls are rejected: an event callback must not call
        :meth:`run_until` on its own simulator.
        """
        if self._running:
            raise SimulationError("run_until is not re-entrant")
        if t_end < self._now:
            raise SimulationError(
                f"cannot run until t={t_end:.6f} < now={self._now:.6f}"
            )
        before = self.dispatched
        with _obs.span("sim.run_until", "sim", sim=self):
            self._drain(t_end)
            self._now = t_end
        _obs.inc("repro_sim_events_total", self.dispatched - before)
        _obs.set_gauge("repro_sim_time_seconds", self._now)

    def _drain(self, t_end: float) -> None:
        """Dispatch every queued event with ``time <= t_end``.

        Two implementations with identical observable behaviour:

        * When a sanitizer is attached or ``REPRO_SIM_SLOWPATH`` is set,
          the reference loop peeks and :meth:`step`\\ s one event at a
          time -- every pop routes through the sanitizer's tie-break
          check.
        * Otherwise the batched fast path runs: the heap and ``heappop``
          are hoisted into locals and events dispatch straight off the
          heap entries, skipping the per-event ``peek_time``/``pop``
          method calls and the sanitizer/cancelled double-checks.  The
          clock and ``dispatched`` counter are still written through
          per event because callbacks read ``sim.now``.
        """
        self._running = True
        try:
            if self.sanitizer is not None or _fastpath.slowpath_enabled():
                while True:
                    nxt = self._queue.peek_time()
                    if nxt is None or nxt > t_end:
                        break
                    self.step()
                return
            heap = self._queue._heap
            pop = heapq.heappop
            while heap:
                t = heap[0][0]
                if t > t_end:
                    break
                ev = pop(heap)[3]
                if ev.cancelled:
                    continue
                if t < self._now:
                    raise SimulationError(
                        f"event at t={t:.6f} popped behind clock "
                        f"now={self._now:.6f}"
                    )
                self._now = t
                self.dispatched += 1
                cb = ev.callback
                if cb is not None:
                    cb(ev)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue is exhausted."""
        if self._running:
            raise SimulationError("run is not re-entrant")
        before = self.dispatched
        with _obs.span("sim.run", "sim", sim=self):
            self._exhaust()
        _obs.inc("repro_sim_events_total", self.dispatched - before)
        _obs.set_gauge("repro_sim_time_seconds", self._now)

    def _exhaust(self) -> None:
        """Dispatch until the queue is empty (see :meth:`_drain`)."""
        self._running = True
        try:
            if self.sanitizer is not None or _fastpath.slowpath_enabled():
                while self.step():
                    pass
                return
            heap = self._queue._heap
            pop = heapq.heappop
            while heap:
                t, _, _, ev = pop(heap)
                if ev.cancelled:
                    continue
                if t < self._now:
                    raise SimulationError(
                        f"event at t={t:.6f} popped behind clock "
                        f"now={self._now:.6f}"
                    )
                self._now = t
                self.dispatched += 1
                cb = ev.callback
                if cb is not None:
                    cb(ev)
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero.

        Random streams are *not* reseeded; create a fresh simulator for a
        statistically independent replication.

        Raises
        ------
        SimulationError
            If called from inside a running :meth:`run` /
            :meth:`run_until` (e.g. from an event handler): resetting
            mid-dispatch would leave the driver loop iterating a cleared
            queue at a rewound clock.
        """
        if self._running:
            raise SimulationError("cannot reset while a run is in progress")
        self._queue.clear()
        self._now = 0.0
        self.dispatched = 0
        self._running = False
