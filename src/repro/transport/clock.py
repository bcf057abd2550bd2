"""Wall-clock :class:`~repro.transport.base.Clock` backed by asyncio.

The deployment runtime swaps this in for the discrete-event
:class:`~repro.sim.events.EventScheduler`.  Pacemaker view timers, client
request timeouts, and CPU-queue completions all become real asyncio timers
behind the same ``call_after``/``TimerHandle`` interface, so none of those
components change.

Time is reported relative to the clock's creation (``now`` starts near 0.0),
matching the simulation convention that a run begins at t=0 — metrics windows
like ``[warmup, warmup+runtime)`` work unmodified.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List


class AsyncioTimer:
    """Timer handle mirroring :class:`repro.sim.events.Event` semantics."""

    __slots__ = ("_handle", "fired", "cancelled")

    def __init__(self) -> None:
        self._handle: asyncio.TimerHandle | None = None
        self.fired = False
        self.cancelled = False

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return not self.fired and not self.cancelled

    def cancel(self) -> None:
        """Cancel the timer; a no-op once fired or already cancelled."""
        if self.pending and self._handle is not None:
            self._handle.cancel()
            self.cancelled = True


class AsyncioClock:
    """Monotonic wall clock + timers on the running event loop.

    Must be constructed inside a running loop (the deployment runner creates
    it from its entry coroutine).  ``processed_events`` counts fired timer
    callbacks so the host-perf ``events_per_second`` metric has a deployment
    analogue of the scheduler's event count.  A callback's exception is
    kept in ``errors`` (asyncio would only log it), so the runner can fail
    the run the way it does for the transport's handler errors.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.processed_events = 0
        self.errors: List[BaseException] = []

    @property
    def now(self) -> float:
        """Seconds of monotonic wall time since the clock was created."""
        return self._loop.time() - self._t0

    def call_after(self, delay: float, callback: Callable, *args, **kwargs) -> AsyncioTimer:
        """Run ``callback(*args, **kwargs)`` after ``delay`` wall seconds.

        Unlike the event scheduler, a negative delay is clamped to zero
        rather than rejected: wall time advances while replica code runs, so
        a deadline computed "now" can already be marginally in the past.
        """
        timer = AsyncioTimer()

        def fire() -> None:
            timer.fired = True
            self.processed_events += 1
            try:
                callback(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - surfaced to runner
                self.errors.append(exc)

        timer._handle = self._loop.call_later(max(0.0, delay), fire)
        return timer

    def call_at(self, when: float, callback: Callable, *args, **kwargs) -> AsyncioTimer:
        """Run ``callback`` at absolute clock time ``when``."""
        return self.call_after(when - self.now, callback, *args, **kwargs)

    def post_after(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` wall seconds, no handle.

        The wall-clock analogue of the scheduler's fire-and-forget tier:
        nothing to cancel, so no :class:`AsyncioTimer` is allocated.
        """

        def fire() -> None:
            self.processed_events += 1
            try:
                callback(*args)
            except Exception as exc:  # noqa: BLE001 - surfaced to runner
                self.errors.append(exc)

        self._loop.call_later(max(0.0, delay), fire)

    def post_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at absolute clock time ``when``, no handle."""
        self.post_after(when - self.now, callback, *args)
