"""Event-queue simulation engine.

Pending events live in one binary heap of ``(time, sequence, event)``
tuples; a batch keeps a single entry for its next event.  The sequence
number breaks same-timestamp ties in scheduling order.  This tie-break
is the determinism contract every simulation above relies on — see
docs/PERFORMANCE.md before touching it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from repro.sim.probe import NULL_PROBE


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (lazy removal from the queue)."""
        self.cancelled = True


class _BatchCursor:
    """The single heap entry of a :meth:`Engine.schedule_at_batch` batch.

    Duck-types :class:`ScheduledEvent` for the run loop (``fn``, ``args``,
    ``cancelled``); ``fn`` fires the current batch entry.
    """

    __slots__ = ("fn", "args", "cancelled", "_heap", "_times", "_n", "_i",
                 "_seq0", "_target", "_target_args", "_append_time")

    def __init__(self, heap: list, times: list, seq0: int,
                 target: Callable[..., Any], target_args: tuple,
                 append_time: bool):
        self.fn = self._fire
        self.args = ()
        self.cancelled = False
        self._heap = heap
        self._times = times
        self._n = len(times)
        self._i = 0
        self._seq0 = seq0
        self._target = target
        self._target_args = target_args
        self._append_time = append_time

    def _fire(self) -> None:
        # Queue the successor before calling the target, so a target
        # that peeks at the queue (or raises) still sees the whole batch.
        i = self._i
        times = self._times
        t = times[i]
        i += 1
        if i < self._n:
            self._i = i
            heapq.heappush(self._heap, (times[i], self._seq0 + i, self))
        if self._append_time:
            self._target(*self._target_args, t)
        else:
            self._target(*self._target_args)


class Engine:
    """A discrete-event simulator with a nanosecond clock.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, fired.append, "a")
    >>> _ = eng.schedule(2.0, fired.append, "b")
    >>> eng.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self.events_processed: int = 0
        #: Estimated events the hybrid fast path avoided simulating
        #: (maintained by :mod:`repro.hybrid`; 0 outside hybrid runs).
        self.events_elided: int = 0
        #: Observer hook shared by every component built on this engine
        #: (:mod:`repro.sim.probe`).  Defaults to the no-op probe; sites
        #: guard on ``probe.enabled`` so an unobserved run costs one
        #: attribute load per hook site.
        self.probe = NULL_PROBE
        self._msg_ids: int = 0

    def next_msg_id(self) -> int:
        """Allocate a run-local message id (deterministic per engine,
        unlike a module-level counter shared across runs in a process)."""
        mid = self._msg_ids
        self._msg_ids += 1
        return mid

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        ev = ScheduledEvent(self.now + delay, fn, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (ev.time, seq, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at an absolute timestamp ``time`` ns."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        ev = ScheduledEvent(time, fn, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def schedule_at_batch(self, times: Iterable[float],
                          fn: Callable[..., Any], *args: Any,
                          append_time: bool = False) -> None:
        """Schedule ``fn(*args)`` at each timestamp of a sorted batch.

        ``times`` must be non-decreasing and ``>= now``; a decreasing pair
        raises ``ValueError``.  With ``append_time=True`` each callback
        receives its own firing time as an extra trailing argument:
        ``fn(*args, t)``.

        The batch reserves one block of consecutive sequence numbers, in
        iteration order, but holds a single heap entry: a cursor that,
        each time it fires, pushes the batch's next ``(time, seq)`` and
        then calls ``fn``.  Heap order depends only on ``(time, seq)``,
        and each batch entry is pushed before any entry that sorts after
        it can pop, so the firing order, the clock and
        ``events_processed`` are exactly those of a ``schedule_at`` loop,
        while the pending heap grows with in-flight work rather than with
        the batch.  No handles are returned — batch arrivals are never
        cancelled individually.
        """
        times = list(times)
        if not times:
            return
        if times[0] < self.now:
            raise ValueError(
                f"cannot schedule in the past: {times[0]} < {self.now}")
        if times != sorted(times):
            i = next(i for i in range(1, len(times))
                     if times[i] < times[i - 1])
            raise ValueError(
                f"batch times must be non-decreasing: times[{i}] = "
                f"{times[i]} < times[{i - 1}] = {times[i - 1]}")
        seq = self._seq
        self._seq = seq + len(times)
        cursor = _BatchCursor(self._heap, times, seq, fn, args, append_time)
        heapq.heappush(self._heap, (times[0], seq, cursor))

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when idle."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        The loop is deliberately inlined (no per-event ``peek_time`` or
        pop-and-dispatch helper calls): this is the innermost interpreter loop of every
        simulation, so each saved attribute load or function call counts.
        Semantics are pinned by tests/test_sim_engine.py: cancelled events
        are skipped without consuming the ``max_events`` budget, and a
        second ``run()`` with an earlier horizon never rewinds the clock.
        """
        heap = self._heap
        pop = heapq.heappop
        probe = self.probe
        probe_on = probe.enabled
        budget = -1 if max_events is None else max_events
        while heap:
            if budget == 0:
                break
            entry = heap[0]
            ev = entry[2]
            if ev.cancelled:
                pop(heap)
                continue
            t = entry[0]
            if until is not None and t > until:
                # Clamp: a second run() with an earlier horizon must not
                # rewind the clock below times already handed out.
                if until > self.now:
                    if probe_on:
                        probe.clock_advance(self.now, until)
                    self.now = until
                break
            pop(heap)
            if probe_on:
                probe.clock_advance(self.now, t)
            self.now = t
            self.events_processed += 1
            ev.fn(*ev.args)
            budget -= 1
