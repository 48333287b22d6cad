"""Unit tests for the discrete-event engine.

The engine fires events in the full ``(time, seq)`` total order —
same-time FIFO, cancellation, clock clamping and event budgets
included — because the simulation's byte-identity contract rides on it
(see docs/PERFORMANCE.md).
"""

import pytest

from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


def test_events_fire_in_time_order(eng):
    fired = []
    eng.schedule(5.0, fired.append, "late")
    eng.schedule(1.0, fired.append, "early")
    eng.schedule(3.0, fired.append, "mid")
    eng.run()
    assert fired == ["early", "mid", "late"]
    assert eng.now == 5.0


def test_same_time_events_fire_in_scheduling_order(eng):
    fired = []
    for i in range(10):
        eng.schedule(1.0, fired.append, i)
    eng.run()
    assert fired == list(range(10))


def test_cancelled_event_does_not_fire(eng):
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    ev.cancel()
    eng.schedule(2.0, fired.append, "y")
    eng.run()
    assert fired == ["y"]


def test_peek_time_skips_cancelled_events(eng):
    first = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.peek_time() == 1.0
    first.cancel()
    assert eng.peek_time() == 2.0


def test_peek_time_empty_after_all_cancelled(eng):
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    assert eng.peek_time() is None


def test_run_until_stops_clock_at_bound(eng):
    fired = []
    eng.schedule(1.0, fired.append, "a")
    eng.schedule(10.0, fired.append, "b")
    eng.run(until=5.0)
    assert fired == ["a"]
    assert eng.now == 5.0
    eng.run()
    assert fired == ["a", "b"]


def test_run_until_earlier_horizon_does_not_rewind_clock(eng):
    """A second run() with an until below the current time must clamp
    rather than move the clock backwards past times already handed out."""
    eng.schedule(10.0, lambda: None)
    eng.run()
    assert eng.now == 10.0
    eng.schedule(5.0, lambda: None)      # pending at t=15
    eng.run(until=3.0)                   # horizon already in the past
    assert eng.now == 10.0               # clock did not rewind
    eng.run()
    assert eng.now == 15.0


def test_schedule_during_event_execution(eng):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert fired == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_negative_delay_rejected(eng):
    with pytest.raises(ValueError):
        eng.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time(eng):
    fired = []
    eng.schedule_at(4.0, fired.append, "x")
    eng.run()
    assert eng.now == 4.0 and fired == ["x"]
    with pytest.raises(ValueError):
        eng.schedule_at(1.0, fired.append, "past")


def test_schedule_at_batch_matches_loop(eng):
    """Batch insertion must replay a schedule_at loop exactly —
    same (time, seq) order, including ties across the two paths (the
    batch's last time ties the event scheduled right after it)."""
    fired = []
    times = [3.0, 3.0, 7.5, 7.5, 12.0]
    eng.schedule(3.0, fired.append, ("pre", 3.0))
    eng.schedule_at_batch(times, lambda t: fired.append(("batch", t)),
                          append_time=True)
    eng.schedule(12.0, fired.append, ("post", 12.0))
    eng.schedule(3.0, fired.append, ("post", 3.0))
    eng.run()
    assert fired == [("pre", 3.0), ("batch", 3.0), ("batch", 3.0),
                     ("post", 3.0), ("batch", 7.5), ("batch", 7.5),
                     ("batch", 12.0), ("post", 12.0)]


def test_schedule_at_batch_past_time_rejected(eng):
    eng.schedule(2.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at_batch([1.0], lambda t: None, append_time=True)


def test_schedule_at_batch_rejects_decreasing_times(eng):
    """A cursor fires a batch in list order, so an unsorted batch must be
    refused up front rather than fired out of order."""
    fired = []
    with pytest.raises(ValueError, match="non-decreasing"):
        eng.schedule_at_batch([1.0, 2.0, 2.0, 1.5, 3.0], fired.append,
                              append_time=True)
    assert eng.peek_time() is None
    eng.schedule_at(1.0, fired.append, "x")
    eng.run()
    assert fired == ["x"]


def test_schedule_at_batch_holds_one_pending_entry(eng):
    """A batch costs one heap entry however long it is; every time still
    fires, and counts, as its own event."""
    n = 20_000
    fired = []
    eng.schedule_at_batch([float(i // 2) for i in range(n)], fired.append,
                          append_time=True)
    assert len(eng._heap) == 1
    eng.run(max_events=n // 2)
    assert len(eng._heap) == 1
    eng.run()
    assert fired == [float(i // 2) for i in range(n)]
    assert eng.events_processed == n
    assert not eng._heap


def test_max_events_bound(eng):
    fired = []
    for i in range(5):
        eng.schedule(float(i), fired.append, i)
    eng.run(max_events=2)
    assert fired == [0, 1]


def test_events_processed_counter(eng):
    for i in range(7):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_processed == 7


class _ReferenceQueue:
    """Brute-force oracle: every firing scans all live entries for the
    smallest ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []          # [time, seq, fn, args, cancelled]

    def _push(self, time, fn, args):
        entry = [time, len(self._entries), fn, args, False]
        self._entries.append(entry)
        return entry

    def schedule(self, delay, fn, *args):
        return self._push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        return self._push(time, fn, args)

    def schedule_at_batch(self, times, fn, *args, append_time=False):
        for t in times:
            self.schedule_at(t, fn, *(args + (t,) if append_time else args))

    @staticmethod
    def cancel(entry):
        entry[4] = True

    def _head(self):
        live = [e for e in self._entries if not e[4]]
        return min(live, key=lambda e: (e[0], e[1])) if live else None

    def peek_time(self):
        entry = self._head()
        return None if entry is None else entry[0]

    def run(self, until=None, max_events=None):
        budget = -1 if max_events is None else max_events
        while budget != 0:
            entry = self._head()
            if entry is None:
                return
            if until is not None and entry[0] > until:
                self.now = max(self.now, until)
                return
            entry[4] = True
            self.now = entry[0]
            self.events_processed += 1
            entry[2](*entry[3])
            budget -= 1


def test_fired_order_matches_brute_force_reference():
    """Drive the engine and a brute-force ``(time, seq)`` reference with
    the same stress schedule: far-future events, heavy same-time ties,
    mid-run cancellations and scheduling from inside handlers."""
    import numpy as np

    def drive(eng, cancel):
        rng = np.random.default_rng(1234)
        fired = []
        pending = []

        def fire(tag):
            fired.append((round(eng.now, 9), tag))
            # Occasionally cancel a pending event and schedule new ones
            # (some near, some far in the future).
            if pending and tag % 3 == 0:
                cancel(pending.pop(len(pending) // 2))
            if tag < 400:
                delay = float(rng.choice([0.0, 0.25, 1.0, 900_000.0]))
                pending.append(eng.schedule(delay, fire, tag + 400))

        for i in range(400):
            t = float(rng.integers(0, 50)) * 0.5   # heavy ties
            pending.append(eng.schedule_at(t, fire, i))
        eng.run()
        return fired, eng.now, eng.events_processed

    got = drive(Engine(), lambda ev: ev.cancel())
    want = drive(_ReferenceQueue(), _ReferenceQueue.cancel)
    assert got == want
    assert got[2] > 400          # handler-scheduled events fired too


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batches_match_brute_force_reference(seed):
    """Batches against the brute-force oracle: interleaved batches whose
    times tie each other and handler-scheduled events, a batch inserted
    from inside a handler, cancellations around batch entries, and runs
    that stop inside a batch (by ``until`` and by ``max_events``) with
    ``peek_time()`` read between them."""
    import numpy as np

    def drive(eng, cancel):
        rng = np.random.default_rng(seed)
        fired = []
        pending = []
        log = []
        inserted = []

        def plain(tag):
            fired.append((eng.now, "plain", tag))

        def arrive(name, t):
            fired.append((eng.now, name, t))
            roll = int(rng.integers(6))
            if roll == 0:
                pending.append(eng.schedule(0.0, plain, len(fired)))
            elif roll == 1:
                pending.append(eng.schedule(float(rng.integers(1, 4)),
                                            plain, len(fired)))
            elif roll == 2 and pending:
                cancel(pending.pop(int(rng.integers(len(pending)))))
            if name == "a" and len(fired) >= 60 and not inserted:
                # A batch inserted mid-run, tying the pending ones.
                inserted.append(True)
                start = eng.now
                eng.schedule_at_batch(
                    [start + float(x) for x in
                     np.sort(rng.integers(0, 20, 40))], arrive, "c",
                    append_time=True)

        def sorted_times(n, hi):
            return [float(x) for x in np.sort(rng.integers(0, hi, n))]

        for i in range(30):
            pending.append(eng.schedule_at(float(rng.integers(0, 40)),
                                           plain, -i))
        eng.schedule_at_batch(sorted_times(80, 40), arrive, "a",
                              append_time=True)
        eng.schedule_at_batch(sorted_times(80, 40), arrive, "b",
                              append_time=True)
        eng.run(until=12.5)
        log.append(("until", eng.now, eng.peek_time(), len(fired)))
        eng.run(max_events=37)
        while fired[-1][1] == "plain":  # stop on a batch entry
            eng.run(max_events=1)
        log.append(("budget", eng.now, eng.peek_time(), len(fired)))
        eng.run(until=3.0)              # horizon already passed
        log.append(("past", eng.now, eng.peek_time(), len(fired)))
        eng.run()
        log.append(("end", eng.now, eng.peek_time(), len(fired)))
        return fired, log, eng.events_processed

    got = drive(Engine(), lambda ev: ev.cancel())
    want = drive(_ReferenceQueue(), _ReferenceQueue.cancel)
    assert got == want
    fired, log, __ = want
    names = [name for __, name, __ in fired]
    assert names.count("a") == names.count("b") == 80
    assert names.count("c") == 40
    # Each stop point fell inside a batch: batch entries fired on both
    # sides of it.
    for __, __, __, n in log[:2]:
        assert {"a", "b"} & set(names[:n])
        assert {"a", "b", "c"} & set(names[n:])
