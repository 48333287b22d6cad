"""A fixed host-speed probe, independent of the simulator's code.

On a shared host the CPU's speed shifts by 15-30% for minutes at a
time, and those shifts, not the simulator, dominate run-to-run spread of
host time.  The probe is a small discrete-event loop in the simulator's
style — a binary-heap event queue of event objects, FIFO link resources,
per-message callback objects — so a slower host slows it as it slows the
simulator.  The runner probes before the first op and after every op,
and scales an op's host seconds by ``REFERENCE_S`` over the mean of the
probe times on either side of it: *reference seconds*.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: Messages per probe (0.55-0.75 s on the 2-core host the baseline was
#: measured on).
MESSAGES = 40_000

#: The probe's median time on the baseline host, so that there reference
#: seconds read close to host seconds.
REFERENCE_S = 0.6


class _Event:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args


class _Engine:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0

    def schedule(self, delay, fn, *args):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq,
                                   _Event(fn, args)))

    def run(self) -> None:
        heap = self.heap
        while heap:
            self.now, __, event = heapq.heappop(heap)
            event.fn(*event.args)


class _Link:
    def __init__(self, engine):
        self.engine = engine
        self.busy = False
        self.queue = deque()

    def acquire(self, service, done):
        if self.busy:
            self.queue.append((service, done))
            return
        self.busy = True
        self.engine.schedule(service, self._finish, done)

    def _finish(self, done):
        self.busy = False
        done()
        if self.queue:
            self.acquire(*self.queue.popleft())


class _Message:
    __slots__ = ("route", "hop")

    def __init__(self, route):
        self.route = route
        self.hop = 0

    def __call__(self):
        if self.hop < len(self.route):
            self.hop += 1
            self.route[self.hop - 1].acquire(2.5 + (self.hop & 3), self)


def probe() -> float:
    """Host seconds one fixed discrete-event workload takes right now."""
    start = time.perf_counter()
    engine = _Engine()
    links = [_Link(engine) for __ in range(64)]
    x = 12345
    for k in range(MESSAGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        route = [links[(x >> shift) % 64] for shift in (0, 6, 12, 18)]
        engine.schedule(k * 3.0, _Message(route))
    engine.run()
    return time.perf_counter() - start
