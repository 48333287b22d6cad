"""Data prefetchers: stride and a Pythia-like learning prefetcher.

Pythia [Bera et al., MICRO'21] frames prefetching as reinforcement
learning: a program context ("signature") selects a prefetch offset whose
Q-value is updated by rewards for accurate/timely prefetches and penalties
for useless ones.  We model the essential mechanism — per-signature
Q-learning over candidate line offsets with epsilon-greedy selection —
at cache-line granularity.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cpu.traces import as_records

LINE = 64


class StridePrefetcher:
    """Classic stream prefetcher: confirm a stride twice, then run ahead."""

    def __init__(self, degree: int = 2):
        self.degree = degree
        self._last: Optional[int] = None
        self._stride: int = 0
        self._confidence: int = 0

    def observe(self, line_addr: int, hit: bool) -> List[int]:
        out: List[int] = []
        if self._last is not None:
            stride = line_addr - self._last
            if stride != 0 and stride == self._stride:
                self._confidence = min(self._confidence + 1, 3)
            else:
                self._stride = stride
                self._confidence = 0 if stride == 0 else 1
            if self._confidence >= 2:
                out = [line_addr + self._stride * (i + 1) for i in range(self.degree)]
        self._last = line_addr
        return out

    def credit(self, line_addr: int) -> None:
        pass


class PythiaPrefetcher:
    """Q-learning prefetcher over (signature, offset) pairs.

    The signature is the last observed line delta (a small program-context
    proxy); actions are candidate offsets; reward is +1 when a prefetched
    line is later demanded, -0.2 when it is issued (cost), driving the
    policy toward offsets that pay off for the observed pattern.

    Q-rows are lists of Python floats: the updates are the same IEEE-754
    double operations a ``float64`` array does, and ``row.index(max(row))``
    keeps ``np.argmax``'s first-maximum tie rule.
    """

    OFFSETS = (1, 2, 3, 4, 8, 16, -1, 0)   # 0 = do not prefetch

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 epsilon: float = 0.05, alpha: float = 0.15):
        self.rng = rng or np.random.default_rng(0)
        self.epsilon = epsilon
        self.alpha = alpha
        self._q = {}                 # signature -> list of Q values
        self._last: Optional[int] = None
        self._pending = {}           # prefetched line -> (signature, action)
        self.issued = 0
        self.rewarded = 0

    def _q_row(self, sig: int) -> List[float]:
        row = self._q.get(sig)
        if row is None:
            row = [0.0] * len(self.OFFSETS)
            self._q[sig] = row
        return row

    def observe(self, line_addr: int, hit: bool) -> List[int]:
        last = self._last
        self._last = line_addr
        if last is None:
            return []
        sig = line_addr - last
        if sig > 64:
            sig = 64
        elif sig < -64:
            sig = -64
        row = self._q_row(sig)
        rng = self.rng
        epsilon = self.epsilon
        if rng.random() < epsilon:
            action = int(rng.integers(len(self.OFFSETS)))
        else:
            action = row.index(max(row))
        offset = self.OFFSETS[action]
        # Conservative issue policy: outside exploration, only act on
        # offsets with learned positive reward — unlearned signatures
        # stay quiet instead of polluting the cache.
        if offset == 0 or (row[action] <= 0.0 and rng.random() >= epsilon):
            return []
        target = line_addr + offset
        row[action] += self.alpha * (-0.2 - row[action])  # issue cost
        self._pending[target] = (sig, action)
        self.issued += 1
        return [target]

    def credit(self, line_addr: int) -> None:
        """Reward the action that prefetched a line now demanded."""
        entry = self._pending.pop(line_addr, None)
        if entry is None:
            return
        sig, action = entry
        row = self._q_row(sig)
        row[action] += self.alpha * (1.0 - row[action])
        self.rewarded += 1


def run_data_prefetch(cache, prefetcher, addresses) -> None:
    """Replay ``addresses`` through ``cache`` with ``prefetcher`` active.

    The prefetcher sees every demand access (line granularity) and may
    inject fills; demand hits on prefetched lines are credited back.
    """
    access = cache.access
    prefetch = cache.prefetch
    observe = prefetcher.observe
    credit = prefetcher.credit
    for addr in as_records(addresses):
        line = addr // LINE
        hit = access(addr)
        if hit:
            credit(line)
        for target_line in observe(line, hit):
            if target_line >= 0:
                prefetch(target_line * LINE)
