"""An I-SPY-like context instruction prefetcher.

I-SPY [Khan et al., MICRO'20] observes that I-cache misses recur under the
same program context; it learns (context -> missing blocks) associations
and injects conditional prefetches when the context recurs.  We model the
core mechanism: the context is a hash of the last few fetched miss blocks;
a table maps contexts to the set of blocks that missed next time the
context was seen.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.cpu.traces import as_records

LINE = 64


class ISpyPrefetcher:
    """Context-driven conditional instruction prefetcher.

    On a miss, the current context (hash of the last ``depth`` miss block
    addresses) learns the missing block; on every fetch, blocks recorded
    for the current context are prefetched (coalesced, bounded degree).
    """

    def __init__(self, depth: int = 4, max_per_context: int = 8,
                 lookahead: int = 4):
        self.depth = depth
        self.max_per_context = max_per_context
        self.lookahead = lookahead
        self._recent = deque(maxlen=depth)
        self._ctx = 0      # _context() of _recent, refreshed on each miss
        # Contexts observed at the last few misses; a new miss is credited
        # to all of them so that, on recurrence, the prefetch runs *ahead*
        # of the miss stream instead of arriving with it.
        self._live_contexts = deque(maxlen=lookahead)
        self._table = {}   # context hash -> list of line addrs

    def _context(self) -> int:
        h = 0
        for a in self._recent:
            h = (h * 1000003 + a) & 0xFFFFFFFF
        return h

    def observe(self, line_addr: int, hit: bool) -> List[int]:
        table = self._table
        targets = table.get(self._ctx)
        out = targets[:] if targets else []
        if not hit:
            for past_ctx in self._live_contexts:
                targets = table.setdefault(past_ctx, [])
                if line_addr not in targets:
                    targets.append(line_addr)
                    if len(targets) > self.max_per_context:
                        targets.pop(0)
            self._recent.append(line_addr)
            self._ctx = self._context()
            self._live_contexts.append(self._ctx)
        return out


def run_instruction_prefetch(cache, prefetcher, addresses) -> None:
    """Replay an instruction fetch stream with prefetching enabled."""
    access = cache.access
    fill = cache.prefetch
    observe = prefetcher.observe
    for addr in as_records(addresses):
        for target in observe(addr // LINE, access(addr)):
            fill(target * LINE)
