"""Profile-guided I-cache replacement (Ripple-like) vs LRU.

Ripple [Khan et al., ISCA'21] uses a profiling pass to find instruction
lines whose next reuse is too far away to survive in the cache, and evicts
them eagerly.  We model it as a two-pass scheme: a profiling pass computes
per-line reuse distances; lines whose median reuse distance exceeds the
cache's line capacity are classified *transient* and inserted at the LRU
position (evicted first), protecting the lines that do fit.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Set

from repro.cpu.cache import InsertionPolicy
from repro.cpu.traces import as_records

LINE = 64


def _median(values: List[int]) -> float:
    """``np.median`` of a non-empty list: the sorted middle, or the mean of
    the two middle values (exact for ints below 2**53)."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def profile_transient_lines(addresses, cache_lines: int) -> Set[int]:
    """Profiling pass: lines whose typical reuse distance exceeds capacity.

    Reuse distance is approximated by the number of accesses between
    consecutive touches of the same line (a stack-distance upper bound);
    a line is transient when its median gap exceeds ``cache_lines``
    (scaled: gaps count accesses, and unique-line density converts the
    threshold).
    """
    addresses = as_records(addresses)
    last_seen = {}
    gaps = defaultdict(list)
    for i, addr in enumerate(addresses):
        line = addr // LINE
        prev = last_seen.get(line)
        if prev is not None:
            gaps[line].append(i - prev)
        last_seen[line] = i
    transient: Set[int] = set()
    # Average distinct-lines-per-access converts an access-count gap into
    # an approximate stack distance.
    density = len(last_seen) / max(1, len(addresses))
    threshold = cache_lines / max(density, 1e-9)
    for line, line_gaps in gaps.items():
        if _median(line_gaps) > threshold:
            transient.add(line)
    # Lines never reused are transient by definition.
    for line in last_seen:
        if line not in gaps:
            transient.add(line)
    return transient


class RipplePolicy(InsertionPolicy):
    """Insertion policy driven by a profiled transient-line set."""

    def __init__(self, transient_lines: Set[int]):
        self.transient_lines = transient_lines

    def is_transient(self, line_addr: int) -> bool:
        return line_addr in self.transient_lines
