"""Dynamically partitioned Request Queue (the Section 4.3 advanced design).

"A more advanced design of the RQ would involve dynamically partitioning
it into multiple RQs — each partition devoted to a different service...
The proportion of entries assigned to each service can be the same as
the proportion of cores assigned to each service...  This additional
hardware would eliminate contention of different-service cores for the
same RQ."  The paper describes but does not evaluate this design; it is
implemented here (unit-tested in ``tests/test_rq_map.py``) as the
natural extension.

The RQ_Map table maps a service id to its partition; ``Dequeue`` consults
the map first, exactly as the paper's augmented instruction would.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.core.request import RequestRecord, RequestStatus
from repro.core.request_queue import RequestQueue


class PartitionedRequestQueue:
    """An RQ split into per-service partitions via an RQ_Map table.

    Drop-in compatible with :class:`RequestQueue` for the village's usage:
    ``enqueue`` routes by the record's service; ``dequeue(service)`` only
    inspects that service's partition (no cross-service contention);
    ``dequeue(None)`` serves the globally oldest ready entry.
    """

    def __init__(self, capacity: int, shares: Dict[str, float],
                 name: str = "", policy: Optional[object] = None,
                 policies: Optional[Dict[str, object]] = None):
        if capacity < len(shares):
            raise ValueError("capacity smaller than the number of partitions")
        if not shares:
            raise ValueError("at least one service share required")
        total_share = sum(shares.values())
        if total_share <= 0:
            raise ValueError("shares must sum to a positive value")
        self.capacity = capacity
        self.name = name
        self._partitions: Dict[str, RequestQueue] = {}
        remaining = capacity
        items = sorted(shares.items())
        for i, (service, share) in enumerate(items):
            if i == len(items) - 1:
                part_capacity = remaining
            else:
                part_capacity = max(1, int(capacity * share / total_share))
            remaining -= part_capacity
            # ``policies`` overrides the shared policy per partition (each
            # service may order its own queue differently).
            part_policy = policy
            if policies is not None and service in policies:
                part_policy = policies[service]
            self._partitions[service] = RequestQueue(
                part_capacity, name=f"{name}.{service}", policy=part_policy)
        self.rejected = 0
        self._seq = 0          # global arrival order across partitions
        # When every partition ranks by the same non-FCFS policy, the
        # unpartitioned dequeue compares heap keys across partitions;
        # FCFS (or mixed policies) keeps global arrival order.
        policy_names = {q.policy.name for q in self._partitions.values()}
        self._uniform_policy = (policy_names.pop()
                                if len(policy_names) == 1 else None)

    def set_clock(self, clock) -> None:
        """Attach a time source to every partition (RQ-wait telemetry)."""
        for q in self._partitions.values():
            q.set_clock(clock)

    @property
    def wait_ns_total(self) -> float:
        return sum(q.wait_ns_total for q in self._partitions.values())

    # ------------------------------------------------------------ RQ_Map

    @property
    def rq_map(self) -> Dict[str, int]:
        """Service -> partition capacity (the hardware RQ_Map contents)."""
        return {s: q.capacity for s, q in self._partitions.items()}

    def partition(self, service: str) -> RequestQueue:
        try:
            return self._partitions[service]
        except KeyError:
            raise KeyError(f"service {service!r} not in RQ_Map "
                           f"({sorted(self._partitions)})") from None

    # -------------------------------------------------- RequestQueue API

    @property
    def occupancy(self) -> int:
        return sum(q.occupancy for q in self._partitions.values())

    @property
    def is_full(self) -> bool:
        return all(q.is_full for q in self._partitions.values())

    @property
    def soft_entries(self) -> int:
        return sum(q.soft_entries for q in self._partitions.values())

    def enqueue(self, rec: RequestRecord) -> bool:
        ok = self.partition(rec.service).enqueue(rec)
        if ok:
            rec._prq_seq = self._seq
            self._seq += 1
        else:
            self.rejected += 1
        return ok

    def soft_enqueue(self, rec: RequestRecord) -> None:
        """Admit an internal request via NIC buffering (no slot held)."""
        self.partition(rec.service).soft_enqueue(rec)
        rec._prq_seq = self._seq
        self._seq += 1

    def observe(self, service: str, duration_ns: float) -> None:
        """Feed a measured segment time to the partition's policy (SJF)."""
        fn = getattr(self.partition(service).policy, "observe", None)
        if fn is not None:
            fn(service, duration_ns)

    def dequeue(self, service: Optional[str] = None
                ) -> Optional[RequestRecord]:
        if service is not None:
            return self.partition(service).dequeue()
        if self._uniform_policy not in (None, "fcfs"):
            return self._dequeue_best_key()
        # Unpartitioned core: serve the globally oldest ready entry.
        best: Optional[RequestQueue] = None
        best_seq = None
        for q in self._partitions.values():
            # Peek via the heap, discarding stale (non-READY) entries.
            while q._ready_heap and \
                    q._ready_heap[0][2].status is not RequestStatus.READY:
                heapq.heappop(q._ready_heap)
            if q._ready_heap:
                seq = q._ready_heap[0][2]._prq_seq
                if best_seq is None or seq < best_seq:
                    best, best_seq = q, seq
        return best.dequeue() if best is not None else None

    def _dequeue_best_key(self) -> Optional[RequestRecord]:
        """Unpartitioned dequeue under a uniform non-FCFS policy: take
        the globally best (policy key, req_id) across partition heaps.
        The trailing per-partition sequence in each key is not globally
        meaningful, but the comparison stays deterministic (req_id is
        the final tie-break)."""
        best: Optional[RequestQueue] = None
        best_key = None
        for q in self._partitions.values():
            while q._ready_heap and \
                    q._ready_heap[0][2].status is not RequestStatus.READY:
                heapq.heappop(q._ready_heap)
            if q._ready_heap:
                key = q._ready_heap[0][:2]
                if best_key is None or key < best_key:
                    best, best_key = q, key
        return best.dequeue() if best is not None else None

    def has_ready(self, service: Optional[str] = None) -> bool:
        if service is not None:
            return self.partition(service).has_ready()
        return any(q.has_ready() for q in self._partitions.values())

    def mark_blocked(self, rec: RequestRecord) -> None:
        self.partition(rec.service).mark_blocked(rec)

    def mark_ready(self, rec: RequestRecord) -> None:
        self.partition(rec.service).mark_ready(rec)

    def complete(self, rec: RequestRecord) -> None:
        self.partition(rec.service).complete(rec)

    def is_stale(self, rec: RequestRecord) -> bool:
        return self.partition(rec.service).is_stale(rec)

    def purge(self) -> int:
        return sum(q.purge() for q in self._partitions.values())

    def entries(self) -> List[RequestRecord]:
        out: List[RequestRecord] = []
        for q in self._partitions.values():
            out.extend(q.entries())
        return out
