"""repro.check: opt-in invariant sanitizer for the whole simulation stack.

:class:`CheckContext` subscribes to the engine's probe slot
(:mod:`repro.sim.probe`), the same hook vocabulary the span tracer
uses; with no observer installed every site costs one
``probe.enabled`` attribute load.  The sanitizer validates per-event
invariants (clock monotonicity, RQ structure, resource bounds) and
balances conservation ledgers at drain (requests, ICN messages,
resource leaks, span trees).

Entry points: pass ``check=CheckContext()`` to
:class:`repro.systems.cluster.ClusterSimulation` / ``simulate``, use the
``--check`` CLI flags, or run the randomized harness via
``repro validate`` (:mod:`repro.check.harness` — imported lazily here
because it reaches back into the cluster layer).
"""

from repro.check.context import CheckContext, CheckError, Violation
from repro.check.spans import check_span_tree

__all__ = [
    "CheckContext",
    "CheckError",
    "Violation",
    "check_span_tree",
]
