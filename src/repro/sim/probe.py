"""The probe: one hook vocabulary every simulated layer reports through.

Every :class:`~repro.sim.engine.Engine` carries one ``probe`` slot.  It
defaults to :data:`NULL_PROBE`, whose ``enabled`` is False, and every
instrumentation site guards with ``if probe.enabled:`` so a run with no
observer pays one attribute load + branch per site.

Observers subscribe by subclassing :class:`Probe` and overriding the
hooks they care about: the span tracer (:class:`repro.telemetry.Tracer`)
and the invariant sanitizer (:class:`repro.check.CheckContext`).  A run
with both installs :class:`Probes`, which fans every hook out to each
subscriber in order.  Observers never mutate simulation state and draw
no random numbers, so a probed run is byte-identical to an unprobed one.
"""

from __future__ import annotations

from typing import Any, Callable


class Probe:
    """Disabled probe: every hook is a no-op.

    Also serves as the vocabulary — subscribers override the hooks they
    observe and inherit the no-ops for the rest.
    """

    enabled: bool = False

    # --- requests and spans
    def begin_request(self, rec, now: float, parent=None) -> None:
        """A request (root or nested RPC) entered the system."""

    def end_request(self, rec, now: float, rejected: bool = False) -> None:
        """The request's response was delivered (or it was rejected)."""

    def span(self, category: str, name: str, start_ns: float, end_ns: float,
             rec=None, track: str = "", **attrs: Any) -> None:
        """One completed interval of work."""

    def spanning(self, clock, done: Callable[[], None], category: str,
                 name: str, rec=None, track: str = "",
                 **attrs: Any) -> Callable[[], None]:
        """Wrap ``done`` so that, when it fires, a :meth:`span` from now
        (``clock.now``) until then is reported first."""
        start = clock.now
        span = self.span

        def finish() -> None:
            span(category, name, start, clock.now, rec=rec, track=track,
                 **attrs)
            done()

        return finish

    # --- engine
    def clock_advance(self, old_ns: float, new_ns: float) -> None:
        """The engine clock is about to move from ``old_ns`` to ``new_ns``."""

    # --- request queue
    def rq_admit(self, rq, rec, soft: bool = False) -> None:
        """An entry was admitted (slot or NIC-buffered soft entry)."""

    def rq_dequeue(self, rq, rec) -> None:
        """A READY entry was atomically dequeued for execution."""

    def rq_wakeup(self, rq, rec) -> None:
        """A blocked entry went back to READY."""

    def rq_complete(self, rq, rec, stale: bool = False) -> None:
        """An entry finished (``stale`` = it predates the last purge)."""

    def rq_purge(self, rq) -> None:
        """The queue is about to be wiped (village failure)."""

    # --- scheduling policies and compute
    def rq_steal(self, village, rec) -> None:
        """``village`` stole a READY entry from a peer's queue."""

    def core_bypass(self, village, rec) -> None:
        """An arrival skipped the scheduler onto an idle core."""

    def compute_segment(self, village, rec, core,
                        duration_ns: float) -> None:
        """A compute segment started on ``core`` for ``duration_ns``."""

    # --- NICs / ServiceMap
    def nic_dispatch(self, nic, service: str, village: int) -> None:
        """The ServiceMap picked ``village`` for ``service``."""

    def nic_reject(self, nic) -> None:
        """The top-level NIC overflow buffer rejected a request."""

    def nic_drop(self, nic) -> None:
        """A failed village NIC blackholed a message."""

    # --- on-package network
    def icn_send(self, net) -> None:
        """A routed message entered the ICN (multi-hop sends only)."""

    def icn_deliver(self, net) -> None:
        """A routed message reached its destination."""

    def icn_drop(self, net, in_flight: bool) -> None:
        """A message blackholed (``in_flight`` = after entering the ICN)."""

    # --- resources
    def resource_register(self, res) -> None:
        """A FIFO resource was created (for drain-time leak checks)."""

    def resource_event(self, res) -> None:
        """A resource started or finished a job."""

    # --- RPC / requests
    def message_created(self, msg) -> None:
        """An RPC :class:`~repro.net.rpc.Message` was allocated."""

    def request_created(self, rec) -> None:
        """A request record (root or child RPC) was created."""

    def ext_rejected(self, rec) -> None:
        """An external request was rejected (error response sent at
        ``rec.finish_ns``)."""

    # --- cluster roots
    def root_offered(self, n: int = 1) -> None:
        """``n`` client arrivals were scheduled."""

    def root_done(self, kind: str) -> None:
        """A root request was answered (completed/rejected/failed)."""

    # --- datacenter tier (repro.dc)
    def lb_route(self, lb, server_id: int, active: bool) -> None:
        """The front-end LB routed one root request to ``server_id``."""

    def lb_scale(self, lb, action: str, server_id: int) -> None:
        """The autoscaler activated ("add") or drained a server."""

    # --- faults
    def fault_applied(self, event, now_ns: float) -> None:
        """The injector applied a fault event."""

    # --- hybrid fast path (repro.hybrid)
    def hybrid_commit(self, service: str) -> None:
        """The controller committed ``service`` to analytic mode."""

    def hybrid_abort(self, reason: str) -> None:
        """The controller aborted back to detailed simulation."""

    def hybrid_elide_root(self) -> None:
        """A root request completed analytically (no per-event sim)."""

    def hybrid_elide_call(self, service: str) -> None:
        """A downstream RPC was answered analytically."""


#: Shared default instance; safe because Probe is stateless.
NULL_PROBE = Probe()


class Probes(Probe):
    """Fans every hook out to several subscribers, in the given order."""

    enabled = True

    def __init__(self, *subscribers: Probe):
        self.subscribers = subscribers


def _fan_out(name: str):
    def hook(self, *args, **kwargs):
        for sub in self.subscribers:
            getattr(sub, name)(*args, **kwargs)

    hook.__name__ = name
    hook.__doc__ = getattr(Probe, name).__doc__
    return hook


for _name, _fn in list(vars(Probe).items()):
    if callable(_fn) and not _name.startswith("_") and _name != "spanning":
        setattr(Probes, _name, _fan_out(_name))
del _name, _fn
