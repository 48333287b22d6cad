"""Per-layer ledger for traced benchmark runs.

A *layer* is one ``repro`` subpackage.  :func:`install` wraps, from
outside the program, the public functions and methods of every layer
(plus ``__call__``) in spans, and the engine's scheduling calls in an
attribution shim:

* A span charges its host time to the callee's layer.  A call that stays
  inside the layer already on top of the span stack is passed straight
  through, so only layer crossings pay for a span.  A layer's *self
  time* is its span time minus the time of its child spans.
* Every callback handed to ``Engine.schedule``/``schedule_at``/
  ``schedule_at_batch`` is dispatched inside a span of the layer that
  owns it (the subpackage that defines it) and counted as one event of
  that layer.  ``Resource`` callbacks and ``acquire`` calls belong to the
  layer that owns the resource, read from its name (see
  :func:`resource_layer`).

Time outside every span — the benchmark's own glue — is *unattributed*.
Wrapping changes host time only: the traced run must reproduce the
untraced run's simulated outputs exactly, which the runner checks.
"""

from __future__ import annotations

import enum
import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Optional

from repro.sim.resource import Resource

LAYERS = ("sim", "icn", "net", "core", "sched", "systems", "dc", "faults",
          "hybrid", "workloads", "metrics", "cpu")


def module_layer(module: Optional[str]) -> Optional[str]:
    """``repro.icn.network`` -> ``icn``; None outside the layers."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def resource_layer(name: str) -> Optional[str]:
    """Owner of a ``Resource`` by its name: ``u->v`` ICN links are
    ``icn``; NIC ports, fabric egress and NIC->leaf links are ``net``;
    software scheduler cores are ``core``."""
    if "->" in name:
        return "icn"
    if name.endswith(".port") or ".nic-l" in name \
            or (name.startswith("srv") and name.endswith(".egress")):
        return "net"
    if name.endswith(".sched"):
        return "core"
    return None


class Ledger:
    """Span stack, per-layer self time and per-layer event counts."""

    def __init__(self):
        self.clock = time.perf_counter
        self._module_layers: dict = {}
        self._resource_layers: dict = {}
        self.reset()

    def reset(self) -> None:
        """Start a fresh ledger (call with no span open)."""
        self.self_s = defaultdict(float)
        self.events = Counter()
        self.schedule_calls = 0
        self.scheduled = 0
        #: Child RPC requests created, and responses that resolved the
        #: call waiting on them (counted by :func:`install`'s hooks).
        self.rpcs = 0
        self.useful = 0
        #: Every Resource acquired since the reset, by id.
        self.resources: dict = {}
        self.stack: list = []
        self.top: Optional[str] = None
        self.unattributed_s = 0.0
        self.idle_since = self.clock()

    def close(self) -> None:
        """End the ledger's interval; adds the trailing idle time."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        now = self.clock()
        self.unattributed_s += now - self.idle_since
        self.idle_since = now

    def call(self, layer: Optional[str], fn: Callable, args: tuple,
             kwargs: dict):
        """Run ``fn`` inside a span of ``layer``."""
        if layer == self.top:
            return fn(*args, **kwargs)
        stack = self.stack
        start = self.clock()
        if not stack:
            self.unattributed_s += start - self.idle_since
        prev = self.top
        self.top = layer
        frame = [0.0]          # time of child spans
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spent = end - start
            self.self_s[layer] += spent - frame[0]
            if stack:
                stack[-1][0] += spent
            else:
                self.idle_since = end
            self.top = prev

    # ----------------------------------------------------------- ownership

    def owner(self, fn) -> Optional[str]:
        """Layer that owns an event callback."""
        target = getattr(fn, "__self__", None)
        if isinstance(target, Resource):
            return self.resource_owner(target)
        func = getattr(fn, "__func__", fn)
        module = getattr(func, "__module__", None) or type(fn).__module__
        layer = self._module_layers.get(module, False)
        if layer is False:
            layer = self._module_layers[module] = module_layer(module)
        return layer

    def resource_owner(self, res) -> Optional[str]:
        """Layer that owns a ``Resource``; remembers the resource."""
        self.resources[id(res)] = res
        name = res.name
        layer = self._resource_layers.get(name, False)
        if layer is False:
            layer = self._resource_layers[name] = resource_layer(name)
        return layer

    def dispatcher(self, fn: Callable) -> Callable:
        """Wrap one event callback: count it, run it in its owner's span."""
        layer = self.owner(fn)

        def dispatch(*args):
            self.events[layer] += 1
            return self.call(layer, fn, args, {})

        return dispatch

    def resource_wait_ns(self, layer: str) -> float:
        return sum(r.wait_time_total for r in self.resources.values()
                   if resource_layer(r.name) == layer)

    def resource_jobs(self, suffix: str) -> int:
        return sum(r.jobs_served for r in self.resources.values()
                   if r.name.endswith(suffix))


def _span(ledger: Ledger, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def span(*args, **kwargs):
        return ledger.call(layer, fn, args, kwargs)

    return span


def _layer_modules():
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        yield package
        for info in pkgutil.walk_packages(package.__path__,
                                          f"repro.{layer}."):
            yield importlib.import_module(info.name)


def install(ledger: Ledger) -> None:
    """Wrap every layer's public entry points; call once per process,
    before the simulation objects are built."""
    from repro.sim import engine as engine_mod
    from repro.systems import server as server_mod

    special = set()

    def schedule_shim(orig):
        def schedule(engine, when, fn, *args):
            ledger.schedule_calls += 1
            ledger.scheduled += 1
            return ledger.call("sim", orig,
                               (engine, when, ledger.dispatcher(fn)) + args,
                               {})
        return functools.wraps(orig)(schedule)

    def batch_shim(orig):
        def schedule_at_batch(engine, times, fn, *args, append_time=False):
            times = list(times)
            ledger.schedule_calls += 1
            ledger.scheduled += len(times)
            return ledger.call("sim", orig,
                               (engine, times, ledger.dispatcher(fn)) + args,
                               {"append_time": append_time})
        return functools.wraps(orig)(schedule_at_batch)

    for cls in (obj for obj in vars(engine_mod).values()
                if isinstance(obj, type)):
        for name, shim in (("schedule", schedule_shim),
                           ("schedule_at", schedule_shim),
                           ("schedule_at_batch", batch_shim)):
            if name in vars(cls):
                setattr(cls, name, shim(vars(cls)[name]))
                special.add((cls, name))

    acquire = Resource.acquire

    @functools.wraps(acquire)
    def owned_acquire(res, service_time, done):
        return ledger.call(ledger.resource_owner(res), acquire,
                           (res, service_time, done), {})

    Resource.acquire = owned_acquire
    special.add((Resource, "acquire"))

    # Counter hooks on private systems methods (no span: they run inside
    # systems code already).
    make_request = server_mod.Server._make_request

    @functools.wraps(make_request)
    def counted_make_request(server, app_name, service, on_complete,
                             depth=0):
        if depth:
            ledger.rpcs += 1
        return make_request(server, app_name, service, on_complete, depth)

    server_mod.Server._make_request = counted_make_request

    complete = server_mod._ResilientCall._complete

    @functools.wraps(complete)
    def counted_complete(call, child):
        if not call.done:
            ledger.useful += 1
        return complete(call, child)

    server_mod._ResilientCall._complete = counted_complete

    wrapped_functions = {}
    for module in list(_layer_modules()):
        layer = module_layer(module.__name__)
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type) and not issubclass(obj, enum.Enum):
                for attr, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) \
                            and (not attr.startswith("_")
                                 or attr == "__call__") \
                            and (obj, attr) not in special:
                        setattr(obj, attr, _span(ledger, layer, fn))
            elif isinstance(obj, types.FunctionType) \
                    and not name.startswith("_"):
                wrapped_functions[id(obj)] = _span(ledger, layer, obj)
    # Module-level functions are bound by name wherever they were
    # imported, so rebind every copy inside the package.
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro.") or module is None:
            continue
        for name, obj in list(vars(module).items()):
            span = wrapped_functions.get(id(obj))
            if span is not None and span.__wrapped__ is obj:
                setattr(module, name, span)
