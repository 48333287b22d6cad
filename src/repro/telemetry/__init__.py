"""Telemetry subsystem: request tracing, metrics, export, breakdown.

Spans (:mod:`~repro.telemetry.span`) record where each request's time
goes; the :class:`~repro.telemetry.metrics.MetricsRegistry` samples
system state over time; exporters write Chrome trace-event JSON
(Perfetto-loadable) and flat JSON/CSV; the breakdown module turns a
span stream into the per-category latency decomposition of Figure 15.

The :class:`~repro.telemetry.tracer.Tracer` is one subscriber of the
engine's probe slot (:mod:`repro.sim.probe`); with no observer installed
instrumentation sites cost one ``probe.enabled`` attribute load.
"""

from repro.telemetry.breakdown import (
    BREAKDOWN_CATEGORIES,
    aggregate_breakdown,
    format_breakdown,
    per_request_breakdown,
)
from repro.telemetry.export import (
    chrome_trace,
    spans_as_dicts,
    write_chrome_trace,
    write_spans_csv,
    write_spans_json,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.span import CATEGORIES, Span
from repro.telemetry.tracer import Tracer

__all__ = [
    "CATEGORIES",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_json",
    "write_spans_csv",
    "spans_as_dicts",
    "per_request_breakdown",
    "aggregate_breakdown",
    "format_breakdown",
    "BREAKDOWN_CATEGORIES",
]
