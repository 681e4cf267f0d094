"""``repro.obs`` — the span-based observability layer.

Structured tracing, a unified metrics registry and exporters for every
experiment the engine runs:

- :class:`Tracer` / :class:`Span` — nested, simulated-clock-stamped
  spans (experiment → job → stage → task attempt → phase) with
  tier/socket/fault attributes, emitted by hooks in the DAG scheduler,
  task scheduler, executors and trace replayer;
- :class:`MetricsRegistry` — counters, gauges and histograms that the
  sim kernel, shuffle manager, fault injector, telemetry collector and
  campaign runner publish into;
- exporters — Chrome/Perfetto ``trace.json``
  (:func:`export_chrome_trace`, :func:`merge_chrome_traces`), flat
  schema-versioned metrics JSON (:func:`export_metrics_json`) and a
  terminal stage timeline (:func:`format_stage_timeline`).

Entry points: ``repro.api.run(config, options=RunOptions(observe=
ObsConfig(...)))``, ``repro.api.campaign(configs, options=RunOptions(
observe=...))``, or the CLI's
``--trace-out`` / ``--metrics-json`` flags on ``run`` and ``campaign``.
Observation never alters the simulation — observed runs are
bit-identical to unobserved ones — and with ``observe=None`` the engine
carries no instrumentation at all.  See docs/OBSERVABILITY.md.
"""

from repro.obs.config import ObsConfig, Observer, coerce_observer
from repro.obs.export import (
    TRACE_SCHEMA,
    build_trace_events,
    export_chrome_trace,
    export_metrics_json,
    format_stage_timeline,
    load_metrics_json,
    merge_chrome_traces,
    trace_payload,
)
from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder, load_flight_dump
from repro.obs.hooks import emit_task_set_spans, sample_device_counters
from repro.obs.live import MetricsListener, format_top
from repro.obs.log import StructuredLog, configure, get_log, read_log
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.registry import (
    METRICS_SCHEMA,
    HistogramSummary,
    MetricsRegistry,
    labeled_name,
    split_labels,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.span import CounterSample, Instant, Span, Tracer
from repro.version import OBS_SCHEMA_VERSION

__all__ = [
    "CounterSample",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "HistogramSummary",
    "Instant",
    "METRICS_SCHEMA",
    "MetricsListener",
    "MetricsRegistry",
    "OBS_SCHEMA_VERSION",
    "ObsConfig",
    "Observer",
    "QuantileSketch",
    "Span",
    "StructuredLog",
    "TRACE_SCHEMA",
    "Tracer",
    "build_trace_events",
    "coerce_observer",
    "configure",
    "emit_task_set_spans",
    "export_chrome_trace",
    "export_metrics_json",
    "format_stage_timeline",
    "format_top",
    "get_log",
    "labeled_name",
    "load_flight_dump",
    "load_metrics_json",
    "merge_chrome_traces",
    "parse_prometheus",
    "read_log",
    "render_prometheus",
    "sample_device_counters",
    "split_labels",
    "trace_payload",
]
