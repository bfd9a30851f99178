"""Unified observability: metrics registry, tracing, structured logs.

See :mod:`repro.obs.metrics` (counters/gauges/histograms + the
``StatsView`` migration shim), :mod:`repro.obs.trace` (spans with ambient
propagation across threads and the control-plane wire),
:mod:`repro.obs.log` (structured stderr diagnostics),
:mod:`repro.obs.export` (bounded JSONL logs + the on-store ``obs/``
directory), and the observatory trio: :mod:`repro.obs.timeseries`
(epoch-aware SQLite sample history), :mod:`repro.obs.profile` (span-tree
profiling with stage attribution and critical paths), and
:mod:`repro.obs.health` (declarative health rules -> ok/warn/critical).
"""

from repro.obs.export import (
    BoundedJsonlWriter,
    JsonlTraceSink,
    ObsDir,
    prometheus_text,
    read_jsonl_records,
)
from repro.obs.health import (
    DEFAULT_RULES,
    HealthEngine,
    HealthFinding,
    HealthReport,
    HealthRule,
)
from repro.obs.log import ObsLogger, configure, get_logger
from repro.obs.profile import (
    OpAggregate,
    ProfileNode,
    build_trees,
    critical_path,
    folded_stacks,
    load_trees,
    stage_coverage,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
)
from repro.obs.timeseries import (
    Sample,
    TimeSeriesDB,
    TimeSeriesSampler,
)
from repro.obs.trace import (
    TRACE_KEY,
    MemoryTraceSink,
    Span,
    TraceSink,
    capture_context,
    current_span,
    current_trace_id,
    new_span_id,
    new_trace_id,
    parse_context,
    set_trace_sink,
    span_scope,
    traced,
    tracing_enabled,
    wire_context,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RULES",
    "TRACE_KEY",
    "BoundedJsonlWriter",
    "Counter",
    "Gauge",
    "HealthEngine",
    "HealthFinding",
    "HealthReport",
    "HealthRule",
    "Histogram",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "MetricsRegistry",
    "ObsDir",
    "ObsLogger",
    "OpAggregate",
    "ProfileNode",
    "Sample",
    "Span",
    "StatsView",
    "TimeSeriesDB",
    "TimeSeriesSampler",
    "TraceSink",
    "build_trees",
    "capture_context",
    "configure",
    "critical_path",
    "current_span",
    "current_trace_id",
    "folded_stacks",
    "get_logger",
    "load_trees",
    "new_span_id",
    "new_trace_id",
    "parse_context",
    "prometheus_text",
    "read_jsonl_records",
    "set_trace_sink",
    "span_scope",
    "stage_coverage",
    "traced",
    "tracing_enabled",
    "wire_context",
]
