"""Telemetry plane: structured tracing, metrics, and exporters.

The repo's instrument panel (ISSUE 6).  Stdlib-only, and **off by
default**: the module-level :func:`get_tracer` / :func:`get_registry`
hand back no-op implementations until something installs real ones —
the service does on start-up, every run with a run directory does for
its own duration (``repro.service.spec.run_job``), tests do with the
``use_*`` context managers.

Layout:

* :mod:`repro.telemetry.trace` — hierarchical spans (job → workflow →
  stage → superstep → worker) with cross-process propagation;
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms,
  thread-safe and mergeable across processes;
* :mod:`repro.telemetry.export` — Prometheus text format, JSON-lines
  logging with trace correlation, trace-file writing;
* :mod:`repro.telemetry.sampler` — resource sampling and structured
  run timelines, mergeable across processes;
* :mod:`repro.telemetry.profiling` — cProfile collection merged across
  worker processes, hotspot tables and collapsed-stack output;
* :mod:`repro.telemetry.report` — the run-directory layout, and
  self-contained HTML ops reports and the service dashboard rendered
  from it (inline SVG, zero dependencies).
"""

from .export import (
    JsonLogFormatter,
    configure_logging,
    render_prometheus,
    write_trace,
)
from .metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .profiling import (
    NullProfileCollector,
    ProfileCollector,
    get_profiler,
    set_profiler,
    use_profiler,
)
from .report import load_run_artifacts, render_dashboard, render_report
from .sampler import (
    NullTimeline,
    ResourceSampler,
    TimelineRecorder,
    get_timeline,
    peak_rss_bytes,
    read_timeline,
    set_timeline,
    use_timeline,
    write_timeline,
)
from .trace import (
    NoopTracer,
    RemoteSpan,
    Span,
    TraceContext,
    Tracer,
    current_span,
    get_tracer,
    remote_context,
    set_tracer,
    span,
    start_remote_span,
    use_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NoopTracer",
    "NullProfileCollector",
    "NullRegistry",
    "NullTimeline",
    "ProfileCollector",
    "RemoteSpan",
    "ResourceSampler",
    "Span",
    "TimelineRecorder",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "current_span",
    "get_profiler",
    "get_registry",
    "get_timeline",
    "get_tracer",
    "load_run_artifacts",
    "peak_rss_bytes",
    "read_timeline",
    "remote_context",
    "render_dashboard",
    "render_prometheus",
    "render_report",
    "set_profiler",
    "set_registry",
    "set_timeline",
    "set_tracer",
    "span",
    "start_remote_span",
    "use_profiler",
    "use_registry",
    "use_timeline",
    "use_tracer",
    "write_timeline",
    "write_trace",
]
