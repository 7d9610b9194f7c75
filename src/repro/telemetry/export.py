"""Exporters: Prometheus text format, JSON-lines logs, trace files.

Three ways telemetry leaves the process:

* :func:`render_prometheus` — the registry as Prometheus text
  exposition format 0.0.4, served by ``GET /metrics`` on the service
  API and scrapeable with any Prometheus-compatible collector.
* :func:`configure_logging` / :class:`JsonLogFormatter` — stdlib
  ``logging`` dressed as structured JSON lines, one object per record,
  with ``trace_id``/``span_id`` of the active span attached so logs
  and traces correlate.
* :func:`write_trace` — a finished span tree as an indented JSON file
  (the trace file of every run directory).
"""

from __future__ import annotations

import io
import json
import logging
import sys
import time
from typing import Any, Dict, Optional, TextIO, Union

from .trace import Span, get_tracer


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(names, values, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry) -> str:
    """The registry in Prometheus text exposition format 0.0.4."""
    out = io.StringIO()
    for family in registry.families():
        out.write(f"# HELP {family.name} {family.help or family.name}\n")
        out.write(f"# TYPE {family.name} {family.kind}\n")
        for labels, child in family.series():
            if family.kind == "histogram":
                cumulative = 0
                for bound, count in zip(child.buckets, child.counts):
                    cumulative += count
                    block = _label_block(
                        family.labelnames, labels, f'le="{_format_value(bound)}"'
                    )
                    out.write(f"{family.name}_bucket{block} {cumulative}\n")
                cumulative += child.counts[-1]
                block = _label_block(family.labelnames, labels, 'le="+Inf"')
                out.write(f"{family.name}_bucket{block} {cumulative}\n")
                block = _label_block(family.labelnames, labels)
                out.write(f"{family.name}_sum{block} {_format_value(child.total)}\n")
                out.write(f"{family.name}_count{block} {child.count}\n")
            else:
                value = child.read() if family.kind == "gauge" else child.value
                block = _label_block(family.labelnames, labels)
                out.write(f"{family.name}{block} {_format_value(value)}\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class JsonLogFormatter(logging.Formatter):
    """One JSON object per log record, trace-correlated.

    Fields: ``ts`` (epoch seconds), ``level``, ``logger``, ``message``,
    plus ``trace_id``/``span_id`` when a span is active in the emitting
    thread, ``exc`` when an exception is attached, and anything passed
    via ``extra={"context": {...}}``.
    """

    def format(self, record: logging.LogRecord) -> str:
        entry: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        active = get_tracer().current_span()
        if active is not None:
            entry["trace_id"] = active.trace_id
            entry["span_id"] = active.span_id
        context = getattr(record, "context", None)
        if isinstance(context, dict):
            entry.update(context)
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry, default=str)


def configure_logging(
    level: Union[int, str] = logging.INFO,
    json_lines: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Handler:
    """Point the root logger at one stream handler, plain or JSON.

    Replaces handlers installed by previous calls (idempotent across
    CLI invocations in one process, e.g. under tests); returns the
    installed handler.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    handler = logging.StreamHandler(stream or sys.stderr)
    if json_lines:
        handler.setFormatter(JsonLogFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
        )
    root = logging.getLogger()
    for existing in list(root.handlers):
        root.removeHandler(existing)
    root.addHandler(handler)
    root.setLevel(level)
    return handler


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------
def write_trace(span: Union[Span, Dict[str, Any]], path: str) -> Dict[str, Any]:
    """Write a finished span tree as indented JSON; returns the payload."""
    tree = span.to_dict() if isinstance(span, Span) else span
    payload = {"generated_at": time.time(), "trace": tree}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
