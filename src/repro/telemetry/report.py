"""Self-contained HTML ops reports rendered from telemetry artefacts.

Turns three files of a run directory (:data:`RUN_FILES`, the one
place the layout is named) — the span tree, the run timeline (samples +
superstep/stage events) and the assembly metrics payload, optionally
with a ``"profile"`` hotspot block — into one human-readable page: a span
waterfall, RSS and message-rate timelines, the hotspot table, and the
memory/contiguity summaries.  Everything is inline (hand-rolled SVG +
a ``<style>`` block, no external assets, no JavaScript, no third-party
libraries), so the file can be archived as a CI artifact, attached to
an incident, or served straight from the job service
(``GET /jobs/<id>/report``); :func:`render_dashboard` builds the
service's ``GET /dashboard`` overview the same way.

The markup is deliberately XML-well-formed (every tag closed, every
attribute quoted) so tests can assert structural integrity with
``xml.etree.ElementTree`` instead of a browser.
"""

from __future__ import annotations

import json
from html import escape
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .sampler import read_timeline

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 62em; color: #1d2330; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; font-size: 0.85em; }
th, td { border: 1px solid #d8dce6; padding: 0.3em 0.6em; text-align: left; }
th { background: #f2f4f8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.cards { display: flex; flex-wrap: wrap; gap: 0.8em; margin: 1em 0; }
.card { border: 1px solid #d8dce6; border-radius: 6px; padding: 0.6em 1em;
        min-width: 9em; background: #fafbfd; }
.card b { display: block; font-size: 1.25em; }
.card span { color: #5b6472; font-size: 0.8em; }
.muted { color: #5b6472; font-size: 0.85em; }
svg { background: #fafbfd; border: 1px solid #d8dce6; border-radius: 6px; }
a { color: #2458c5; }
.state-succeeded { color: #1a7f37; } .state-failed, .state-poisoned { color: #c5242b; }
.state-running { color: #2458c5; } .state-queued { color: #8a6d00; }
"""

_DEPTH_COLORS = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value >= 100:
        return f"{value:,.0f} s"
    if value >= 1:
        return f"{value:.2f} s"
    return f"{value * 1000:.1f} ms"


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "—"
    value = float(value)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024.0
    return f"{value:,.1f} TiB"  # pragma: no cover - unreachable


def _fmt_count(value: Optional[float]) -> str:
    return "—" if value is None else f"{int(value):,}"


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------
def _svg_open(width: int, height: int) -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img">'
    ]


def _flatten_spans(
    node: Dict[str, Any], depth: int = 0, out: Optional[List[Tuple[int, Dict[str, Any]]]] = None
) -> List[Tuple[int, Dict[str, Any]]]:
    if out is None:
        out = []
    out.append((depth, node))
    for child in node.get("children", ()) or ():
        if isinstance(child, dict):
            _flatten_spans(child, depth + 1, out)
    return out


def span_waterfall_svg(trace_tree: Dict[str, Any], max_rows: int = 48, width: int = 920) -> str:
    """The span tree as a left-to-right waterfall (one bar per span)."""
    rows = _flatten_spans(trace_tree)
    truncated = len(rows) > max_rows
    rows = rows[:max_rows]
    t0 = float(trace_tree.get("start_time") or 0.0)
    total = max(
        (float(r.get("start_time") or t0) - t0) + float(r.get("duration_seconds") or 0.0)
        for _, r in rows
    )
    total = total or 1e-9
    row_h, label_w, pad = 20, 300, 4
    chart_w = width - label_w - 2 * pad
    height = row_h * len(rows) + 2 * pad + (14 if truncated else 0)
    parts = _svg_open(width, height)
    for index, (depth, node) in enumerate(rows):
        y = pad + index * row_h
        start = (float(node.get("start_time") or t0) - t0) / total
        frac = float(node.get("duration_seconds") or 0.0) / total
        x = label_w + pad + start * chart_w
        bar_w = max(frac * chart_w, 1.5)
        color = "#d65f5f" if node.get("status") == "error" else _DEPTH_COLORS[depth % len(_DEPTH_COLORS)]
        name = escape(str(node.get("name", "?")))
        label = (" " * (2 * depth)) + name
        parts.append(
            f'<text x="{pad}" y="{y + 14}" font-size="11">{label[:52]}</text>'
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{y + 3}" width="{bar_w:.1f}" height="{row_h - 7}" '
            f'fill="{color}" rx="2"><title>{name}: '
            f'{escape(_fmt_seconds(float(node.get("duration_seconds") or 0.0)))}</title></rect>'
        )
    if truncated:
        parts.append(
            f'<text x="{pad}" y="{height - 4}" font-size="10" fill="#5b6472">'
            f"(truncated to the first {max_rows} spans)</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def series_svg(
    points: Sequence[Tuple[float, float]],
    unit: str = "",
    width: int = 920,
    height: int = 140,
    color: str = "#4878d0",
    fmt=_fmt_count,
) -> str:
    """A timestamped numeric series as a polyline with min/max rails."""
    if not points:
        return ""
    pts = sorted((float(t), float(v)) for t, v in points)
    t0, t1 = pts[0][0], pts[-1][0]
    span_t = (t1 - t0) or 1e-9
    values = [v for _, v in pts]
    vmax = max(values) or 1.0
    pad, label_h = 6, 16
    chart_h = height - 2 * pad - label_h
    coords = []
    for t, v in pts:
        x = pad + (t - t0) / span_t * (width - 2 * pad)
        y = pad + (1.0 - v / vmax) * chart_h
        coords.append(f"{x:.1f},{y:.1f}")
    parts = _svg_open(width, height)
    parts.append(
        f'<polyline points="{" ".join(coords)}" fill="none" '
        f'stroke="{color}" stroke-width="1.8"/>'
    )
    if len(pts) == 1:
        x, y = coords[0].split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>')
    parts.append(
        f'<text x="{pad}" y="{pad + 10}" font-size="10" fill="#5b6472">'
        f"max {escape(fmt(vmax))}{escape(unit)}</text>"
    )
    parts.append(
        f'<text x="{pad}" y="{height - 4}" font-size="10" fill="#5b6472">'
        f"{escape(_fmt_seconds(t1 - t0))} window, {len(pts)} points</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# report sections
# ----------------------------------------------------------------------
def _card(value: str, label: str) -> str:
    return f'<div class="card"><b>{escape(value)}</b><span>{escape(label)}</span></div>'


def _timeline_sections(timeline: Sequence[Dict[str, Any]]) -> List[str]:
    sections: List[str] = []
    samples = [e for e in timeline if e.get("kind") == "sample"]
    supersteps = [e for e in timeline if e.get("kind") == "superstep"]
    if samples:
        rss = [(e["ts"], e.get("rss_bytes", 0)) for e in samples if "ts" in e]
        sections.append("<h2>Resident set size</h2>")
        sections.append(series_svg(rss, fmt=_fmt_bytes, color="#956cb4"))
        peak = max((e.get("peak_rss_bytes", 0) or 0) for e in samples)
        sections.append(
            f'<p class="muted">peak RSS {escape(_fmt_bytes(peak))} over '
            f"{len(samples)} samples.</p>"
        )
    if supersteps:
        msgs = [(e["ts"], e.get("messages_sent", 0)) for e in supersteps if "ts" in e]
        cross = [(e["ts"], e.get("cross_worker_messages", 0)) for e in supersteps if "ts" in e]
        sections.append("<h2>Messages per superstep</h2>")
        sections.append(series_svg(msgs, color="#4878d0"))
        sections.append(
            '<p class="muted">cross-worker share below (traffic crossing '
            "a process boundary).</p>"
        )
        sections.append(series_svg(cross, color="#ee854a", height=90))
    return sections


def _hotspot_section(profile: Dict[str, Any]) -> List[str]:
    hotspots = profile.get("hotspots") or []
    if not hotspots:
        return []
    rows = [
        "<h2>CPU hotspots</h2>",
        '<table><tr><th>function</th><th class="num">calls</th>'
        '<th class="num">self</th><th class="num">cumulative</th></tr>',
    ]
    for spot in hotspots:
        rows.append(
            f"<tr><td><code>{escape(str(spot.get('function', '?')))}</code></td>"
            f'<td class="num">{_fmt_count(spot.get("calls"))}</td>'
            f'<td class="num">{escape(_fmt_seconds(spot.get("self_seconds")))}</td>'
            f'<td class="num">{escape(_fmt_seconds(spot.get("cumulative_seconds")))}</td></tr>'
        )
    rows.append("</table>")
    stages = profile.get("stages") or []
    if stages:
        rows.append(
            f'<p class="muted">profiled stages: {escape(", ".join(map(str, stages)))}.</p>'
        )
    return rows


def _memory_section(memory: Dict[str, Any]) -> List[str]:
    rows = [
        "<h2>Memory and spill</h2>",
        '<table><tr><th>metric</th><th class="num">value</th></tr>',
    ]
    for key in sorted(memory):
        value = memory[key]
        if key.endswith("_bytes") or key == "ledger_peak_bytes":
            shown = _fmt_bytes(value)
        elif isinstance(value, (int, float)) and value is not None:
            shown = f"{value:,}" if float(value) == int(value) else f"{value}"
        else:
            shown = str(value)
        rows.append(
            f"<tr><td>{escape(key)}</td><td class=\"num\">{escape(shown)}</td></tr>"
        )
    rows.append("</table>")
    return rows


def render_report(
    title: str,
    trace: Optional[Dict[str, Any]] = None,
    timeline: Sequence[Dict[str, Any]] = (),
    metrics: Optional[Dict[str, Any]] = None,
) -> str:
    """Render one run's ops report as a self-contained HTML page.

    Any input may be absent — the report shows the sections it has data
    for (a queued job has no trace yet, a run without ``--profile`` has
    no hotspot table) and says so for the rest.
    """
    metrics = metrics or {}
    trace_tree = (trace or {}).get("trace") if trace else None
    body: List[str] = [f"<h1>{escape(title)}</h1>"]

    wall = metrics.get("wall_seconds")
    if wall is None and trace_tree:
        wall = trace_tree.get("duration_seconds")
    samples = [e for e in timeline if e.get("kind") == "sample"]
    peak = max((e.get("peak_rss_bytes", 0) or 0) for e in samples) if samples else None
    if peak is None:
        peak = (metrics.get("memory") or {}).get("peak_rss_bytes")
    supersteps = sum(1 for e in timeline if e.get("kind") == "superstep")
    messages = sum(
        int(e.get("messages_sent", 0) or 0)
        for e in timeline
        if e.get("kind") == "superstep"
    )
    cards = [
        _card(_fmt_seconds(wall), "wall clock"),
        _card(_fmt_bytes(peak) if peak else "—", "peak RSS"),
        _card(_fmt_count(supersteps), "supersteps"),
        _card(_fmt_count(messages), "pregel messages"),
    ]
    contigs = metrics.get("contigs") or {}
    if contigs.get("n50") is not None:
        cards.append(_card(_fmt_count(contigs.get("n50")), "contig N50"))
    body.append('<div class="cards">' + "".join(cards) + "</div>")

    if trace_tree:
        body.append("<h2>Span waterfall</h2>")
        body.append(span_waterfall_svg(trace_tree))
    else:
        body.append('<p class="muted">No trace captured for this run.</p>')

    if timeline:
        body.extend(_timeline_sections(timeline))
    else:
        body.append('<p class="muted">No timeline captured for this run.</p>')

    profile = metrics.get("profile")
    if isinstance(profile, dict):
        body.extend(_hotspot_section(profile))
    memory = metrics.get("memory")
    if isinstance(memory, dict) and memory:
        body.extend(_memory_section(memory))

    return _page(title, body)


def _page(title: str, body: List[str]) -> str:
    return (
        '<html lang="en"><head><meta charset="utf-8"/>'
        f"<title>{escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        + "".join(body)
        + "</body></html>"
    )


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
def render_dashboard(
    health: Dict[str, Any],
    jobs: Sequence[Dict[str, Any]],
    title: str = "repro-assemble dashboard",
) -> str:
    """The service overview page: queue/worker health + recent jobs."""
    body: List[str] = [f"<h1>{escape(title)}</h1>"]
    counts = health.get("counts") or health.get("jobs") or {}
    cards = [
        _card(str(health.get("status", "?")), "service"),
        _card(str(health.get("workers", "?")), "workers"),
        _card(_fmt_count(counts.get("queued", 0)), "queued"),
        _card(_fmt_count(counts.get("running", 0)), "running"),
        _card(_fmt_count(counts.get("succeeded", 0)), "succeeded"),
        _card(_fmt_count(counts.get("failed", 0)), "failed"),
    ]
    body.append('<div class="cards">' + "".join(cards) + "</div>")
    body.append("<h2>Recent jobs</h2>")
    if not jobs:
        body.append('<p class="muted">No jobs submitted yet.</p>')
    else:
        body.append(
            "<table><tr><th>job</th><th>state</th><th>created</th>"
            "<th>finished</th><th>links</th></tr>"
        )
        for job in jobs:
            job_id = str(job.get("id", "?"))
            state = str(job.get("state", "?"))
            links = (
                f'<a href="/jobs/{escape(job_id)}">status</a> '
                f'<a href="/jobs/{escape(job_id)}/report">report</a>'
            )
            body.append(
                f"<tr><td><code>{escape(job_id[:12])}</code></td>"
                f'<td class="state-{escape(state)}">{escape(state)}</td>'
                f"<td>{escape(str(job.get('created_at', '—')))}</td>"
                f"<td>{escape(str(job.get('finished_at') or '—'))}</td>"
                f"<td>{links}</td></tr>"
            )
        body.append("</table>")
    body.append(
        '<p class="muted">Live series on <a href="/metrics">/metrics</a>; '
        "per-job traces and timelines under <code>/jobs/&lt;id&gt;/trace</code> "
        "and <code>/jobs/&lt;id&gt;/timeline</code>.</p>"
    )
    return _page(title, body)


# ----------------------------------------------------------------------
# loading per-run artefacts
# ----------------------------------------------------------------------
#: The run directory: every file one assembly run leaves behind, named
#: once.  ``repro-assemble --run-dir DIR`` and each service job
#: directory hold the same set (see ``docs/observability.md``).
CONTIGS_FILE = "contigs.fasta"
SCAFFOLDS_FILE = "scaffolds.fasta"
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.json"
TIMELINE_FILE = "timeline.jsonl"
PROFILE_FILE = "profile.folded"
RUN_FILES = (
    CONTIGS_FILE,
    SCAFFOLDS_FILE,
    METRICS_FILE,
    TRACE_FILE,
    TIMELINE_FILE,
    PROFILE_FILE,
)


def load_run_artifacts(directory: Union[str, Path]) -> Dict[str, Any]:
    """Collect whatever report inputs exist in a run/job directory.

    Returns ``{"trace": ..., "timeline": [...], "metrics": ...}`` with
    missing or unreadable artefacts mapped to their empty value — the
    report renders what it can.
    """
    directory = Path(directory)
    out: Dict[str, Any] = {"trace": None, "timeline": [], "metrics": None}
    trace_path = directory / TRACE_FILE
    if trace_path.exists():
        try:
            out["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            pass
    timeline_path = directory / TIMELINE_FILE
    if timeline_path.exists():
        try:
            out["timeline"] = read_timeline(timeline_path)
        except OSError:
            pass
    metrics_path = directory / METRICS_FILE
    if metrics_path.exists():
        try:
            out["metrics"] = json.loads(metrics_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            pass
    return out
