"""The service's observability endpoints: ``/metrics``, ``/jobs/<id>/trace``,
``/jobs/<id>/timeline``, ``/jobs/<id>/report`` and ``/dashboard``.

Scrapes a live service over HTTP (the same path a Prometheus collector
takes), checks the exposition text is well-formed and carries the core
series, walks a finished job's span tree and run timeline, and parses
the HTML surfaces (report, dashboard) for well-formedness.
"""

from __future__ import annotations

import re
import time
import xml.etree.ElementTree as ET
from urllib import request

import pytest

from repro.errors import ServiceClientError
from repro.service.api import PROMETHEUS_CONTENT_TYPE
from repro.service.client import ServiceClient

#: One sample line: ``name{labels} value`` with a finite or int value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$|"
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$"
)


@pytest.fixture()
def client(service) -> ServiceClient:
    return ServiceClient(service.base_url)


def _assert_well_formed(text: str) -> None:
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"


def test_metrics_endpoint_scrapes_before_any_job(service, client):
    response = request.urlopen(service.base_url + "/metrics", timeout=10)
    assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    text = response.read().decode("utf-8")
    _assert_well_formed(text)
    # Queue gauges sample the store at scrape time, so they exist (as
    # zero) before any job does; the scrape itself is the first HTTP
    # request metric.
    assert "repro_jobs_queued 0" in text
    assert "repro_jobs_running 0" in text
    # A request's own metrics land after its response is written, so
    # the *second* scrape sees the first one.
    text = client.metrics_text()
    assert "# TYPE repro_http_request_seconds histogram" in text
    assert 'repro_http_requests_total{method="GET",route="/metrics",status="200"} 1' in text


def test_metrics_carry_core_series_after_a_job(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)
    client.status(job["id"])  # one labeled /jobs/<id> request

    needles = (
        "# TYPE repro_pregel_messages_total counter",
        'repro_pregel_messages_total{job="',
        'repro_pregel_worker_messages_total{job="',
        "# TYPE repro_pregel_superstep_seconds histogram",
        "# TYPE repro_claim_latency_seconds histogram",
        "repro_claim_latency_seconds_count 1",
        "repro_jobs_submitted_total 1",
        'repro_jobs_completed_total{state="succeeded"} 1',
        'repro_workflow_stage_seconds_count{stage="',
        "# TYPE repro_checkpoint_write_seconds histogram",
        'repro_http_requests_total{method="GET",route="/jobs/<id>",status="200"}',
        'repro_http_request_seconds_bucket{method="POST",route="/jobs",le="+Inf"} 1',
    )
    # The worker process spools its run's metric deltas only after the
    # job's terminal write commits, so the first scrape after wait()
    # can precede them; re-scrape until they land.
    deadline = time.monotonic() + 10.0
    while True:
        text = client.metrics_text()
        if all(needle in text for needle in needles) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    _assert_well_formed(text)
    for needle in needles:
        assert needle in text, f"missing from /metrics: {needle}"


def test_unknown_routes_share_one_bounded_metric_label(service, client):
    for path in ("/nope", "/jobs/feedfacefeedfacefeedfacefeedface/nope"):
        with pytest.raises(ServiceClientError):
            client._request("GET", path)
    # A request's metrics land after its response is written, so a fast
    # scrape can beat the bookkeeping of the requests above — re-scrape
    # briefly until both route labels have landed.
    deadline = time.monotonic() + 10.0
    while True:
        text = client.metrics_text()
        if (
            'route="<other>"' in text
            and 'route="/jobs/<id><other>"' in text
        ) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    assert 'route="<other>"' in text
    assert 'route="/jobs/<id><other>"' in text
    assert "/nope" not in text


def test_trace_endpoint_returns_nested_span_tree(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)

    payload = client.trace(job["id"])
    assert set(payload) == {"generated_at", "trace"}
    root = payload["trace"]
    assert root["name"] == f"job:{job['id']}"
    assert root["attributes"]["outcome"] == "succeeded"
    assert root["status"] == "ok"

    (workflow,) = root["children"]
    assert workflow["name"] == "workflow:ppa-assembly"
    stage_names = [child["name"] for child in workflow["children"]]
    assert all(name.startswith("stage:") for name in stage_names)
    assert "stage:dbg-construction" in stage_names

    # Down the tree: stages hold pregel jobs hold supersteps hold workers.
    labeling = next(
        child for child in workflow["children"]
        if child["name"] == "stage:contig-labeling/kmers"
    )
    pregel = labeling["children"][0]
    assert pregel["name"].startswith("pregel:")
    superstep = pregel["children"][0]
    assert superstep["name"] == "superstep-0"
    assert superstep["attributes"]["messages_sent"] >= 0
    workers = [child["name"] for child in superstep["children"]]
    assert workers == ["worker-0", "worker-1"]  # tiny_spec: num_workers=2

    # One trace id everywhere.
    def walk(node):
        assert node["trace_id"] == root["trace_id"]
        for child in node["children"]:
            walk(child)

    walk(root)


def test_trace_of_unknown_job_is_404(client):
    with pytest.raises(ServiceClientError) as info:
        client.trace("0" * 32)
    assert info.value.status == 404


def test_trace_before_finish_is_409(service, client, tiny_spec):
    # Park the pool so the submitted job stays queued deterministically.
    service.pool.stop(wait=True)
    job = client.submit(tiny_spec)
    with pytest.raises(ServiceClientError) as info:
        client.trace(job["id"])
    assert info.value.status == 409
    assert "no trace yet" in str(info.value)


def test_timeline_endpoint_returns_merged_run_timeline(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)

    payload = client.timeline(job["id"])
    assert payload["job_id"] == job["id"]
    events = payload["events"]
    kinds = {event["kind"] for event in events}
    assert {"superstep", "stage-start", "stage-end", "sample"} <= kinds

    supersteps = [e for e in events if e["kind"] == "superstep"]
    assert supersteps
    for event in supersteps:
        assert event["messages_sent"] >= 0
        assert event["active_vertices"] >= 0
        assert "ledger_peak_bytes" in event
    # Ordered by timestamp (the file is written sorted).
    timestamps = [event["ts"] for event in events]
    assert timestamps == sorted(timestamps)


def test_timeline_error_contract(service, client, tiny_spec):
    with pytest.raises(ServiceClientError) as info:
        client.timeline("0" * 32)
    assert info.value.status == 404

    service.pool.stop(wait=True)
    job = client.submit(tiny_spec)
    with pytest.raises(ServiceClientError) as info:
        client.timeline(job["id"])
    assert info.value.status == 409
    assert "no timeline yet" in str(info.value)


def test_result_payload_carries_memory_block(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)
    result = client.result(job["id"])
    memory = result["memory"]
    assert memory["peak_rss_bytes"] > 0
    assert memory["spill_events_total"] >= 0
    assert memory["memory_budget_mb"] is None  # tiny_spec sets no budget


def test_report_endpoint_renders_wellformed_html(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)

    html = client.report_html(job["id"])
    root = ET.fromstring(html)  # no DOCTYPE, void tags closed: XML-parseable
    assert root.tag == "html"
    assert "Span waterfall" in html
    assert "Resident set size" in html
    assert job["id"][:12] in html


def test_report_error_contract(service, client, tiny_spec):
    with pytest.raises(ServiceClientError) as info:
        client.report_html("0" * 32)
    assert info.value.status == 404

    service.pool.stop(wait=True)
    job = client.submit(tiny_spec)
    with pytest.raises(ServiceClientError) as info:
        client.report_html(job["id"])
    assert info.value.status == 409
    assert "no artifacts" in str(info.value)


def test_dashboard_lists_recent_jobs(client, tiny_spec):
    # The dashboard renders before any job exists...
    empty = client.dashboard_html()
    ET.fromstring(empty)
    assert "No jobs submitted yet" in empty

    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)
    html = client.dashboard_html()
    ET.fromstring(html)
    assert job["id"][:12] in html
    assert f'href="/jobs/{job["id"]}/report"' in html
    assert "succeeded" in html


def test_cli_run_dir_and_service_job_dir_hold_the_same_files(
    service, client, tmp_path, capsys
):
    # The one-shot CLI and a service worker run one function into one
    # layout: same file names, byte-identical contigs, metrics with the
    # same keys (the service adds the job id), and the offline report
    # renders from the CLI's directory as it does from a job's.
    import json

    from repro.cli import build_parser, main, spec_from_args

    argv = ["--simulate", "1500", "-k", "15", "--workers", "2"]
    run_dir = tmp_path / "run"
    assert main([*argv, "--quiet", "--run-dir", str(run_dir)]) == 0
    job = client.submit(spec_from_args(build_parser().parse_args(argv)))
    assert client.wait(job["id"], timeout=120)["job"]["state"] == "succeeded"
    job_dir = service.pool.job_dir(job["id"])

    def files(directory):
        return sorted(path.name for path in directory.iterdir() if path.is_file())

    assert files(run_dir) == files(job_dir) == [
        "contigs.fasta", "metrics.json", "timeline.jsonl", "trace.json",
    ]
    assert (run_dir / "contigs.fasta").read_bytes() == (
        job_dir / "contigs.fasta"
    ).read_bytes()
    cli_metrics = json.loads((run_dir / "metrics.json").read_text())
    job_metrics = json.loads((job_dir / "metrics.json").read_text())
    assert set(job_metrics) - set(cli_metrics) == {"job_id"}
    assert set(cli_metrics) <= set(job_metrics)

    output = tmp_path / "report.html"
    capsys.readouterr()
    assert main(["report", str(run_dir), "-o", str(output)]) == 0
    html = output.read_text()
    ET.fromstring(html)
    assert "Span waterfall" in html
    assert "Resident set size" in html
