"""REST API round trips: everything a client can reach over HTTP.

Runs a real :class:`AssemblyService` on a loopback port and talks to it
exclusively through :class:`~repro.service.client.ServiceClient`, so the
wire format, the status codes, and the client's decoding are all under
test at once.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.errors import ServiceClientError
from repro.service import JobSpec, ServiceClient

def make_spec(genome_length: int = 2_000, seed: int = 1, k: int = 15, **config) -> JobSpec:
    merged = {"k": k, "num_workers": 2}
    merged.update(config)
    return JobSpec(
        input={"mode": "simulate", "genome_length": genome_length, "seed": seed},
        config=merged,
    )


@pytest.fixture()
def client(service) -> ServiceClient:
    return ServiceClient(service.base_url)


def test_health_endpoint(client, service):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert health["lease_seconds"] == service.store.lease_seconds
    assert len(health["worker_pids"]) == 2
    assert set(health["counts"]) == {
        "queued", "running", "succeeded", "failed", "cancelled", "poisoned",
    }


def test_submit_poll_result_fetch_cycle(client, tiny_spec):
    job = client.submit(tiny_spec)
    assert job["state"] in ("queued", "running")

    status = client.wait(job["id"], timeout=120)
    assert status["job"]["state"] == "succeeded"
    progress = status["progress"]
    assert progress["completed_stages"] == progress["total_stages"]
    assert progress["current_stage"] is None

    result = client.result(job["id"])
    assert result["job_id"] == job["id"]
    assert result["contigs"]["count"] >= 1
    assert result["schema_version"] == 1

    fasta = client.contigs_fasta(job["id"])
    assert fasta.startswith(">contig_0")


def test_wait_streams_every_event_exactly_once(client, tiny_spec):
    job = client.submit(tiny_spec)
    seen = []
    client.wait(job["id"], timeout=120, on_event=seen.append)
    seqs = [event["seq"] for event in seen]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))
    types = [event["type"] for event in seen]
    assert types[0] == "submitted"
    assert types[-1] == "succeeded"
    assert "stage-start" in types and "stage-end" in types and "checkpoint" in types


def test_idempotent_submission_over_http(client, tiny_spec):
    first = client.submit(tiny_spec, idempotency_key="http-once")
    second = client.submit(tiny_spec, idempotency_key="http-once")
    assert second["id"] == first["id"]


def test_bare_spec_body_is_accepted(service, tiny_spec):
    # The curl quickstart posts the spec without an envelope.
    body = json.dumps(tiny_spec.to_dict()).encode()
    request = urllib.request.Request(
        service.base_url + "/jobs",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 201
        payload = json.loads(response.read())
    assert payload["created"] is True
    assert payload["job"]["state"] in ("queued", "running")


def test_listing_and_state_filter(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)
    everything = client.list_jobs()
    assert any(entry["id"] == job["id"] for entry in everything)
    succeeded = client.list_jobs(state="succeeded")
    assert any(entry["id"] == job["id"] for entry in succeeded)
    assert client.list_jobs(state="failed") == []


def test_cancel_over_http(client):
    # Enough work that cancellation lands while the job is alive.
    slow = make_spec(genome_length=30_000, seed=6, k=17)
    job = client.submit(slow)
    cancelled = client.cancel(job["id"])
    assert cancelled["state"] in ("cancelled", "running")
    final = client.wait(job["id"], timeout=120)
    assert final["job"]["state"] == "cancelled"


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.status("0" * 32)
    assert excinfo.value.status == 404


def test_result_of_unfinished_job_is_409(client):
    job = client.submit(make_spec(genome_length=30_000, seed=7, k=17))
    with pytest.raises(ServiceClientError) as excinfo:
        client.result(job["id"])
    assert excinfo.value.status == 409
    client.cancel(job["id"])
    client.wait(job["id"], timeout=120)


def test_scaffolds_of_unscaffolded_job_is_409(client, tiny_spec):
    job = client.submit(tiny_spec)
    client.wait(job["id"], timeout=120)
    with pytest.raises(ServiceClientError) as excinfo:
        client.scaffolds_fasta(job["id"])
    assert excinfo.value.status == 409


def test_invalid_spec_is_400(client):
    bad = JobSpec.__new__(JobSpec)  # bypass validation client-side
    bad.input = {"mode": "simulate", "genome_length": 1000}
    bad.config = {"k": 16}  # even k is rejected by AssemblyConfig
    bad.min_contig = 0
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(bad)
    assert excinfo.value.status == 400
    assert "odd" in str(excinfo.value)


def test_bad_state_filter_is_400(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.list_jobs(state="bogus")
    assert excinfo.value.status == 400


def test_scaffold_without_pairing_input_is_rejected(client):
    spec = JobSpec.__new__(JobSpec)
    spec.input = {"mode": "inline", "reads": [["r0", "ACGTACGTACGT"]]}
    spec.config = {"k": 15, "scaffold": True}
    spec.min_contig = 0
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(spec)
    assert excinfo.value.status == 400
    assert "pairing" in str(excinfo.value)


def test_job_progress_counts_branch_stages_once():
    # Job stores written while the scaffolding stage nested an inner
    # stage hold two stage-ends for one schedule index; progress must
    # not overshoot the total.
    from repro.service.api import job_progress
    from repro.service.store import JobEvent

    def event(seq, type, **payload):
        return JobEvent(job_id="j", seq=seq, created_at=0.0, type=type, payload=payload)

    events = [
        event(1, "submitted"),
        event(2, "started"),
        event(3, "stage-start", stage="dbg-construction", index=0, total=2),
        event(4, "stage-end", stage="dbg-construction", index=0, total=2),
        event(5, "stage-start", stage="scaffolding", index=1, total=2),
        event(6, "stage-start", stage="scaffolding/paired-end", index=1, total=2),
        event(7, "stage-end", stage="scaffolding/paired-end", index=1, total=2),
        event(8, "stage-end", stage="scaffolding", index=1, total=2),
        event(9, "succeeded"),
    ]
    progress = job_progress(events)
    assert progress == {
        "completed_stages": 2,
        "total_stages": 2,
        "current_stage": None,
    }


def test_malformed_simulate_spec_is_rejected_at_submit(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request(
            "POST", "/jobs", payload={"input": {"mode": "simulate"}, "config": {}}
        )
    assert excinfo.value.status == 400
    assert "genome_length" in str(excinfo.value)


def test_keepalive_connection_survives_post_with_unread_body(service, tiny_spec):
    # Routes that ignore the request body (cancel) must still drain it:
    # with HTTP/1.1 keep-alive, leftover bytes would be parsed as the
    # next request line on the same connection.
    import socket

    job = service.submit(tiny_spec)
    body = b'{"ignored": true}'
    cancel = (
        f"POST /jobs/{job.id}/cancel HTTP/1.1\r\n"
        f"Host: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    health = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"

    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(cancel)
        first = b""
        while b"\r\n\r\n" not in first:
            first += sock.recv(4096)
        assert first.startswith(b"HTTP/1.1 200"), first.splitlines()[0]
        sock.sendall(health)
        rest = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            rest += chunk
    assert b"HTTP/1.1 200" in rest, rest.splitlines()[:1]
    assert b'"status"' in rest


def test_unknown_route_is_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_inline_reads_round_trip(client):
    # Inline mode needs no shared filesystem: embed reads, get contigs.
    from repro.dna import simulate_dataset

    _genome, reads = simulate_dataset(genome_length=2_000, seed=11)
    spec = JobSpec(
        input={
            "mode": "inline",
            "reads": [[read.name, read.sequence] for read in reads],
        },
        config={"k": 15, "num_workers": 2},
    )
    job = client.submit(spec)
    final = client.wait(job["id"], timeout=120)
    assert final["job"]["state"] == "succeeded"
    assert client.result(job["id"])["contigs"]["count"] >= 1
