"""The service's headline guarantee: ``kill -9`` loses no work.

A real server process is started with ``repro-assemble serve``, given a
job big enough to span many checkpointed stages, and SIGKILLed
mid-assembly.  A second server over the same data directory must
re-enqueue the interrupted job, resume it from its surviving
checkpoints, and deliver contigs *byte-identical* to an uninterrupted
in-process run of the same spec — on both execution backends.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import pytest

from repro.assembler import PPAAssembler
from repro.service import JobSpec, ServiceClient

GENOME_LENGTH = 24_000
SEED = 13
K = 17


def _spec(backend: str) -> JobSpec:
    return JobSpec(
        input={"mode": "simulate", "genome_length": GENOME_LENGTH, "seed": SEED},
        config={"k": K, "num_workers": 2, "backend": backend},
    )


def _start_server(data_dir):
    """Start ``repro-assemble serve``; returns ``(process, base_url)``."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", str(data_dir), "--port", "0", "--workers", "1",
            "--poll-interval", "0.05",
            # Short lease, as in scripts/service_smoke.sh: the killed
            # server's worker process notices it is orphaned at its next
            # heartbeat tick (lease/3).  With the 15 s default it computes
            # on for up to 5 s, long enough to finish this job on attempt 1
            # and leave the restarted server nothing to recover.
            "--lease-seconds", "2", "--reap-interval", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=os.environ.copy(),
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            url = next(
                token for token in line.split() if token.startswith("http://")
            )
            return process, url
        if process.poll() is not None:
            break
        time.sleep(0.01)
    process.kill()
    raise AssertionError("server did not come up")


def _wait_for_checkpoint(client: ServiceClient, job_id: str) -> None:
    """Block until the job has checkpointed at least one stage."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        events = client.events(job_id)
        if any(event["type"] == "checkpoint" for event in events):
            return
        state = client.status(job_id)["job"]["state"]
        assert state in ("queued", "running"), (
            f"job reached {state} before it could be killed mid-assembly"
        )
        time.sleep(0.02)
    raise AssertionError("job never wrote a checkpoint")


@pytest.fixture(scope="module")
def uninterrupted_contigs() -> str:
    """Reference FASTA text from a direct, uninterrupted run."""
    spec = _spec("serial")
    material = spec.materialize()
    result = PPAAssembler(spec.assembly_config()).assemble(material.reads)
    import io

    from repro.dna.io_fastq import FastaRecord, write_fasta

    buffer = io.StringIO()
    records = [
        FastaRecord(name=f"contig_{index}_len_{len(sequence)}", sequence=sequence)
        for index, sequence in enumerate(result.contigs)
    ]
    write_fasta(records, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_kill_dash_nine_then_restart_completes_bit_identically(
    backend, tmp_path, uninterrupted_contigs
):
    data_dir = tmp_path / "data"
    process, url = _start_server(data_dir)
    job_id = None
    try:
        client = ServiceClient(url)
        job = client.submit(_spec(backend))
        job_id = job["id"]
        _wait_for_checkpoint(client, job_id)
    finally:
        # SIGKILL, not terminate: no cleanup handlers, no flushing —
        # the exact failure mode the checkpoints exist for.
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    assert job_id is not None

    process, url = _start_server(data_dir)
    try:
        client = ServiceClient(url)
        final = client.wait(job_id, timeout=300)
        assert final["job"]["state"] == "succeeded"
        assert final["job"]["attempts"] == 2

        types = [event["type"] for event in client.events(job_id)]
        assert "recovered" in types
        # The resumed attempt skipped the checkpointed prefix instead
        # of recomputing it.
        assert "stage-skipped" in types

        assert client.contigs_fasta(job_id) == uninterrupted_contigs

        metrics = client.result(job_id)
        assert metrics["contigs"]["count"] >= 1
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)


def test_restart_with_idle_store_recovers_nothing(tmp_path):
    # A clean shutdown leaves no running jobs; restart must not invent
    # recoveries.  Uses the in-process service for speed.
    from repro.service import AssemblyService

    data_dir = tmp_path / "data"
    first = AssemblyService(data_dir, num_workers=1, port=0, poll_interval=0.05)
    first.start()
    try:
        record = first.submit(_spec("serial"))
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if first.store.get(record.id).is_terminal:
                break
            time.sleep(0.05)
        assert first.store.get(record.id).state == "succeeded"
    finally:
        first.stop()

    second = AssemblyService(data_dir, num_workers=1, port=0, poll_interval=0.05)
    assert second.store.reap_expired(reason="service-restart") == []
    second.store.close()
