"""A service job killed mid-assembly recovers and strands no ``/dev/shm`` segment.

Multiprocess batches travel through the worker queues, so a run never
creates an arena segment; a SIGKILLed Pregel master in particular must
leave none behind for a later sweep to find.
"""

from __future__ import annotations

import glob
import json
import time

from repro.service import AssemblyService, JobSpec


def _arena_segments() -> set:
    return set(glob.glob("/dev/shm/psm_repro_*"))


def test_service_kill_worker_recovery_leaves_no_segments(tmp_path, monkeypatch):
    """SIGKILL the service worker mid-assembly on the multiprocess backend.

    The service worker process is the Pregel *master* of the
    multiprocess backend it runs.  The supervisor must reclaim the job
    and the retry must succeed, with ``message_plane="shm"`` still
    accepted in the config and no segment left under ``/dev/shm``.
    """
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([{"kind": "kill_worker", "stage": 2, "attempts": [1]}]),
    )
    service = AssemblyService(
        tmp_path / "shm-chaos",
        num_workers=1,
        port=0,
        poll_interval=0.05,
        lease_seconds=0.6,
        reap_interval=0.1,
        drain_timeout=10.0,
    )
    service.start()
    try:
        record = service.submit(
            JobSpec(
                input={"mode": "simulate", "genome_length": 12_000, "seed": 29},
                config={
                    "k": 17,
                    "backend": "multiprocess",
                    "num_workers": 2,
                    "message_plane": "shm",
                },
                retry={"max_attempts": 3, "backoff_seconds": 0.05},
            )
        )
        deadline = time.monotonic() + 240.0
        while time.monotonic() < deadline:
            current = service.store.get(record.id)
            if current.is_terminal:
                break
            time.sleep(0.05)
        events = [event.type for event in service.store.events(record.id)]
        assert current.state == "succeeded", events
        assert "recovered" in events
    finally:
        service.stop(wait=True)
    assert _arena_segments() == set()
