"""A multiprocess job may not ask for more worker processes than the cap.

Every surface that accepts a worker count — ``RuntimeOptions``,
``AssemblyConfig``, a service ``JobSpec`` and the one-shot CLI — must
reject a multiprocess ``num_workers`` above
:data:`~repro.runtime.base.MAX_PROCESS_WORKERS` while validating, before
any worker process exists.  Every test here fails the run if a worker
session is ever launched.
"""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig
from repro.cli import main
from repro.errors import InvalidJobError, InvalidJobSpecError, PipelineConfigError
from repro.runtime import RuntimeOptions
from repro.runtime.base import MAX_PROCESS_WORKERS
from repro.runtime.multiprocess import _MultiprocessSession
from repro.service.spec import JobSpec

TOO_MANY = 100_000
MESSAGE = f"num_workers must be at most {MAX_PROCESS_WORKERS} on the multiprocess backend"


@pytest.fixture(autouse=True)
def no_worker_launch(monkeypatch):
    def launch(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(_MultiprocessSession, "launch", launch)


def test_runtime_options_cap_process_workers_only():
    at_cap = RuntimeOptions(backend="multiprocess", num_workers=MAX_PROCESS_WORKERS)
    assert at_cap.num_workers == MAX_PROCESS_WORKERS
    for count in (MAX_PROCESS_WORKERS + 1, TOO_MANY):
        with pytest.raises(InvalidJobError, match=MESSAGE):
            RuntimeOptions(backend="multiprocess", num_workers=count)
    # Serial worker slots are simulated, not processes.
    assert RuntimeOptions(backend="serial", num_workers=TOO_MANY).num_workers == TOO_MANY


def test_assembly_config_rejects_too_many_processes():
    with pytest.raises(PipelineConfigError, match=MESSAGE):
        AssemblyConfig(k=15, backend="multiprocess", num_workers=TOO_MANY)
    assert AssemblyConfig(k=15, num_workers=TOO_MANY).num_workers == TOO_MANY


def test_job_spec_rejects_too_many_processes():
    with pytest.raises(InvalidJobSpecError, match=MESSAGE):
        JobSpec.from_dict(
            {
                "input": {"mode": "simulate", "genome_length": 2000},
                "config": {"backend": "multiprocess", "num_workers": TOO_MANY},
            }
        )


def test_cli_rejects_too_many_processes_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([
            "--simulate", "2000", "-k", "15", "--backend", "multiprocess",
            "--workers", str(TOO_MANY), "--quiet",
        ])
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert MESSAGE in errors[0]
