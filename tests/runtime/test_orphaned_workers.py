"""Worker processes exit when their master dies without stopping them.

A master that ``os._exit``s or is SIGKILLed never sends the stop
command, so a worker blocked on its queues must notice on its own that
it was orphaned.  The helper below runs a two-worker job whose vertices
sleep, writes its worker pids to a file and ``os._exit``s mid-job; the
test then gives both workers five seconds to be gone.  Three processes
in all: the helper and its two workers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro

_HELPER = textwrap.dedent(
    """
    import multiprocessing
    import os
    import sys
    import threading
    import time

    from repro.pregel import PregelEngine, PregelJob, Vertex


    class SleepyVertex(Vertex):
        def compute(self, messages, ctx):
            time.sleep(0.05)
            for neighbor in self.edges:
                ctx.send(neighbor, ctx.superstep)


    def die_mid_job(pid_file):
        while len(multiprocessing.active_children()) < 2:
            time.sleep(0.05)
        pids = [process.pid for process in multiprocessing.active_children()]
        with open(pid_file + ".tmp", "w") as handle:
            handle.write(" ".join(map(str, pids)))
        os.replace(pid_file + ".tmp", pid_file)
        time.sleep(0.5)
        os._exit(0)


    threading.Thread(target=die_mid_job, args=(sys.argv[1],), daemon=True).start()
    vertices = [SleepyVertex(index, edges=[(index + 1) % 4]) for index in range(4)]
    job = PregelJob(name="sleepy", vertices=vertices, max_supersteps=200)
    PregelEngine(num_workers=2, backend="multiprocess").run(job)
    os._exit(3)  # the job must not finish before the master dies
    """
)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    # The state follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_when_their_master_dies(tmp_path):
    pid_file = tmp_path / "worker_pids"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    helper = subprocess.run(
        [sys.executable, "-c", _HELPER, str(pid_file)], env=env, timeout=60
    )
    assert helper.returncode == 0
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2

    deadline = time.monotonic() + 5.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid in pids if _running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"orphaned workers {survivors} outlived their master"
