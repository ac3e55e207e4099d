"""Host control and process hygiene: pinned thread pools, the host
fingerprint, CLI workers on ephemeral ports with a SIGTERM drain that
must exit 0, and a leftover-process check.

Imports nothing heavy: ``run.py`` applies :data:`THREAD_ENV` from here
before numpy loads its BLAS.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import time
from typing import List, Tuple

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: BLAS/OpenMP pools are pinned to one thread in the runner and every
#: subprocess, so four processes on two cores measure the program and
#: not the scheduler.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(seed: int) -> dict:
    """What a result file records about the host it was taken on."""
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "git_commit": git_commit(),
    }


READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


class Fleet:
    """The ``repro`` CLI processes one set-up started."""

    def __init__(self, log_dir: str) -> None:
        self.log_dir = log_dir
        self.procs: List[Tuple[str, subprocess.Popen, str]] = []

    def spawn(self, name: str, args: List[str]) -> str:
        """Start ``python -m repro.cli <args>``; returns its log path
        (stdout + stderr, where the gateway prints its address)."""
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log_path = os.path.join(self.log_dir, f"{name}.log")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=REPO_ROOT,
                env=env,
            )
        self.procs.append((name, proc, log_path))
        return log_path

    def await_address(self, name: str, path: str, marker: str) -> str:
        """Poll ``path`` (a ready file or a log) for ``marker HOST:PORT``."""
        proc = next(p for n, p, _ in self.procs if n == name)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if os.path.exists(path):
                with open(path) as handle:
                    for line in handle:
                        if marker in line:
                            return line.strip().rsplit(" ", 1)[-1]
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"{name} never reported {marker!r} "
            f"(exit code {proc.poll()}); see {path}"
        )

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the live processes."""
        total_kb = 0
        for _, proc, _ in self.procs:
            with open(f"/proc/{proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def terminate(self) -> List[str]:
        """SIGTERM in reverse start order (the gateway holds
        connections to the workers) and wait for each; returns the
        names that did not drain to exit code 0."""
        bad = []
        for name, proc, _ in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            if code != 0:
                bad.append(f"{name} exited {code}")
        self.procs = []
        return bad


def leftover_children() -> List[int]:
    """Pids whose parent is this process — must be empty at exit."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # raced with the process exiting
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found
