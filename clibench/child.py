"""Run one child interpreter to completion and measure it."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
import time

CLI = (sys.executable, "-m", "coopbasis.cli")
IMPORT_ONLY = (sys.executable, "-c", "import coopbasis.cli")


@dataclasses.dataclass(frozen=True)
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    """The environment of every child: the package from ./src, no budget override."""
    env = {k: v for k, v in os.environ.items() if k != "COOPBASIS_BUDGET"}
    env["PYTHONPATH"] = "src"
    return env


def run_child(argv: tuple[str, ...], timeout: float) -> ChildResult:
    """Start ``argv``, wait for it, and return its output, wall time and peak RSS.

    The child is reaped with ``os.wait4`` so that its own ``ru_maxrss`` is read;
    a child still running after ``timeout`` seconds is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    timer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(proc.returncode, out, errors[0] if errors else b"", seconds,
                       usage.ru_maxrss / 1024, killed.is_set())
