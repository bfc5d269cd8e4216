"""Child processes: one at a time, timed, killed when they outlive a budget."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
CALL_TIMEOUT_S = 120.0


@dataclass
class ChildResult:
    exit_code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float
    timed_out: bool


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def run_child(args, timeout=CALL_TIMEOUT_S):
    """Run ``python args...`` from the repository root and wait for it.

    The wall time covers spawn to exit.  A child still running after
    ``timeout`` seconds is killed with SIGKILL, and the result says so.
    """
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        killed = []
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=child_env())

        def on_alarm(signum, frame):
            try:
                os.kill(proc.pid, signal.SIGKILL)
                killed.append(True)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            seconds,
            usage.ru_maxrss / 1024.0,
            bool(killed),
        )
