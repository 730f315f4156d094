"""Run one child process at a time and report its wall time and rusage.

The benchmark starts this helper before it builds any input, while its own
memory is small.  Linux carries a parent's peak RSS into a child across
``exec``, so a child started from the (later large) benchmark process would
report the benchmark's peak instead of its own.  Started from here, each
child's ``ru_maxrss`` is its own.

Right before and right after each child it also times a fixed calibration
loop, so the benchmark can scale the child's times to a reference machine
speed.

Protocol: one JSON request per line on stdin,
``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``; one JSON reply
per line on stdout, ``{"calib_s", "wall_s", "cpu_s", "maxrss_kb", "exit",
"timed_out"}``.  The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


CALIBRATION_LOOPS = 200_000


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def run_one(req: dict) -> dict:
    before = calibrate()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=req["env"],
            cwd=req["cwd"],
        )
        # A pidfd becomes readable when the child exits, without reaping it,
        # so the kill below can never hit a recycled pid.
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], req["timeout"])
            timed_out = not ready
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = calibrate()
    return {
        "calib_s": (before + after) / 2,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": proc.returncode,
        "timed_out": timed_out,
    }


class Spawner:
    """Parent-side handle on the helper process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, env, cwd, stdout, stderr, timeout) -> dict:
        req = dict(argv=argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr, timeout=timeout)
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def main():
    for line in sys.stdin:
        reply = run_one(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
