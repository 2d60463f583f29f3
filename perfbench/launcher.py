"""Small helper process that starts the benchmark's subprocesses and times them.

A child's peak RSS (``ru_maxrss`` from ``wait4``) starts from the memory of
the process that forked it, so children are started from this process,
which stays small, rather than from ``run.py``, which grows
while it parses large outputs.

Protocol: one JSON request per line on stdin, ``{"argv", "stdout",
"stderr", "timeout"}``; one JSON reply per line on stdout, ``{"wall_s",
"rss_kb", "code"}``.  End of input ends the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
