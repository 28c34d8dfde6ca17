"""Run one child process to exit, with a time limit.

    python3 bench/launch.py TIMEOUT_S ARGV...

As a script it runs ARGV and prints one JSON object: [seconds, exit code,
peak RSS in KiB, stdout, stderr].  The benchmark starts CLI commands
through this small process because a child's peak RSS counts the pages of
the process that forked it, and the benchmark process itself holds the
oracles and the item pool.  ``run.py`` starts every other child with
``run_child`` directly.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv: list[str], timeout: float, ready_line: bool = False, **popen):
    """Run ``argv`` to exit; kill it if it still runs after ``timeout`` s.

    Returns (seconds from spawn to its first stdout line if ``ready_line``,
    else to exit; exit code; stdout; stderr; peak RSS in KiB).  Children
    write little to stderr, so it is read after stdout.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, **popen) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.readline() if ready_line else ""
            ready = time.perf_counter()
            out += proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            done = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return (ready if ready_line else done) - start, proc.returncode, out, err, usage.ru_maxrss


def main() -> None:
    wall, code, out, err, rss_kib = run_child(sys.argv[2:], float(sys.argv[1]))
    print(json.dumps([wall, code, rss_kib, out, err]))


if __name__ == "__main__":
    main()
