"""Start the benchmark's child processes from a small interpreter.

Linux carries the resident set of the process that spawns a child into the
child's ru_maxrss, and the runner (run.py) holds numpy, sympy and the
oracle tables.  Spawned from here instead, each child's peak RSS is its
own: this process stays near 10 MB, below any partgrowth invocation.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "env": {...}, "out": PATH, "err": PATH}
and one JSON reply per line on stdout,
    {"status": int, "wall": s, "cpu": s, "rss_mb": MiB}.
The child's stdout and stderr go to the two files.  SIGTERM kills the
running child, reaps it and exits.
"""

import json
import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class Stop(Exception):
    pass


def _stop(signum, frame):
    raise Stop


def run(request):
    actions = [(os.POSIX_SPAWN_OPEN, 1, request["out"], FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["err"], FLAGS, 0o644)]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except Stop:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return {"status": os.waitstatus_to_exitcode(status),
            "wall": time.perf_counter() - start,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    signal.signal(signal.SIGTERM, _stop)
    try:
        for line in sys.stdin:
            print(json.dumps(run(json.loads(line))), flush=True)
    except Stop:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
