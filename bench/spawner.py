"""Runs child processes on request; reports each one's wall time and rusage.

The harness starts this process while it is still small and sends every
command through it. On Linux a child started by ``posix_spawn`` begins in
its parent's address space, and that space's peak RSS is carried into the
child's ``ru_maxrss`` at exec. Spawned straight from the harness, which
holds the generated corpus, every child would report at least the
harness's size; spawned from here, a child reports its own.

Children run with this process's environment. Protocol, one JSON object
per line: request ``{"argv": [...], "cwd": dir, "stdout": path, "stderr":
path}``, reply ``{"wall": s, "status": code, "cpu": s, "maxrss_kb": n}``.
The process ends when its stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        os.chdir(req["cwd"])
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
            _, wait_status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        reply = {
            "wall": wall,
            "status": os.waitstatus_to_exitcode(wait_status),
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
