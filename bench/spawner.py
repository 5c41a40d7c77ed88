"""Start the benchmark's child processes and report what each cost.

A process started by fork or vfork inherits its parent's peak RSS, so a
child started by the benchmark itself would report the benchmark's own peak
(input generation, output checks) as its ``ru_maxrss``. This small process
starts every child instead. It reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``, runs the child to
completion and answers with one JSON line: wall seconds, exit code, CPU
seconds and peak RSS in KiB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "seconds": wall,
            "exit_code": child.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
