"""Starts polysat commands for run.py and reports their wall time and peak RSS.

Linux carries the peak RSS of a process into each child it spawns, so a
command started straight from run.py, which holds networkx and the
reference data, would report run.py's peak instead of its own.  run.py
starts this small process before it imports anything large, and has it
start every command.

Protocol: one JSON request per stdin line,
    {"argv": [...], "cwd": dir, "stdin": file or null, "stdout": file}
answered by one JSON line
    {"wall": seconds, "rss_mb": peak RSS in MB, "code": exit code}.
The process ends when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(req):
    with open(req["stdout"], "wb") as out:
        fin = open(req["stdin"], "rb") if req["stdin"] else None
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"],
                stdin=fin or subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.DEVNULL,
                cwd=req["cwd"],
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if fin:
                fin.close()
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
