"""Reference figures measured outside the workloads.

    python3 bench/figures.py

Run from the root of a polysat source tree.  Prints, one line each: the
start-up of a bare `python -c pass` and of `polysat --help`, the
`dk-table` of the tower P_8, `dk-table` of three random posets with
n = 40 (edge probability 0.3), and ten timings of the reference loop of
run.py to show how the machine's speed drifts.  A command that runs past
TIMEOUT_S seconds is stopped and reported as such.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads
from reference import RefPoset

TIMEOUT_S = 150


def timed(cmd, env, timeout):
    """Wall seconds of one command, or None if it ran past timeout."""
    start = time.perf_counter()
    try:
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - start


def main():
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    from polysat import construct, io, poset

    env = dict(os.environ, PYTHONPATH=str(src), POLYSAT_THREADS="1")
    cli = [sys.executable, "-m", "polysat.cli"]
    bare = statistics.median(timed([sys.executable, "-c", "pass"], env, 60) for _ in range(5))
    helps = statistics.median(timed(cli + ["--help"], env, 60) for _ in range(5))
    print(f"start-up: python -c pass {bare:.3f} s, polysat --help {helps:.3f} s (medians of 5)")
    out_dir = Path("bench") / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        cases = [("P_8", construct.build_pj(8)[0])]
        rng = random.Random("figures")
        for i in range(3):
            up = workloads.random_rows(rng, 40, 0.3)
            ref = RefPoset.from_rows(up)
            cases.append((f"random n=40 #{i} (height {ref.height}, width {ref.width})",
                          poset.Poset(40, up)))
        for label, p in cases:
            path = Path(tmp) / "p.json"
            path.write_text(io.dumps(p))
            wall = timed(cli + ["dk-table", str(path), "--csv"], env, TIMEOUT_S)
            shown = f"> {TIMEOUT_S} s (stopped)" if wall is None else f"{wall:.3f} s"
            print(f"dk-table {label}: {shown}", flush=True)
    loops = [run.reference_loop_s() for _ in range(10)]
    print("reference loop: " + " ".join(f"{x:.4f}" for x in loops)
          + f" s (min {min(loops):.4f}, max {max(loops):.4f})")


if __name__ == "__main__":
    main()
