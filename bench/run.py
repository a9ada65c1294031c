"""Benchmark of the polysat CLI as users run it.

    python3 bench/run.py --workload dseq-tall --seed 1 --seconds 40 --trace 0

Run from the root of a polysat source tree.  With --trace 0 every
operation is one `python -m polysat.cli ...` process, started after the
previous one ends (a closed loop with one client).  Whole passes over the
workload repeat while another one fits in --seconds.  With --trace 1 the same
operations run in this process, alternating untraced and traced passes,
and the result holds per-module self times and call counts.  Every
output is checked against the computations in reference.py.  The last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# setup_s times the build of the SETUP_SEED plan for every --seed: the
# inputs' sizes vary with the seed, and so would the time to build them.
SETUP_SEED = 0
SETUP_REPS = 5
SETUP_MIN_S = 1.0
STARTUP_REPS = 5
RESULT_DIR = Path("bench") / "out"
BENCH = Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def reference_loop_s():
    """Time of a fixed pure-Python loop: tells machine drift apart from a
    change in the program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Processes:
    """Runs polysat commands one at a time through launcher.py.

    Create it before importing workloads: the launcher must start while
    this process is still small (see launcher.py).
    """

    def __init__(self, src):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.workdir = None

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, argv, stdin_file=None):
        """(wall seconds, peak RSS in MB, exit code, stdout)."""
        out_path = os.path.join(self.workdir, ".stdout")
        req = {
            "argv": [sys.executable, "-m", "polysat.cli", *argv],
            "cwd": self.workdir,
            "stdin": os.path.join(self.workdir, stdin_file) if stdin_file else None,
            "stdout": out_path,
        }
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        return reply["wall"], reply["rss_mb"], reply["code"], text

    def run_op(self, op):
        """(wall seconds, peak RSS in MB, stdouts, exit codes) of one op.
        A pipe's later step reads the previous step's stdout from a file."""
        from workloads import PIPE

        wall, rss, outs, codes = 0.0, 0.0, [], []
        for argv, stdin in op.steps:
            if stdin == PIPE:
                with open(os.path.join(self.workdir, ".pipe"), "w", encoding="utf-8") as fh:
                    fh.write(outs[-1])
                stdin = ".pipe"
            w, r, code, text = self.run(argv, stdin_file=stdin)
            wall += w
            rss = max(rss, r)
            outs.append(text)
            codes.append(code)
        return wall, rss, outs, codes


class Checker:
    """Checks each op's outputs once per distinct output."""

    def __init__(self, ops):
        self.ops = ops
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def check_pass(self, results):
        for i, (outs, codes) in enumerate(results):
            key = (i, tuple(outs), tuple(codes))
            if key not in self.seen:
                try:
                    err = self.ops[i].check(outs, codes)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    err = f"unreadable output: {exc!r}"
                if err:
                    log(f"FAILED {self.ops[i].label}: {err}")
                self.seen[key] = err
            self.attempted += 1
            self.failed += self.seen[key] is not None


def setup(workload, seed, workdir):
    """Write the seed's inputs to workdir; (plan, texts, setup seconds).

    The set-up time is the median build of the SETUP_SEED plan, repeated
    at least SETUP_REPS times and for SETUP_MIN_S."""
    import workloads

    plan = workloads.plan(workload, seed)
    texts = workloads.build(plan)
    for name, text in texts.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    fixed = workloads.plan(workload, SETUP_SEED)
    times, first = [], None
    begin = time.perf_counter()
    while len(times) < SETUP_REPS or time.perf_counter() - begin < SETUP_MIN_S:
        start = time.perf_counter()
        built = workloads.build(fixed)
        times.append(time.perf_counter() - start)
        if first is None:
            first = built
        elif built != first:
            raise RuntimeError("set-up is not deterministic")
    return plan, texts, statistics.median(times)


def another_pass_fits(start, walls, seconds):
    """Passes are whole: start one more only if it should end in time."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure_processes(ops, procs, checker, seconds):
    pass_walls, op_walls, peak = [], [[] for _ in ops], 0.0
    start = time.perf_counter()
    while not pass_walls or another_pass_fits(start, pass_walls, seconds):
        t0 = time.perf_counter()
        results = []
        for i, op in enumerate(ops):
            wall, rss, outs, codes = procs.run_op(op)
            op_walls[i].append(wall)
            peak = max(peak, rss)
            results.append((outs, codes))
        pass_walls.append(time.perf_counter() - t0)
        checker.check_pass(results)
    for op, walls in zip(ops, op_walls):
        log(f"  {statistics.median(walls):8.3f} s  {op.label}")
    log(f"passes: {len(pass_walls)}; pass walls: {[round(w, 3) for w in pass_walls]}")
    return {
        "run_s": (statistics.median(pass_walls), "s"),
        "op_p50_s": (statistics.median(w for walls in op_walls for w in walls), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(ops, procs, checker, seconds, workdir, trace_file):
    import tracing

    startup = statistics.median(procs.run(["--help"])[0] for _ in range(STARTUP_REPS))
    plain, traced, self_s, calls = [], [], [], []
    start = time.perf_counter()
    pair_walls = []
    while not traced or another_pass_fits(start, pair_walls, seconds):
        t0 = time.perf_counter()
        wall, results = tracing.inprocess_pass(ops, workdir)
        plain.append(wall)
        checker.check_pass(results)
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as absent:
            wall, results = tracing.inprocess_pass(ops, workdir, tracer)
        traced.append(wall)
        checker.check_pass(results)
        self_s.append(tracer.self_times())
        calls.append(tracer.calls)
        pair_walls.append(time.perf_counter() - t0)
        if len(traced) == 1:
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"functions": tracing.FUNCTIONS, "spans": tracer.spans}, fh)
    if absent:
        log(f"absent from polysat: {', '.join(absent)}")
    log(f"passes: {len(traced)}; untraced {[round(w, 3) for w in plain]};"
        f" traced {[round(w, 3) for w in traced]}")
    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for s in self_s), "s")
        metrics[f"{name}.calls"] = (statistics.median(c[name] for c in calls), "count")
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "polysat" / "cli.py").is_file():
        log(f"no polysat sources under {src}; run from the root of a polysat tree")
        return 2
    # saturation runs pairs in a thread pool when POLYSAT_THREADS > 1; the
    # benchmark measures the single-threaded program, and the tracer keeps
    # one span stack.
    os.environ["POLYSAT_THREADS"] = "1"
    procs = Processes(src)
    workdir = None
    try:
        sys.path.insert(0, str(src))
        import workloads
        from reference import RefPoset

        if args.workload not in workloads.PLANS:
            ap.error(f"--workload must be one of {', '.join(workloads.PLANS)}")
        out_dir = root / RESULT_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        workdir = procs.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
        plan, texts, setup_s = setup(args.workload, args.seed, workdir)
        refs = functools.lru_cache(maxsize=None)(RefPoset.from_json)
        ops = workloads.operations(args.workload, plan, texts, refs)
        procs.run(["--help"])  # compiles bytecode once, as an install would
        log(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass")
        log(f"reference_loop_s {reference_loop_s():.4f}")
        checker = Checker(ops)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            if args.trace:
                trace_file = out_dir / f"trace-{args.workload}.json"
                metrics = measure_traced(ops, procs, checker, args.seconds, workdir, trace_file)
            else:
                metrics = measure_processes(ops, procs, checker, args.seconds)
                metrics["setup_s"] = (setup_s, "s")
        finally:
            os.chdir(cwd)
        log(f"attempted {checker.attempted} failed {checker.failed} ({args.workload})")
        result = {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        procs.close()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
