"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py

Run from the root of a polysat source tree.  For each workload of
BENCHMARK.json it runs bench/run.py RUNS times per set, one run at a
time, for the run length of BENCHMARK.json, each run with its own seed
(set 1 uses seeds 1..RUNS, set 2 the next RUNS seeds).  It prints, for
every end-to-end metric and set, the median, the quartiles and the
spread (quartile distance over median), the ratio of the second set's
median to the first's, and the share of failed operations.  The bounds in
BENCHMARK.json are set from these spreads.  All results are also written
to bench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = 10
RUN_TIMEOUT_S = 600


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("reference_loop_s "):
            result["reference_loop_s"] = float(line.split()[1])
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    bench_json = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = bench_json["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench_json["end_to_end"]}

    report = {}
    for workload in (w["name"] for w in bench_json["workloads"]):
        sets = []
        for first_seed in (1, RUNS + 1):
            results = []
            for seed in range(first_seed, first_seed + RUNS):
                res = one_run(workload, seed, seconds)
                results.append(res)
                print(f"{workload} set {len(sets) + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
            sets.append(results)
        report[workload] = sets
        print(f"\n{workload}: 2 sets of {RUNS} runs, {seconds} s each")
        for name in bounds:
            stats = [summary([r["metrics"][name]["value"] for r in results]) for results in sets]
            cells = "  ".join(
                f"set{i + 1} median {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}]"
                f" spread {st['spread']:.3f}" for i, st in enumerate(stats)
            )
            ratio = stats[1]["median"] / stats[0]["median"]
            print(f"  {name:12s} {cells}  ratio {ratio:.3f}  bound {bounds[name]}")
        loops = [summary([r["reference_loop_s"] for r in results]) for results in sets]
        print("  reference loop (machine speed, not gated): " + "  ".join(
            f"set{i + 1} median {st['median']:.4g} spread {st['spread']:.3f}"
            for i, st in enumerate(loops)))
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"  failed share per set: {shares}\n", flush=True)
    out = Path("bench") / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
