"""Run the benchmark over workloads and seeds and print every metric.

Usage:
  python3 bench/summary.py [--workloads scan8,grid50k,track,verify]
      [--seeds 1] [--seconds 10] [--trace 0]

Each run is a separate `bench/run.py` process, one after another.  Prints
each metric by name and unit with its median over the seeds, the failed
share of operations, and, with four or more seeds, the interquartile spread
as a share of the median next to a third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-600:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="scan8,grid50k,track,verify")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}

    worst_ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            took = time.perf_counter() - start
            results.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} took={took:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: fail_ratio={failed / attempted:.4g} "
              f"({failed} of {attempted} operations)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            unit = results[0]["metrics"][name]["unit"]
            line = f"   {name:<34} {statistics.median(values):>14.6g} {unit:<8}"
            if len(values) >= 4 and statistics.median(values) != 0:
                spread = stats.quartile_spread(values)
                line += f" spread={spread:.4f}"
                if name in bounds and name != "setup_s":
                    ok = spread < bounds[name] / 3
                    worst_ok &= ok
                    line += f" (bound/3={bounds[name] / 3:.4f} {'ok' if ok else 'WIDE'})"
            print(line, flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
