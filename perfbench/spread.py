"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads table1 tall-csv --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 2993 --repeat 3

For every end-to-end metric (or per-layer metric with ``--trace 1``) this
prints the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json. ``--repeat``
runs each seed that many times in a row. ``--out`` also writes every run's
result line, with its seed and environment line, as JSON. Runs are made one after
another, each in its own process, from the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        runs[workload] = []
        for seed in [s for s in args.seeds for _ in range(args.repeat)]:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["env"] = json.loads(lines[0][len("env "):])
            runs[workload].append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        if len(runs[workload]) < 2:
            continue
        names = runs[workload][0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median, share = spread(values)
            bound = bounds.get(name)
            note = ""
            if args.trace == 0 and bound is not None:
                note = f"bound {bound:.3f}" + ("  ABOVE BOUND/3" if share > bound / 3 else "")
            print(f"  {workload:9s} {name:28s} median {median:12.6g}  spread {share:7.4f}  {note}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
