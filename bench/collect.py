#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarize the spread.

    python3 bench/collect.py --workloads certify,fit,decide --seeds 1-10 [--seconds 30]
                             [--trace 0] [--out FILE]

Each run is a fresh ``bench/run.py`` process, one after another.  For every
workload and metric this prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (third minus
first quartile, over the median) and the metric's bound from BENCHMARK.json,
plus the unscaled wall-time figures and the result metrics of the detail
line.  ``--out`` also writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="certify,fit,decide")
    parser.add_argument("--seeds", default="1-10", help="comma list of seeds or ranges, e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if len(values) < 2 or any(v is None for v in values):
                continue
            metrics[name] = dict(summarize(values), unit=runs[0]["result"]["metrics"][name]["unit"],
                                 bound=bounds.get(name))
        quality = {}
        for name, entry in runs[0]["detail"]["quality"].items():
            values = [r["detail"]["quality"][name]["value"] for r in runs]
            quality[name] = {"median": statistics.median(values), "max": max(values), "unit": entry["unit"]}
        wall = {}
        if "wall" in runs[0]["detail"]:
            for name, value in runs[0]["detail"]["wall"].items():
                if isinstance(value, float):
                    wall[name] = summarize([r["detail"]["wall"][name] for r in runs])
        doc["workloads"][workload] = {"metrics": metrics, "quality": quality, "wall": wall, "runs": runs}

        print(f"\n{workload} ({len(runs)} runs, {seconds:g} s each, trace {args.trace})")
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            bound = "" if m["bound"] is None else f"  bound {m['bound']}"
            print(f"  {name:48s} {m['median']:.6g} {m['unit']:10s} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {spread}{bound}")
        for name, m in wall.items():
            print(f"  wall {name:43s} {m['median']:.6g} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {m['spread']:.4f}")
        for name, q in quality.items():
            print(f"  {name:48s} median {q['median']:.6g} max {q['max']:.6g} {q['unit']}")

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
