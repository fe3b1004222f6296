"""Run every workload over several seeds and summarise each metric.

    python3 benchmarks/baseline.py --seeds 10 --trace --full --out benchmarks/baseline.json

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` for
``run_seconds`` once per seed (``--first-seed`` and the next ones), one
after another, and reports per end-to-end metric
the median, the quartiles and the spread (interquartile range over median)
next to the bound in BENCHMARK.json.  ``--trace`` adds one traced run per workload (first seed);
``--full`` adds one complete ``atgs`` learn checked against the reference
counts (about two minutes).  The summary and the machine it ran on go to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT

RUN = Path(__file__).resolve().with_name("run.py")
UNSCALED = "measured, unscaled:"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's result line, plus its unscaled times under ``unscaled``."""
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(UNSCALED):
            pairs = (item.split() for item in line[len(UNSCALED):].split(","))
            result["unscaled"] = {name: float(value) for name, value in pairs}
    return result


def summarise(results: list, bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": summarise(results, bounds),
                 "unscaled": summarise([{"metrics": {k: {"value": v, "unit": ""}
                                                     for k, v in r["unscaled"].items()}}
                                        for r in results], bounds)}
        ok &= entry["correct"]
        print(f"{workload}: {entry['attempted']} learns, {entry['failed']} failed")
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  (spread > bound/3)"
            print(f"  {name:22} median {m['median']:<14.6g} {m['unit']:6} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}")
        for name, m in entry["unscaled"].items():
            print(f"  {name + ' unscaled':22} median {m['median']:<14.6g} "
                  f"spread {m['spread']:.4f}")
        if args.trace:
            traced = run(workload, args.first_seed, seconds, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.full:
        full = run("atgs-full", 1, 1, 0)
        ok &= full["correct"]
        report["atgs-full"] = full
        print(f"atgs-full: correct={full['correct']} "
              f"wall_s={full['metrics']['wall_s']['value']:.2f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
