"""Self-test of the benchmark harness; takes a few seconds.

    python3 benchmarks/selftest.py

Runs ``run.py`` briefly on the ``worked-example`` and ``lower:3,3``
workloads and checks that

* the last line holds every metric BENCHMARK.json names, each with its unit;
* traced spans nest inside their parents and have non-negative self times
  that equal their duration minus their children's durations;
* a wrong learned machine (one state), a ``LearningError``, an unexpected
  exception and an ``Oracle`` whose partition-reconstruction check fails
  each count as a failed learn instead of stopping the run, and the failing
  ``Oracle`` is reported by the set-up measurement too;
* without the program's sources, ``run.py`` exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, load_program, measure_setup

RUN = Path(__file__).resolve().with_name("run.py")
WORKLOADS = ["worked-example", "lower:3,3"]


def run_bench(workload: str, trace: int, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def check_metrics(problems: list):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            child = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if child.returncode != 0:
                problems.append(f"{where}: exit {child.returncode}: {child.stderr[-500:]}")
                continue
            result = json.loads(child.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metric units {got} differ from BENCHMARK.json {want}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")


def check_spans(problems: list):
    path = OUT_DIR / "spans-lower_3,3.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    spans = [tuple(int(x) for x in (r[0], r[1], r[2], r[4], r[5], r[6])) for r in rows]
    child_ns = [0] * len(spans)
    for i, parent, learn, start, end, _ in spans:
        if parent >= 0:
            _, _, p_learn, p_start, p_end, _ = spans[parent]
            if not (parent < i and p_learn == learn and p_start <= start <= end <= p_end):
                problems.append(f"span {i} does not nest inside span {parent}")
                return
            child_ns[parent] += end - start
    for i, _, _, start, end, self_ns in spans:
        if self_ns < 0 or self_ns != end - start - child_ns[i]:
            problems.append(f"span {i}: self time {self_ns} ns is wrong")
            return
    if not spans:
        problems.append("no spans written")


def check_failures_counted(problems: list):
    load_program()
    from harness import run_passes
    from smalearn import LearningError, LearnStats, SMealy, oracle
    from workloads import WORKLOADS as ALL

    def one_state(teacher, algebra):
        return SMealy(algebra, 1, 0, ["S"], [(0, algebra.top(), 0, "S")]), LearnStats()

    def learning_error(teacher, algebra):
        raise LearningError("no convergence")

    def broken(teacher, algebra):
        return {}["missing"]

    # without its behaviour record, only the exactness gate can catch one_state
    workload = dataclasses.replace(ALL["worked-example"], expect={})
    for fake in (one_state, learning_error, broken):
        passes = run_passes(workload, 7, 0, learn_fn=fake, passes=2)
        if [p.failed for p in passes] != [1, 1]:
            problems.append(f"{fake.__name__}: failed learns per pass "
                            f"{[p.failed for p in passes]}, want [1, 1]")

    # a partitioner that rebuilds every guard as bottom makes Oracle(...) raise
    # OracleAssumptionViolation in its reconstruction check
    def wrong_partitioner(alg):
        return lambda alg, groups: [alg.bottom() for _ in groups]

    saved = oracle.partitioner_for
    oracle.partitioner_for = wrong_partitioner
    try:
        passes = run_passes(workload, 7, 0, passes=2)
        _, _, setup_errors = measure_setup(workload, 7)
    finally:
        oracle.partitioner_for = saved
    if not any("OracleAssumptionViolation" in e for e in setup_errors):
        problems.append(f"wrong partitioner: set-up measurement reported {setup_errors}")
    if [p.failed for p in passes] != [1, 1] or "OracleAssumptionViolation" not in (
            passes[0].learns[0].failure or ""):
        problems.append(f"wrong partitioner: failed learns per pass {[p.failed for p in passes]}, "
                        f"want [1, 1] from OracleAssumptionViolation")


def check_without_sources(problems: list):
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = run_bench("worked-example", 0, cwd=bare, script=bare / RUN.parent.name / RUN.name)
    finally:
        shutil.rmtree(bare)
    if child.returncode == 0 or child.stdout.strip():
        problems.append(f"without sources: exit {child.returncode}, stdout {child.stdout!r}")


def main() -> int:
    problems = []
    for check in (check_metrics, check_spans, check_failures_counted, check_without_sources):
        before = len(problems)
        check(problems)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
