"""Run one workload of the smalearn benchmark and print its metrics.

    python3 benchmarks/run.py --workload atgs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  A run repeats passes over the workload's learns (see
workloads.py) in this one process and thread until ``--seconds`` are spent,
checking every learned machine.  With ``--trace 0`` it first times the
set-up (about 4 s more, see ``measure_setup``) and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced
passes, prints the per-layer metrics and writes every span to
``.bench_out/spans-<workload>.tsv``.

Report lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status 0 means a result was printed (correct or not); without the
program's sources the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
IMPORT_PROBES = 5  # fresh processes timing the import; setup_s takes their median
SETUP_MIN_REPS, SETUP_MIN_S = 3, 3.0  # set-ups of one pass, timed before the passes
SETUP_SLICES = 5  # calibration slices after each set-up
P90_MIN_LEARNS = 100  # p90 needs ten samples above it

# name -> unit, in report order; BENCHMARK.json lists the same names
END_TO_END = {
    "wall_s": "s", "learn_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "eq_queries": "count", "output_queries": "count", "output_queries_total": "count",
}
SPAN_METRICS = [
    "learner.learn", "learner.build_evidence", "learner.sep_pred",
    "learner.check_hypothesis", "obstable.check", "obstable.repair",
    "obstable.add_counterexample", "obstable.snapshot", "oracle.output_query",
    "oracle.equivalence_query", "oracle.essential_characters",
    "oracle.check_partition_reconstruction", "automata.run", "automata.restrict",
    "automata.symbolic_equiv", "partition", "algebra.meet", "algebra.join",
    "algebra.complement", "algebra.is_empty", "algebra.witness",
]
REPAIR_KINDS = ["not_consistent", "not_closed", "not_evidence_closed", "not_output_closed"]
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPAN_METRICS
       for kind, unit in (("self_s", "s"), ("calls", "count"))
       if f"{span}.{kind}" != "learner.learn.calls"},
    **{f"obstable.repair.{kind}.calls": "count" for kind in REPAIR_KINDS},
    "learner.rounds": "count", "obstable.rows": "count", "obstable.columns": "count",
    "obstable.cells": "count", "oracle.output_query.distinct_ratio": "ratio",
    "oracle.setup_s": "s", "automata.run.steps": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def load_program():
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    if not (SRC / "smalearn" / "__init__.py").is_file():
        sys.exit(f"run.py: no smalearn sources under {SRC}")
    sys.path.insert(0, str(SRC))


# run in a fresh interpreter with the sources directory as its argument
IMPORT_PROBE = ("import json, sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import smalearn; "
                "print(json.dumps({'import_s': time.perf_counter() - start}))")


def measure_setup(workload, seed: int) -> tuple[float, list[str], list[str]]:
    """``setup_s`` at the reference speed, report lines and errors.

    Sets up one pass (its targets and Oracles) at least SETUP_MIN_REPS times
    and for at least SETUP_MIN_S seconds, and times ``import smalearn`` in
    IMPORT_PROBES fresh processes; ``setup_s`` is the sum of the two medians.
    SETUP_SLICES calibration slices follow every set-up and one precedes
    every probe, and only these slices scale ``setup_s``: machine speed
    drifts within seconds and the set-up takes only a few.  A set-up that raises or a probe that
    fails is reported as an error; the learns count the failures themselves.
    """
    from harness import Calibration, time_setup
    calibration = Calibration()
    jobs = workload.plan(seed)
    setups, imports, errors = [], [], []
    began = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or time.perf_counter() - began < SETUP_MIN_S:
        try:
            setups.append(time_setup(jobs))
        except Exception as exc:
            errors.append(f"set-up failed: {exc!r}")
            break
        for _ in range(SETUP_SLICES):
            calibration.slice()
    for _ in range(IMPORT_PROBES):
        calibration.slice()
        try:
            child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                   cwd=ROOT, capture_output=True, text=True, timeout=60)
            imports.append(json.loads(child.stdout.splitlines()[-1])["import_s"])
        except Exception as exc:
            errors.append(f"import probe failed: {exc!r}")
    import_s = statistics.median(imports) if imports else 0.0
    setup_s = statistics.median(setups) if setups else 0.0
    lines = [f"setup_s: import {import_s!r} s (median of {len(imports)} fresh processes) plus "
             f"targets and Oracles of one pass {setup_s!r} s (median of {len(setups)} set-ups), "
             f"unscaled; scaled by {calibration.scale():.6f} from {len(calibration.samples)} "
             f"calibration slices taken in between"]
    return calibration.scale() * (import_s + setup_s), lines, errors


def behaviour_lines(passes) -> list[str]:
    """The first pass's per-learn behaviour record, one JSON line per learn."""
    return [f"behaviour {i}: {json.dumps(x.record, sort_keys=True)}"
            for i, x in enumerate(passes[0].learns)]


def failures(passes) -> list[str]:
    return [f"failed learn {p}.{i}: {x.failure}" for p, ps in enumerate(passes)
            for i, x in enumerate(ps.learns) if x.failure]


def end_to_end(passes, calibration) -> tuple[dict, list[str]]:
    """End-to-end values other than ``setup_s``, and report lines; times are
    scaled to the reference speed (harness.Calibration)."""
    from harness import CAL_REF_S
    latencies = sorted(x.seconds for p in passes for x in p.learns)
    first = passes[0].learns
    measured = {"wall_s": statistics.median(p.learn_s for p in passes),
                "learn_ms_p50": 1000 * statistics.median(latencies)}
    scale = calibration.scale()
    values = {
        **{k: v * scale for k, v in measured.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "eq_queries": sum(x.record["eq_queries"] for x in first),
        "output_queries": sum(x.record["output_queries"] for x in first),
        "output_queries_total": sum(x.record["output_queries_total"] for x in first),
    }
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    lines = [f"{len(passes)} passes of {len(first)} learns; wall_s is the median pass, "
             f"learn_ms_p50 the median of {attempted} learns; counts are per pass",
             f"machine speed: calibration slice median {1000 * CAL_REF_S / scale:.4f} ms "
             f"over {len(calibration.samples)} slices; times are scaled by {scale:.6f} "
             f"to the reference {1000 * CAL_REF_S:g} ms",
             "measured, unscaled: " + ", ".join(f"{k} {v!r}" for k, v in measured.items()),
             "learn times of the first passes, unscaled (s): "
             + " ".join(f"{p.learn_s:.4f}" for p in passes[:20])]
    if attempted >= P90_MIN_LEARNS:
        p90 = 1000 * scale * statistics.quantiles(latencies, n=10)[-1]
        lines.append(f"learn_ms_p90 {p90:.6g} ms (n={attempted})")
    else:
        lines.append(f"learn_ms_p90 not reported: n={attempted} < {P90_MIN_LEARNS} learns")
    lines.append(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} learns)")
    return values, lines


def per_layer(tracer, passes, calibration) -> tuple[dict, list[str], list[str]]:
    """Per-layer values (median over traced passes), report lines, trace errors.

    ``trace.overhead_s`` is the median, over pairs of an untraced pass and
    the traced pass after it, of the traced minus the untraced learn time,
    scaled to the reference speed.
    """
    from tracing import CALIBRATION, LEARN, SETUP
    n_jobs = len(passes[0].learns)
    traced = [p for p, ps in enumerate(passes) if ps.traced]
    totals = tracer.totals(lambda learn_id: learn_id // n_jobs)
    per_pass = {p: dict.fromkeys(PER_LAYER, 0) for p in traced}
    wall = dict.fromkeys(traced, 0)
    self_sum = dict.fromkeys(traced, 0)
    for (p, root, name), (calls, self_ns, dur_ns) in totals.items():
        m = per_pass[p]
        if name == CALIBRATION:  # the harness's own time: out of the learn time
            wall[p] -= dur_ns
            continue
        if name == LEARN:
            wall[p] += dur_ns
        if root == LEARN:
            self_sum[p] += self_ns
        if name == SETUP:
            m["oracle.setup_s"] += dur_ns
            continue
        m[f"{name}.self_s"] += self_ns
        if name != LEARN:
            m[f"{name}.calls"] += calls
    for p in traced:
        m = per_pass[p]
        learn_ids = range(p * n_jobs, (p + 1) * n_jobs)
        for (learn_id, counter), n in tracer.counters.items():
            if learn_id in learn_ids:
                m[counter] += n
        for learn_id, x in zip(learn_ids, passes[p].learns):
            m["learner.rounds"] += x.record.get("rounds", x.record["eq_queries"])
            table = tracer.tables.get(learn_id)
            if table is not None:
                m["obstable.rows"] = max(m["obstable.rows"], len(table.S) + len(table.R))
                m["obstable.columns"] = max(m["obstable.columns"],
                                            len(table.sigma_e) + len(table.E))
                m["obstable.cells"] = max(m["obstable.cells"], len(table.cells))
        distinct = sum(x.record["output_queries"] for x in passes[p].learns)
        total = sum(x.record["output_queries_total"] for x in passes[p].learns)
        m["oracle.output_query.distinct_ratio"] = distinct / total if total else 0.0
        m["trace.wall_s"] = wall[p]
        for k, unit in PER_LAYER.items():
            if unit == "s":
                m[k] /= 1e9
    values = {k: statistics.median(m[k] for m in per_pass.values()) for k in PER_LAYER}
    diffs = [passes[p].learn_s - passes[p - 1].learn_s for p in traced]
    values["trace.overhead_s"] = calibration.scale() * statistics.median(diffs)
    lines = [f"{len(traced)} traced passes, each after an untraced one; per-layer values "
             f"are per pass (median over traced passes), covering Oracle set-up and learn",
             f"per pass (median): self times sum to "
             f"{statistics.median(self_sum.values()) / 1e9:.6f} s, traced learn time "
             f"{values['trace.wall_s']:.6f} s, untraced "
             f"{statistics.median(passes[p - 1].learn_s for p in traced):.6f} s; "
             f"tracing overhead at reference speed {values['trace.overhead_s']:.6f} s "
             f"(median of {len(diffs)} paired differences)"]
    errors = tracer.nesting_errors()
    if any(v < 0 for v in tracer.self_ns()):
        errors.append("negative self time")
    if self_sum != wall:
        errors.append("self times do not add up to the traced learn time")
    return values, lines, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import smalearn
    from harness import Calibration, run_passes
    from workloads import WORKLOADS
    if Path(smalearn.__file__).resolve().parent != SRC / "smalearn":
        sys.exit(f"run.py: smalearn was imported from {smalearn.__file__}, not {SRC}")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}"]
    calibration = Calibration()
    if args.trace == 0:
        setup_s, setup_lines, errors = measure_setup(workload, args.seed)
        passes = run_passes(workload, args.seed, args.seconds, calibration=calibration)
        values, more = end_to_end(passes, calibration)
        values["setup_s"] = setup_s
        more += setup_lines
        units = END_TO_END
    else:
        from tracing import Tracer
        tracer = Tracer()
        passes = run_passes(workload, args.seed, args.seconds, tracer=tracer,
                            calibration=calibration)
        values, more, errors = per_layer(tracer, passes, calibration)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name.replace(':', '_')}.tsv"
        tracer.write(path)
        more.append(f"{len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    lines += more + behaviour_lines(passes) + failures(passes) + errors
    lines += [f"{name} {values[name]!r} {unit}" for name, unit in units.items()]
    attempted = sum(len(p.learns) for p in passes)
    failed = sum(p.failed for p in passes)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
