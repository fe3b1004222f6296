"""Closed-loop learning passes with a teacher proxy and an exactness gate.

Every learn runs in this process and thread, the next starting when the
previous one returns.  The teacher proxy counts queries where they cross
the teacher boundary, so the counts do not depend on the program's own
counters (which are cross-checked against them).
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from smalearn import LearningError, Oracle, OracleAssumptionViolation, learn, symbolic_equiv

from tracing import CALIBRATION, LEARN, SETUP, instrument
from workloads import Job, Workload, build_targets


CAL_EVERY = 500  # output queries between calibration slices inside a learn
CAL_REF_S = 0.003  # slice time that defines the reference speed


def calibration_slice() -> float:
    """Seconds taken by a fixed loop of interpreter work owned by the benchmark."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    if total != 79997:
        raise AssertionError("calibration slice computed a wrong sum")
    return time.perf_counter() - start


class Calibration:
    """Machine speed over a run, sampled while it learns.

    On a shared machine the speed of the same code drifts by 15% and more
    over minutes.  The harness times a fixed loop every ``CAL_EVERY`` output
    queries and after every learn, takes the loop's time out of the learn
    time, and multiplies the run's times by ``CAL_REF_S / median slice
    time``, which reports them at a fixed reference speed.  The loop runs
    none of the program's code, so a change to the program cannot move it.
    """

    def __init__(self):
        self.samples = []

    def slice(self) -> float:
        """Time one slice and return its duration."""
        seconds = calibration_slice()
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


class BudgetSpent(Exception):
    """The proxy's equivalence-query budget ran out; the learn stops here."""


class TeacherProxy:
    """Wraps any teacher with ``output_query`` and ``equivalence_query``.

    Counts distinct and total output words and equivalence queries, keeps
    the counterexamples served, and, given a budget, stops the learn at the
    first equivalence query beyond it, keeping the hypothesis posed there.
    Given a ``calibrate`` function, it runs it every ``CAL_EVERY`` output
    queries and adds its time to ``paused``.
    """

    def __init__(self, teacher, eq_budget: int | None = None, calibrate=None):
        self.teacher = teacher
        self.calibrate = calibrate
        self.paused = 0.0
        self.output = getattr(teacher, "output", None)  # read by learn() for LearnStats
        self.eq_budget = eq_budget
        self.words = set()
        self.total = 0
        self.eq = 0
        self.counterexamples = []
        self.stopped_at = None

    def output_query(self, word):
        self.total += 1
        if self.calibrate is not None and self.total % CAL_EVERY == 0:
            self.paused += self.calibrate()
        self.words.add(tuple(word))
        return self.teacher.output_query(word)

    def equivalence_query(self, hyp):
        self.eq += 1
        if self.eq_budget is not None and self.eq > self.eq_budget:
            self.stopped_at = hyp
            raise BudgetSpent
        answer = self.teacher.equivalence_query(hyp)
        if answer is not None:
            self.counterexamples.append(tuple(answer))
        return answer

    def digest(self) -> str:
        """Hash of the counterexample words, in the order they were served."""
        return hashlib.sha256(repr(self.counterexamples).encode()).hexdigest()[:16]


@dataclass
class Learn:
    """One attempted learn: its latency and the behaviour it showed."""
    seconds: float
    record: dict
    failure: str | None = None


@dataclass
class Pass:
    traced: bool = False
    learns: list = field(default_factory=list)

    @property
    def learn_s(self) -> float:
        return sum(x.seconds for x in self.learns)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.learns if x.failure)


def check_learned(target, learned, stats, proxy) -> str | None:
    """Why a complete learn is wrong, or None when it is exact."""
    if learned.n_states > target.n_states:
        return f"learned {learned.n_states} states for a {target.n_states}-state target"
    if symbolic_equiv(learned, target) is not None:
        return "learned machine differs from the target"
    if proxy.output is not None and (stats.output_queries, stats.total_output_queries) != (
            len(proxy.words), proxy.total):
        return (f"LearnStats counts {stats.output_queries}/{stats.total_output_queries} "
                f"output queries, the teacher saw {len(proxy.words)}/{proxy.total}")
    if stats.eq_queries != proxy.eq:
        return f"LearnStats counts {stats.eq_queries} equivalence queries, the teacher saw {proxy.eq}"
    return None


def check_stopped(target, hyp, proxy) -> str | None:
    """Why the hypothesis posed when the budget ran out is wrong, or None."""
    if hyp.n_states > target.n_states:
        return f"hypothesis has {hyp.n_states} states for a {target.n_states}-state target"
    for word in proxy.counterexamples:
        if hyp.run(word) != target.run(word):
            return f"hypothesis still disagrees with counterexample {word}"
    return None


def attempt(workload: Workload, target, job: Job, learn_fn=learn, tracer=None,
            learn_id: int = 0, calibration: Calibration | None = None) -> Learn:
    """Build the job's ``Oracle``, run one learn against it and check what it returns.

    Only the learn is timed, without the calibration slices run inside it.
    An exception while the ``Oracle`` is built or while learning counts as a
    failed learn.
    """
    try:
        with nullcontext() if tracer is None else tracer.root(SETUP, learn_id):
            teacher = Oracle(target, mode=job.mode, seed=job.oracle_seed)
    except Exception:  # e.g. OracleAssumptionViolation from the reconstruction check
        return Learn(0.0, {"eq_queries": 0, "output_queries": 0, "output_queries_total": 0},
                     "Oracle set-up failed: " + traceback.format_exc())

    calibrate = None if calibration is None else calibration.slice
    if tracer is not None and calibrate is not None:
        calibrate = tracer.wrap(CALIBRATION, calibrate)
    proxy = TeacherProxy(teacher, workload.eq_budget, calibrate)
    if tracer is not None:
        proxy.output_query = tracer.wrap("oracle.output_query", proxy.output_query)
        proxy.equivalence_query = tracer.wrap("oracle.equivalence_query",
                                              proxy.equivalence_query)
    learned = stats = None
    failure = None
    span = nullcontext() if tracer is None else tracer.root(LEARN, learn_id)
    start = time.perf_counter()
    try:
        with span:
            learned, stats = learn_fn(proxy, target.algebra)
    except BudgetSpent:
        learned = proxy.stopped_at
    except (LearningError, OracleAssumptionViolation) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    except Exception:  # a broken program must not stop the run: count it and go on
        failure = traceback.format_exc()
    seconds = time.perf_counter() - start - proxy.paused

    record = {"eq_queries": proxy.eq, "output_queries": len(proxy.words),
              "output_queries_total": proxy.total, "cex_digest": proxy.digest()}
    if stats is not None:
        record.update(r_size=stats.r_size, e_size=stats.e_size,
                      sigma_e_size=stats.sigma_e_size, rounds=stats.rounds)
    if learned is not None:
        record["states"] = learned.n_states
    if failure is None:
        if workload.eq_budget is not None and stats is None:
            failure = check_stopped(target, learned, proxy)
        else:
            failure = check_learned(target, learned, stats, proxy)
    if failure is None:
        wrong = {k: (record.get(k), v) for k, v in workload.expect.items() if record.get(k) != v}
        if wrong:
            failure = "behaviour differs from the record (got, want): " + repr(wrong)
    return Learn(seconds, record, failure)


def time_setup(jobs) -> float:
    """Seconds to build the targets of a pass and one ``Oracle`` per job."""
    start = time.perf_counter()
    targets = build_targets(jobs)
    for job in jobs:
        Oracle(targets[job.target], mode=job.mode, seed=job.oracle_seed)
    return time.perf_counter() - start


def run_passes(workload: Workload, seed: int, seconds: float, learn_fn=learn, tracer=None,
               passes: int | None = None, calibration: Calibration | None = None):
    """Repeat passes over the workload's jobs until ``seconds`` are spent.

    Each pass builds its targets and, per learn, a fresh ``Oracle``, outside
    the learn's timed region.  With a ``tracer``, untraced and traced passes
    alternate, the instrumentation installed for the traced ones only, and
    the run ends after a traced pass.  A pass (with a tracer, a pair of
    passes) starts only if one as long as the previous one still fits, so a
    run never overshoots its time by more than its first one.  Every learn
    must behave as in the first pass; a learn that differs fails.  With a
    ``calibration``, machine speed is sampled during and after every learn.
    """
    jobs = workload.plan(seed)
    unit = 1 if tracer is None else 2
    out = []
    learn_id = 0
    deadline = time.perf_counter() + seconds
    while True:
        if len(out) % unit == 0:
            began = time.perf_counter()
        p = Pass(traced=len(out) % unit == 1)
        targets = build_targets(jobs)
        with instrument(tracer) if p.traced else nullcontext():
            for i, job in enumerate(jobs):
                result = attempt(workload, targets[job.target], job, learn_fn,
                                 tracer if p.traced else None, learn_id, calibration)
                if out and result.failure is None and result.record != out[0].learns[i].record:
                    result.failure = (f"pass {len(out) + 1} behaves differently from pass 1: "
                                      f"{result.record} != {out[0].learns[i].record}")
                p.learns.append(result)
                learn_id += 1
                if calibration is not None:
                    calibration.slice()
        out.append(p)
        if len(out) % unit:
            continue
        now = time.perf_counter()
        if passes is not None:
            if len(out) >= passes:
                return out
        elif now + (now - began) > deadline:
            return out
