"""Main learning loop for symbolic Mealy machines.

Repairs the observation table until cohesive, reads off the concrete
evidence machine, generalizes its characters into predicates with a
partitioning function, and poses equivalence queries until the teacher
accepts.  Every hypothesis is checked for compatibility with the table it
was built from before it is submitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .algebra import Algebra
from .automata import ConcreteMealy, SMealy, _steps, state_partitions
from .automata import restrict  # noqa: F401  unused; the benchmark's tracing.py SPANS wraps it
from .obstable import ObservationTable
from .partition import partitioner_for


class LearningError(RuntimeError):
    """Internal invariant breach or resource cap exceeded."""


@dataclass
class LearnStats:
    eq_queries: int = 0
    output_queries: int = 0
    total_output_queries: int = 0
    sigma_e_size: int = 0
    r_size: int = 0
    e_size: int = 0
    max_cex_len: int = 0
    rounds: int = 0
    wall_time: float = 0.0


def build_evidence(table: ObservationTable) -> ConcreteMealy:
    """Concrete machine over sigma_e read off a cohesive table."""
    rows = {}
    for i, s in enumerate(table.S):
        key = table.row(s)
        if key in rows:
            raise LearningError(f"S-rows {table.S[rows[key]]} and {s} coincide")
        rows[key] = i
    delta = {}
    for i, s in enumerate(table.S):
        for a in table.sigma_e:
            succ = rows.get(table.row(s + (a,)))
            if succ is None:
                raise LearningError(f"table is not closed at {s + (a,)}")
            delta[(i, a)] = (succ, table.cell(s, (a,)))
    return ConcreteMealy(table.sigma_e, len(table.S), 0, table.gamma, delta)


def sep_pred(evidence: ConcreteMealy, algebra: Algebra, memo=None) -> SMealy:
    """Generalize evidence characters into predicates, one state at a time.

    For each state the alphabet is grouped by (successor, output), and the
    groups that hold samples are partitioned into one transition each (see
    ``state_partitions``, which also explains ``memo``).
    """
    partition = partitioner_for(algebra)
    transitions = [(q, pred, target, output)
                   for q, pairs in state_partitions(evidence, evidence.alphabet, algebra,
                                                    partition, memo)
                   for (target, output), pred in pairs]
    return SMealy(algebra, evidence.n_states, evidence.initial,
                  evidence.outputs, transitions)


def _check_hypothesis(table: ObservationTable, evidence: ConcreteMealy, hyp: SMealy):
    """Symbolic compatibility: the hypothesis reproduces every table cell.

    First the hypothesis must agree with the evidence machine on sigma_e: the
    same states and initial state, and per state the same (successor, output)
    per character, stepped on its compiled lookups.  A column's output from
    an evidence state does not depend on the word that reached it, so each
    state's outputs over ``table.columns()`` are computed once, as one tuple,
    and every word's row is compared with the tuple of its state.  Each
    word's state is one step from its prefix's: the word set is
    prefix-closed, so in shortlex order every prefix comes first.  Words are
    compared in ``table.words()`` order and a mismatch names the first
    differing column in table order.
    """
    sigma, delta = evidence.alphabet, evidence.delta
    if (hyp.n_states, hyp.initial) != (evidence.n_states, evidence.initial) or any(
            _steps(hyp, q, sigma) != [delta[(q, a)] for a in sigma]
            for q in range(evidence.n_states)):
        raise LearningError("hypothesis restricted to sigma_e differs from the evidence")
    step = evidence.step
    columns = table.columns()

    def outputs(q):
        out = []
        for col in columns:
            p = q
            for a in col:
                p, o = step(p, a)
            out.append(o)
        return tuple(out)

    expected = [outputs(q) for q in range(evidence.n_states)]
    state = {(): evidence.initial}
    for w in table._sorted_words[1:]:
        state[w] = step(state[w[:-1]], w[-1])[0]
    for w in table.words():
        row, want = table.row(w), expected[state[w]]
        if row != want:
            col = next(col for col, cell, out in zip(columns, row, want) if cell != out)
            raise LearningError(f"evidence machine contradicts cell ({w}, {col})")


def learn(oracle, algebra: Algebra, a0=None, max_rounds=None,
          trace=None) -> tuple[SMealy, LearnStats]:
    """Identify the teacher's hidden machine; returns it with run statistics.

    Each state's predicates are kept from round to round while its sample
    groups only grow inside them, which the partitioning functions' stability
    allows (see ``smalearn.partition``).
    """
    start = time.perf_counter()
    memo = {}  # evidence state -> its groups and predicates, see state_partitions
    if a0 is None:
        a0 = algebra.min_char()
    table = ObservationTable(algebra, oracle.output_query, a0)
    stats = LearnStats()
    cap = max_rounds if max_rounds is not None else 10 * (len(table.sigma_e) + 1000)

    def emit(make_event):
        # events, with their table snapshots, are built only when a trace is kept
        if trace is not None:
            trace.append(make_event())

    emit(lambda: {"event": "init", "table": table.snapshot()})
    result = None
    while result is None:
        stats.rounds += 1
        if stats.rounds > cap:
            raise LearningError(f"no convergence within {cap} rounds")
        while (defect := table.check()).kind != "cohesive":
            table.repair(defect)
            emit(lambda: {"event": "repair", "kind": defect.kind,
                          "witness": defect.witness, "table": table.snapshot()})
        evidence = build_evidence(table)
        hyp = sep_pred(evidence, algebra, memo)
        _check_hypothesis(table, evidence, hyp)
        emit(lambda: {"event": "hypothesis", "states": hyp.n_states,
                      "sigma_e": tuple(table.sigma_e)})
        answer = oracle.equivalence_query(hyp)
        stats.eq_queries += 1
        if answer is None:
            result = hyp
            emit(lambda: {"event": "done"})
        else:
            cex = tuple(answer)
            stats.max_cex_len = max(stats.max_cex_len, len(cex))
            table.add_counterexample(cex)
            emit(lambda: {"event": "counterexample", "word": cex, "table": table.snapshot()})

    stats.sigma_e_size = len(table.sigma_e)
    stats.r_size = len(table.R)
    stats.e_size = len(table.E)
    output = getattr(oracle, "output", None)
    if output is not None:
        stats.output_queries = output.distinct_queries
        stats.total_output_queries = output.total_queries
    stats.wall_time = time.perf_counter() - start
    return result, stats
