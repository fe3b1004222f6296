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

from .algebra import Algebra, merged_table, table_labels
from .automata import ConcreteMealy, SMealy, _steps, state_groups
from .automata import restrict  # noqa: F401  unused; the benchmark's tracing.py SPANS wraps it
from .obstable import ObservationTable
from .partition import label_map_for


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
    states = {}  # S-row -> its state
    for i, s in enumerate(table.S):
        key = table.row(s)
        if key in states:
            raise LearningError(f"S-rows {table.S[states[key]]} and {s} coincide")
        states[key] = i
    sigma, rows = sorted(table.sigma_e), []
    for s in table.S:
        row = []
        for a in sigma:
            succ = states.get(table.row(s + (a,)))
            if succ is None:
                raise LearningError(f"table is not closed at {s + (a,)}")
            row.append((succ, table.cell(s, (a,))))
        rows.append(row)
    return ConcreteMealy(sigma, rows, 0, table.gamma)


def sep_pred(evidence: ConcreteMealy, algebra: Algebra, memo=None) -> SMealy:
    """Generalize evidence characters into predicates, one state at a time.

    For each state the alphabet is grouped by (successor, output)
    (``state_groups``), and the groups are partitioned into one transition
    each.  Evidence groups are disjoint and normalized, so they go to the
    label-map builder unchecked, labelled with their (successor, output)
    keys; the map, merged (``merged_table``), is the state's compiled table,
    and its labels are listed by first appearance (``table_labels``), which is by
    witness whatever the order of the groups; no guard is read until asked for.

    ``memo`` maps a state to its groups and ``(labels, table, overlaps)``, from an
    earlier call on evidence whose states and outputs mean the same.  A state keeps its
    entry while its groups keep their keys, every earlier sample stays in its
    group and every new one lies in its key's cells of the table, which a
    stable partitioning function would reproduce (see ``smalearn.partition``);
    otherwise it is partitioned again.
    """
    memo = {} if memo is None else memo
    label_map, states = label_map_for(algebra), {}
    for q, groups in enumerate(state_groups(evidence)):
        old = memo.get(q)
        if old is not None and _grows_inside(old[0], algebra.lookup(old[1][1]), groups):
            state = old[1]
        else:
            table = merged_table(label_map(algebra, groups), algebra.arity)
            state = table_labels(table, algebra.arity), table, ()
        memo[q], states[q] = (groups, state), state
    return SMealy.__new__(SMealy)._install(algebra, evidence.n_states, evidence.initial,
                                           evidence.outputs, states)


def _grows_inside(old_groups, find, groups) -> bool:
    """Whether ``groups`` has the keys of ``old_groups`` and only adds samples to them,
    each where ``find``, the lookup of the old compiled table, gives its key."""
    return groups.keys() == old_groups.keys() and all(
        old_groups[key] <= g and all(find(a) == key for a in g - old_groups[key])
        for key, g in groups.items())


def _check_hypothesis(table: ObservationTable, evidence: ConcreteMealy, hyp: SMealy):
    """Symbolic compatibility: the hypothesis reproduces every table cell.

    First the hypothesis must agree with the evidence machine on sigma_e: the
    same states and initial state, and per state the same (successor, output)
    per character, stepped on its compiled lookups and compared with the
    evidence's row unconverted.  The evidence is stepped by position in its rows.
    A column's output from an evidence state does not depend on the word that
    reached it, so each state's outputs over ``table.columns()`` are computed
    once, as one tuple, and every word's row is compared with the tuple of its
    state.  Each word's state is one step from its prefix's: the word set is
    prefix-closed, so in shortlex order every prefix comes first.  Words are
    compared in ``table.words()`` order and a mismatch names the first
    differing column in table order.
    """
    rows, index = evidence.rows, evidence._index
    if (hyp.n_states, hyp.initial) != (evidence.n_states, evidence.initial) or any(
            _steps(hyp, q, evidence.alphabet) != row for q, row in enumerate(rows)):
        raise LearningError("hypothesis restricted to sigma_e differs from the evidence")
    columns = table.columns()
    positions = [[index[a] for a in col] for col in columns]

    def outputs(q):
        out = []
        for col in positions:
            p = q
            for i in col:
                p, o = rows[p][i]
            out.append(o)
        return tuple(out)

    expected = [outputs(q) for q in range(evidence.n_states)]
    state = {(): evidence.initial}
    for w in table._sorted_words[1:]:
        state[w] = rows[state[w[:-1]]][index[w[-1]]][0]
    for w in table.words():
        row, want = table.row(w), expected[state[w]]
        if row != want:
            col = next(col for col, cell, out in zip(columns, row, want) if cell != out)
            raise LearningError(f"evidence machine contradicts cell ({w}, {col})")


def learn(oracle, algebra: Algebra, a0=None, max_rounds=None, trace=None,
          max_states=None) -> tuple[SMealy, LearnStats]:
    """Identify the teacher's hidden machine; returns it with run statistics.

    Each state's predicates are kept from round to round while its sample
    groups only grow inside them, which the partitioning functions' stability
    allows (see ``smalearn.partition``).  A counterexample after which the
    table needs no repair is one the hypothesis already answers as the
    teacher does, and ends the learn with ``LearningError``.

    So does a closing repair that would take ``|S|`` past ``max_states``: S-rows are
    pairwise distinct, so ``|S|`` never passes the minimal target's size, and with ``|S|``
    bounded each round's repairs end, even for a teacher that answers at random.  So does
    a consistency repair whose column is already in ``E``, which only a teacher answering
    one word two ways can cause, and more than ``max_rounds`` rounds (10,010 by default).
    """
    start = time.perf_counter()
    memo = {}  # evidence state -> its groups and compiled state, see sep_pred
    if a0 is None:
        a0 = algebra.min_char()
    table = ObservationTable(algebra, oracle.output_query, a0)
    stats = LearnStats()
    cap = 10_010 if max_rounds is None else max_rounds

    def emit(make_event):
        # events are built only when a trace is kept; they give the table's sizes, not a copy
        if trace is not None:
            trace.append(make_event())

    def sizes():
        return {part: len(getattr(table, part)) for part in ("S", "R", "sigma_e", "E")}

    emit(lambda: {"event": "init", "sizes": sizes()})
    result = cex = None  # cex: the last counterexample, until a repair follows it
    while result is None:
        stats.rounds += 1
        if stats.rounds > cap:
            raise LearningError(f"no convergence within {cap} rounds")
        while (defect := table.check()).kind != "cohesive":
            if defect.kind == "not_closed" and max_states is not None \
                    and len(table.S) >= max_states:
                raise LearningError(f"closing the table would pass max_states={max_states}")
            if defect.kind == "not_consistent":
                base, w2, a, e = defect.witness
                if (a,) + e in table.E:  # a·e is equal in both rows: a word has two answers
                    word = next(w + (a,) + e for w in (base, w2)
                                if table.cell(w, (a,) + e) != table.cell(w + (a,), e))
                    raise LearningError(f"the teacher answered {word} two ways")
            table.repair(defect)
            cex = None
            emit(lambda: {"event": "repair", "kind": defect.kind,
                          "witness": defect.witness, "sizes": sizes()})
        evidence = build_evidence(table)
        hyp = sep_pred(evidence, algebra, memo)
        _check_hypothesis(table, evidence, hyp)
        if cex is not None:  # no repair since cex: hyp is as it was and matches cex's cell
            raise LearningError(f"counterexample {cex} does not distinguish the hypothesis")
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
            emit(lambda: {"event": "counterexample", "word": cex, "sizes": sizes()})

    stats.sigma_e_size = len(table.sigma_e)
    stats.r_size = len(table.R)
    stats.e_size = len(table.E)
    output = getattr(oracle, "output", None)
    if output is not None:
        stats.output_queries = output.distinct_queries
        stats.total_output_queries = output.total_queries
    stats.wall_time = time.perf_counter() - start
    return result, stats
