import random
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalearn import learner
from smalearn.algebra import Algebra, member, merged_table
from smalearn.automata import ConcreteMealy, SMealy, restrict, shortlex_key, symbolic_equiv
from smalearn.bench import (
    RandomSpec,
    make_atgs,
    make_lower_bound,
    make_mh,
    make_worked_example,
    random_sma,
)
from smalearn.learner import LearningError, build_evidence, learn, sep_pred
from smalearn.obstable import Defect, ObservationTable
from smalearn.oracle import Oracle, ScriptedOracle, essential_characters
from smalearn.partition import label_map_for, partitioner_for

NAT = Algebra.naturals()


import helpers
from helpers import (
    GOLDEN_COUNTEREXAMPLES,
    GOLDEN_REPAIRS,
    GOLDEN_TABLES,
    GUARD_ALGEBRAS,
    RescanTable,
    as_snapshot,
    check_hypothesis_per_word,
    domain_chars,
    eager_sep_pred_transitions,
    endpoint_grid,
    essential_characters_two_branch,
    grows_inside_by_member,
    random_nat_groups,
    random_product_groups,
    record_tables,
    sep_pred_full_layout,
    sym_machines,
    symbolic_equiv_pairwise,
)


def test_golden_trace_step_for_step(monkeypatch):
    target = make_worked_example()
    oracle = ScriptedOracle(target, GOLDEN_COUNTEREXAMPLES)
    trace, attach_tables = [], record_tables(monkeypatch)
    learned, stats = learn(oracle, NAT, trace=trace)
    attach_tables(trace)

    assert stats.eq_queries == 4
    assert symbolic_equiv(learned, target) is None
    assert learned == target  # same state numbering and canonical guards

    repair_kinds = [e["kind"] for e in trace if e["event"] == "repair"]
    assert repair_kinds == GOLDEN_REPAIRS

    init = next(e for e in trace if e["event"] == "init")
    cex_tables = [e["table"] for e in trace if e["event"] == "counterexample"]
    repair_tables = [e["table"] for e in trace if e["event"] == "repair"]
    assert init["table"] == as_snapshot(GOLDEN_TABLES[1])
    assert cex_tables[0] == as_snapshot(GOLDEN_TABLES[2])
    assert repair_tables[0] == as_snapshot(GOLDEN_TABLES[3])
    assert cex_tables[1] == as_snapshot(GOLDEN_TABLES[4])
    assert repair_tables[1] == as_snapshot(GOLDEN_TABLES[5])
    assert repair_tables[4] == as_snapshot(GOLDEN_TABLES[6])
    assert repair_tables[8] == as_snapshot(GOLDEN_TABLES[7])
    assert cex_tables[2] == as_snapshot(GOLDEN_TABLES[8])
    assert repair_tables[9] == as_snapshot(GOLDEN_TABLES[9])
    assert repair_tables[12] == as_snapshot(GOLDEN_TABLES[10])

    hyp_states = [e["states"] for e in trace if e["event"] == "hypothesis"]
    assert hyp_states == [1, 1, 4, 4]


def drive_to_cohesion(table):
    while (d := table.check()).kind != "cohesive":
        table.repair(d)


def test_evidence_and_hypotheses_per_round():
    target = make_worked_example()
    table = ObservationTable(NAT, target.run, 0)
    iv = NAT.interval

    # round 1: trivial one-state machine
    ev = build_evidence(table)
    assert ev.n_states == 1 and ev.step(0, 0) == (0, "S")
    hyp = sep_pred(ev, NAT)
    assert hyp.transitions[0].guard == NAT.top()

    # round 2: still one state, two outputs
    table.add_counterexample((20,))
    drive_to_cohesion(table)
    ev = build_evidence(table)
    assert ev.n_states == 1
    assert ev.step(0, 0) == (0, "S") and ev.step(0, 20) == (0, "B")
    hyp = sep_pred(ev, NAT)
    assert {(t.guard, t.output) for t in hyp.transitions} == \
        {(iv(0, 20), "S"), (iv(20, None), "B")}

    # round 3: four states; state q2 (row of 0.0) splits on 20 vs 0
    table.add_counterexample((0, 0, 0))
    drive_to_cohesion(table)
    ev = build_evidence(table)
    assert ev.n_states == 4
    assert ev.step(2, 20) == (1, "P")
    assert ev.step(2, 0) == (3, "P")
    hyp = sep_pred(ev, NAT)
    q2 = {(t.guard, t.target) for t in hyp.state_transitions(2)}
    assert q2 == {(iv(0, 20), 3), (iv(20, None), 1)}

    # round 4: the final machine
    table.add_counterexample((0, 0, 10, 0))
    drive_to_cohesion(table)
    ev = build_evidence(table)
    assert ev.step(0, 0) == (1, "S") and ev.step(0, 10) == (1, "S")
    hyp = sep_pred(ev, NAT)
    q2 = {(t.guard, t.target) for t in hyp.state_transitions(2)}
    assert q2 == {(iv(0, 10), 3), (iv(10, None), 1)}
    assert hyp == target


def test_lexmin_oracle_reproduces_reference_run():
    target = make_worked_example()
    trace = []
    learned, stats = learn(Oracle(target, mode="lexmin"), NAT, trace=trace)
    cexes = [e["word"] for e in trace if e["event"] == "counterexample"]
    assert cexes == [(20,), (0, 0, 0), (0, 0, 10, 0)]
    assert stats.eq_queries == 4
    assert learned == target


def test_trivial_target_costs():
    target = SMealy(NAT, 1, 0, [], [(0, NAT.top(), 0, "o")])
    learned, stats = learn(Oracle(target), NAT)
    assert stats.eq_queries == 1
    assert stats.output_queries == 2
    assert learned == target


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 6)])
def test_lower_bound_eq_queries(n, k):
    target = make_lower_bound(n, k)
    learned, stats = learn(Oracle(target, mode="lexmin"), NAT, a0=0)
    assert stats.eq_queries == n + k
    assert symbolic_equiv(learned, target) is None


def bound_output_queries(n, m, f):
    return (f + m + 1) * n * n + (2 * m + f + 1) * f * n + m * f * f


@pytest.mark.parametrize("target", [make_worked_example(), make_mh(), make_lower_bound(3, 3),
                                    random_sma(RandomSpec(8, 6, 1))],
                         ids=["worked-example", "mh", "lower-3-3", "nat-8-6-1"])
def test_evidence_rows_read_the_cohesive_table(monkeypatch, target):
    """In every round, evidence state i is S[i], and it steps each character a of sigma_e to
    (the state whose row is row(S[i]·a), cell(S[i], a))."""
    check, rounds = learner._check_hypothesis, []

    def checked(table, evidence, hyp):
        state = {table.row(s): i for i, s in enumerate(table.S)}
        assert evidence.alphabet == tuple(sorted(table.sigma_e))
        assert (evidence.n_states, evidence.initial) == (len(table.S), 0)
        assert evidence.outputs == tuple(table.gamma)
        for i, s in enumerate(table.S):
            for a in table.sigma_e:
                assert evidence.step(i, a) == (state[table.row(s + (a,))], table.cell(s, (a,)))
        rounds.append(evidence)
        check(table, evidence, hyp)

    monkeypatch.setattr(learner, "_check_hypothesis", checked)
    learned, stats = learn(Oracle(target), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert len(rounds) == stats.eq_queries


def test_evidence_from_a_table_that_is_not_cohesive():
    target = make_worked_example()
    table = ObservationTable(NAT, target.run, 0)
    table.make_closed(Defect("not_closed", ((0,),)))  # row(0) equals row(ε)
    with pytest.raises(LearningError, match=r"^S-rows \(\) and \(0,\) coincide$"):
        build_evidence(table)
    table = ObservationTable(NAT, target.run, 0)
    for cex in GOLDEN_COUNTEREXAMPLES[:2]:
        table.add_counterexample(cex)
        table.repair(table.check())
    assert table.check() == Defect("not_closed", ((0,),))
    with pytest.raises(LearningError, match=r"^table is not closed at \(0,\)$"):
        build_evidence(table)


def test_random_targets_end_to_end_invariants():
    for seed in range(6):
        spec = RandomSpec(n=8, k=6, seed=seed)
        target = random_sma(spec)
        essential = essential_characters(target)
        oracle = Oracle(target, mode="lexmin")
        trace = []
        learned, stats = learn(oracle, NAT, trace=trace)
        assert symbolic_equiv(learned, target) is None
        assert learned.n_states <= target.n_states
        assert stats.eq_queries <= target.n_states + len(essential)
        f, m = len(essential), max(stats.max_cex_len, 1)
        assert stats.output_queries <= bound_output_queries(target.n_states, m, f)
        for e in trace:
            if e["event"] == "counterexample":
                assert set(e["word"]) <= set(essential)
            if e["event"] == "hypothesis":
                assert set(e["sigma_e"]) <= set(essential)
                assert e["states"] <= target.n_states


def test_learn_with_non_minimum_start_character():
    target = make_worked_example()
    learned, stats = learn(Oracle(target), NAT, a0=20)
    assert symbolic_equiv(learned, target) is None


def test_round_cap():
    from smalearn.learner import LearningError

    class StallingOracle:
        def __init__(self, target):
            self.target = target

        def output_query(self, w):
            return self.target.run(w)

        def equivalence_query(self, hyp):
            return (20,) if hyp.run((20,)) != self.target.run((20,)) else (0, 0, 0)

    target = make_worked_example()
    with pytest.raises(LearningError):
        learn(StallingOracle(target), NAT, max_rounds=3)


def test_learn_without_trace_takes_no_snapshot(monkeypatch):
    """No learn copies its table, traced or not: a trace's events carry the table's sizes."""
    def refuse(self):
        raise AssertionError("table snapshot taken in a learn")

    monkeypatch.setattr(ObservationTable, "snapshot", refuse)
    for trace in (None, []):
        for target in (make_worked_example(), make_lower_bound(3, 3)):
            learned, _ = learn(Oracle(target, mode="lexmin"), NAT, trace=trace)
            assert symbolic_equiv(learned, target) is None
    assert all(set(e["sizes"]) == {"S", "R", "sigma_e", "E"}
               for e in trace if e["event"] in ("init", "repair", "counterexample"))


def assert_table_consistent(table):
    assert table.columns() == [(a,) for a in table.sigma_e] + table.E
    assert table._index == {col: i for i, col in enumerate(table.columns())}
    words = set(table.S) | set(table.R)
    assert set(table._rows) == words
    assert all(len(row) == len(table.columns()) for row in table._rows.values())
    cells = table.cells  # built from the rows on every read
    assert cells == {(w, col): out for w, row in table._rows.items()
                     for col, out in zip(table.columns(), row)}
    assert table.structural_violations() == []
    assert table._sorted_words == sorted(words, key=shortlex_key)
    assert table._s_rows == {table.row(s) for s in table.S}
    assert_heap(table._unclosed, lambda r: r)
    assert unclosed_words(table) == {r for r in table.R if table.row(r) not in table._s_rows}
    assert_heap(table._gaps, lambda s, a: s + (a,))
    live = {(s, a) for _, s, a in table._gaps if s + (a,) not in words}
    assert live == {(s, a) for s in table.S for a in table.sigma_e if s + (a,) not in words}
    groups = {}
    for w in sorted(words - {()}, key=shortlex_key):
        groups.setdefault((table.row(w[:-1]), w[-1]), []).append(w[:-1])
    assert table._groups == groups
    witnesses = {g: table._group_witness(g) for g in groups}
    assert table._witnesses == {g: found for g, found in witnesses.items() if found is not None}


def unclosed_words(table):
    """The live entries of the unclosed heap."""
    return {r for _, r in table._unclosed if table.row(r) not in table._s_rows}


def assert_heap(heap, word_of):
    """Each entry is keyed by the shortlex key of its word, and ``heap`` is a heap."""
    for key, *rest in heap:
        assert key == shortlex_key(word_of(*rest))
    for i in range(1, len(heap)):
        assert heap[(i - 1) // 2] <= heap[i]


def assert_check_matches_rescan(table):
    assert table.check() == RescanTable(table).check()


@pytest.mark.parametrize("target,mode,seed", [
    (make_worked_example(), "lexmin", None),
    (make_lower_bound(3, 3), "lexmin", None),
    (make_mh(), "random", 3),
    (random_sma(RandomSpec(n=20, k=10, seed=5)), "random", 11),
], ids=["worked-example", "lower:3,3", "mh-random", "nat-20-random"])
def test_incremental_table_after_every_change(monkeypatch, target, mode, seed):
    changes, checks = [], []
    for name in ("repair", "add_counterexample"):
        original = getattr(ObservationTable, name)

        def checked(self, arg, original=original):
            original(self, arg)
            assert_table_consistent(self)
            assert_check_matches_rescan(self)
            changes.append(arg)

        monkeypatch.setattr(ObservationTable, name, checked)
    check = learner._check_hypothesis

    def both_checks(table, evidence, hyp):
        check_hypothesis_per_word(table, evidence, hyp)
        check(table, evidence, hyp)
        checks.append(hyp)

    monkeypatch.setattr(learner, "_check_hypothesis", both_checks)
    learned, stats = learn(Oracle(target, mode=mode, seed=seed), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert len(changes) > stats.eq_queries
    assert len(checks) == stats.eq_queries


def test_table_index_rebuilds_once_per_column_never_in_check(monkeypatch):
    """The indexes that read rows are rebuilt when the table is built and when a column is
    added, never while ``check`` runs: 68 times in a complete lexmin learn of atgs."""
    rebuilds, checking = [], []
    index_rows, check = ObservationTable._index_rows, ObservationTable.check

    def counted(self):
        rebuilds.append((self, bool(checking)))
        index_rows(self)

    def checked(self):
        checking.append(self)
        try:
            return check(self)
        finally:
            checking.pop()

    monkeypatch.setattr(ObservationTable, "_index_rows", counted)
    monkeypatch.setattr(ObservationTable, "check", checked)
    target = make_atgs()
    learned, _ = learn(Oracle(target), target.algebra)
    assert symbolic_equiv(learned, target) is None
    table = rebuilds[0][0]
    assert rebuilds == [(table, False)] * len(table.columns()) and len(rebuilds) == 68


@contextmanager
def corrupted(table, cells):
    """Flip ``cells`` to an output no cell has, then restore their rows."""
    saved = {w: table._rows[w] for w, _ in cells}
    for w, col in cells:
        i = table.columns().index(col)
        row = table._rows[w]
        table._rows[w] = row[:i] + (row[i] + "!",) + row[i + 1:]
    try:
        yield
    finally:
        table._rows.update(saved)


@pytest.mark.parametrize("target,mode,seed", [
    (make_worked_example(), "lexmin", None),
    (make_lower_bound(3, 3), "lexmin", None),
    (make_mh(), "random", 3),
], ids=["worked-example", "lower:3,3", "mh-random"])
def test_corrupted_cells_fail_both_hypothesis_checks_alike(monkeypatch, target, mode, seed):
    """In every round, one or two corrupted cells make the per-state check and
    the per-word reference raise the same message."""
    rng = random.Random(7)
    check, rounds = learner._check_hypothesis, []

    def failures(table, evidence, hyp):
        messages = []
        for checker in (check_hypothesis_per_word, check):
            with pytest.raises(LearningError) as info:
                checker(table, evidence, hyp)
            messages.append(str(info.value))
        return messages

    def checked(table, evidence, hyp):
        cells = [(w, col) for w in table.words() for col in table.columns()]
        for w, col in rng.sample(cells, min(8, len(cells))):
            with corrupted(table, {(w, col)}):
                expected = f"evidence machine contradicts cell ({w}, {col})"
                assert failures(table, evidence, hyp) == [expected, expected]
            with corrupted(table, {(w, col), rng.choice(cells)}):
                reference, message = failures(table, evidence, hyp)
                assert message == reference
        check(table, evidence, hyp)
        rounds.append(hyp)

    monkeypatch.setattr(learner, "_check_hypothesis", checked)
    learned, stats = learn(Oracle(target, mode=mode, seed=seed), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert len(rounds) == stats.eq_queries


def off_the_evidence(evidence: ConcreteMealy, how: str, rng: random.Random) -> ConcreteMealy:
    """``evidence`` with one successor or one output changed, a copy of state 0 added, or
    state 1 made initial."""
    n, initial, rows = evidence.n_states, evidence.initial, [list(r) for r in evidence.rows]
    q, i = rng.choice([(q, i) for q in range(n) for i in range(len(evidence.alphabet))])
    succ, out = rows[q][i]
    if how == "successor":
        rows[q][i] = ((succ + 1) % n, out)
    elif how == "output":
        rows[q][i] = (succ, out + "!")
    elif how == "extra-state":
        rows.append(list(rows[0]))
    else:
        initial = 1
    return ConcreteMealy(evidence.alphabet, rows, initial, evidence.outputs)


@pytest.mark.parametrize("how", ["successor", "output", "extra-state", "initial"])
@pytest.mark.parametrize("target", [make_worked_example(), make_mh()], ids=["worked-example", "mh"])
def test_hypotheses_off_the_evidence_fail_both_hypothesis_checks_alike(monkeypatch, target, how):
    """In every round with two states or more, a hypothesis built from evidence changed in
    one way makes the check and the per-word reference raise the same message."""
    rng = random.Random(13)
    check, rounds = learner._check_hypothesis, []

    def checked(table, evidence, hyp):
        if evidence.n_states > 1:
            wrong = sep_pred(off_the_evidence(evidence, how, rng), table.algebra)
            for checker in (check_hypothesis_per_word, check):
                with pytest.raises(LearningError, match=r"^hypothesis restricted to sigma_e "
                                                        r"differs from the evidence$"):
                    checker(table, evidence, wrong)
            rounds.append(hyp)
        check(table, evidence, hyp)

    monkeypatch.setattr(learner, "_check_hypothesis", checked)
    learned, _ = learn(Oracle(target), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert rounds


@contextmanager
def fresh_partition_every_round():
    """Make ``learn`` also partition from scratch in every round and compare.

    Yields the list of reuse decisions, one per state partition that had an
    earlier round's entry in the memo.
    """
    reused = []
    sep_pred_memo, grows_inside = learner.sep_pred, learner._grows_inside

    def checked(evidence, algebra, memo=None):
        assert memo is not None
        hyp = sep_pred_memo(evidence, algebra, memo)
        fresh = sep_pred_memo(evidence, algebra)
        assert hyp == fresh
        return hyp

    def recorded(*args):
        reused.append(grows_inside(*args))
        return reused[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "sep_pred", checked)
        mp.setattr(learner, "_grows_inside", recorded)
        yield reused


@pytest.mark.parametrize("target,mode,seed,max_rounds", [
    (make_worked_example(), "lexmin", None, None),
    (make_lower_bound(3, 3), "lexmin", None, None),
    (make_mh(), "random", 3, None),
    (make_atgs(), "lexmin", None, 25),
    (random_sma(RandomSpec(n=20, k=10, seed=5)), "random", 11, None),
], ids=["worked-example", "lower:3,3", "mh-random", "atgs-25-rounds", "nat-20-random"])
def test_kept_partitions_match_fresh_ones_every_round(target, mode, seed, max_rounds):
    with fresh_partition_every_round() as reused:
        try:
            learned, _ = learn(Oracle(target, mode=mode, seed=seed), target.algebra,
                               max_rounds=max_rounds)
        except LearningError:
            assert max_rounds is not None
        else:
            assert symbolic_equiv(learned, target) is None
    assert any(reused)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
def test_kept_partitions_match_fresh_ones_on_small_targets(n, k, seed):
    target = random_sma(RandomSpec(n=n, k=k, seed=seed, boundary_top=12))
    with fresh_partition_every_round():
        learned, _ = learn(Oracle(target, mode="random", seed=seed), NAT)
    assert symbolic_equiv(learned, target) is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
       steps=st.lists(st.tuples(st.lists(st.integers(0, 12), min_size=1, max_size=5),
                                st.integers(0, 12)),
                      min_size=1, max_size=6))
def test_defect_search_matches_rescan(n, k, seed, steps):
    """Counterexamples added to tables in any state, each followed by up to ``repairs`` repairs.

    With no repair between two counterexamples, the second one arrives
    before any ``check`` has re-examined what the first one changed.
    """
    target = random_sma(RandomSpec(n=n, k=k, seed=seed, boundary_top=12))
    table = ObservationTable(NAT, target.run, 0)
    for cex, repairs in steps:
        table.add_counterexample(cex)
        assert_table_consistent(table)
        for _ in range(repairs):
            defect = table.check()
            assert defect == RescanTable(table).check()
            if defect.kind == "cohesive":
                break
            table.repair(defect)
            assert_table_consistent(table)
    assert_check_matches_rescan(table)


def test_one_make_closed_closes_every_r_row_sharing_the_row():
    """Every non-empty word has the row ("b",), the empty word ("a",).  (0,) is
    unclosed at the first check; the words added after it are pushed onto the
    unclosed heap, (1,) below entries of longer words.  Moving (0,) to S
    closes them all at once."""
    table = ObservationTable(NAT, lambda w: "a" if len(w) == 1 else "b", 0)
    assert table.check() == Defect("not_closed", ((0,),))
    for cex in ((5, 5), (5, 6), (1,)):
        table.add_counterexample(cex)
        assert_table_consistent(table)
    assert unclosed_words(table) == {(0,), (1,), (5,), (5, 5), (5, 6)}
    defect = table.check()
    assert defect == RescanTable(table).check() == Defect("not_closed", ((0,),))
    table.repair(defect)
    assert_table_consistent(table)
    assert unclosed_words(table) == set()
    assert table.check() == RescanTable(table).check() == Defect("not_evidence_closed",
                                                                 ((0,), 0))


def test_new_sigma_e_character_opens_a_gap_per_s_word():
    table = ObservationTable(NAT, make_worked_example().run, 0)
    table.add_counterexample((0, 0, 0))
    drive_to_cohesion(table)
    assert len(table.S) == 4 and 5 not in table.sigma_e
    table.make_output_closed(Defect("not_output_closed", ((), 5)))
    assert_table_consistent(table)
    gaps = sorted((s + (5,) for s in table.S), key=shortlex_key)
    filled = []
    while (defect := table._find_evidence_gap()) is not None:
        assert defect == RescanTable(table)._find_evidence_gap()
        filled.append(defect.witness[0] + (defect.witness[1],))
        table.repair(defect)
        assert_table_consistent(table)
    assert filled == gaps


def grown_evidence(target, chars, extra):
    """``target`` restricted to ``chars``, plus ``extra`` states that loop on every character
    with output "w" and ``extra`` declared outputs that no transition gives."""
    base = restrict(target, chars)
    n = base.n_states
    rows = base.rows + [[(q, "w")] * len(base.alphabet) for q in range(n, n + extra)]
    outputs = [*base.outputs, "w", *(f"v{i}" for i in range(extra))]
    return ConcreteMealy(base.alphabet, rows, base.initial, outputs)


@pytest.mark.parametrize("kind", ["interval-nat", "interval-nat-bounded", "interval-real",
                                  "product-2", "product-3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sep_pred_matches_full_layout_reference_through_one_memo(kind, data):
    """One memo per side, threaded through evidence machines whose alphabets are growing
    prefixes of the essential characters (and whose states and outputs grow too): every
    hypothesis is the reference's, transition order included, and both sides keep or
    partition again the same states."""
    alg = GUARD_ALGEBRAS[kind]
    target = data.draw(sym_machines(alg, valid=True))
    chars = essential_characters(target)
    memo, ref_memo, kept, ref_kept = {}, {}, [], []

    def recording(grows_inside, decisions):
        def recorded(*args):
            decisions.append(grows_inside(*args))
            return decisions[-1]
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_grows_inside", recording(learner._grows_inside, kept))
        mp.setattr(helpers, "_grows_inside_full_layout",
                   recording(helpers._grows_inside_full_layout, ref_kept))
        step = max(1, len(chars) // 10)  # at most about ten rounds on large grids
        for extra, k in enumerate(sorted({*range(1, len(chars), step), len(chars)})):
            evidence = grown_evidence(target, chars[:k], min(extra, 2))
            hyp = sep_pred(evidence, alg, memo)
            ref = sep_pred_full_layout(evidence, alg, partitioner_for(alg), ref_memo)
            assert hyp == ref and hyp.transitions == ref.transitions
            assert kept == ref_kept


@pytest.mark.parametrize("kind", ["interval-nat", "interval-nat-bounded", "interval-real",
                                  "product-2", "product-3"])
def test_sep_pred_compiles_each_state_as_its_guards_would_through_one_memo(kind):
    """Each hypothesis's compiled tables, read off its partitions' label maps or kept in the
    memo, and its transition order are what ``SMealy`` compiles from its guards; over the
    examples, states are both kept and partitioned again."""
    alg = GUARD_ALGEBRAS[kind]
    decisions = set()

    def recorded(*args):
        decisions.add(kept := grows_inside(*args))
        return kept

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        target = data.draw(sym_machines(alg, valid=True))
        chars = essential_characters(target)
        memo = {}
        step = max(1, len(chars) // 10)
        for extra, k in enumerate(sorted({*range(1, len(chars), step), len(chars)})):
            evidence = grown_evidence(target, chars[:k], min(extra, 2))
            hyp = sep_pred(evidence, alg, memo)
            ref = SMealy(alg, evidence.n_states, 0, evidence.outputs,
                         [(t.source, t.guard, t.target, t.output) for t in hyp.transitions])
            assert (hyp._tables, hyp._overlaps, hyp.transitions, hyp.outputs) == \
                (ref._tables, ref._overlaps, ref.transitions, ref.outputs)
            probes = endpoint_grid(alg, [t.guard for t in hyp.transitions])
            probes += data.draw(st.lists(domain_chars(alg), max_size=5))
            assert all(hyp.step(q, a) == ref.step(q, a)
                       for q in range(hyp.n_states) for a in probes)

    grows_inside = learner._grows_inside
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_grows_inside", recorded)
        check()
    assert decisions == {True, False}


def evidence_from_state0(moves, n_states=1):
    """Evidence-like machine: state 0 maps each character to its (successor, output)."""
    alphabet = sorted(moves)
    rows = [[moves[a] for a in alphabet]] + [[(0, "a")] * len(alphabet)] * (n_states - 1)
    return ConcreteMealy(alphabet, rows, 0, ["a", "b"])


@pytest.mark.parametrize("after,kept", [
    ({0: (0, "a"), 5: (0, "b"), 7: (0, "b"), 2: (0, "a")}, True),  # each inside its predicate
    ({0: (0, "a"), 5: (0, "b"), 3: (0, "b")}, False),  # 3 lies in the other group's predicate
    ({5: (0, "b")}, False),  # sample 0 left its group
    ({0: (0, "b"), 5: (0, "b")}, False),  # sample 0 moved to the other group
    ({0: (0, "a"), 5: (0, "b"), 9: (1, "a")}, False),  # a key that was empty gets a sample
], ids=["grown-inside", "grown-outside", "sample-left", "sample-moved", "new-key"])
def test_sep_pred_memo_keeps_only_what_partitioning_again_would_give(after, kept):
    before = evidence_from_state0({0: (0, "a"), 5: (0, "b")})
    memo = {}
    hyp = sep_pred(before, NAT, memo)
    assert {(t.target, t.output): t.guard for t in hyp.transitions} == {
        (0, "a"): NAT.interval(0, 5), (0, "b"): NAT.interval(5, None)}
    kept_state = memo[0][1]
    machine = evidence_from_state0(after, n_states=2)
    again = sep_pred(machine, NAT, memo)
    fresh = sep_pred(machine, NAT)
    assert again == fresh and again._tables == fresh._tables
    # one transition per key whose group holds samples, by witness
    assert [{(t.target, t.output) for t in again.state_transitions(q)}
            for q in range(machine.n_states)] == [
        {machine.step(q, a) for a in machine.alphabet} for q in range(machine.n_states)]
    assert again.transitions == SMealy(NAT, machine.n_states, 0, machine.outputs, [
        (t.source, t.guard, t.target, t.output) for t in again.transitions]).transitions
    assert (memo[0][1] is kept_state) == kept


def random_state_groups(rng, alg):
    """Random disjoint sample groups over ``alg``, normalized and keyed by (successor, output)
    as ``state_groups`` keys them, none empty."""
    raw = (random_product_groups(rng, alg) if alg.components
           else random_nat_groups(rng, max_chars=alg.bound or 40))
    return {(i, "a"): {alg.norm_char(a) for a in g} for i, g in enumerate(raw) if g}


def random_evidence(rng, alg):
    """Evidence whose state 0 has ``random_state_groups`` and whose other states send each
    character of the same alphabet to a random successor and output."""
    groups = random_state_groups(rng, alg)
    n = max(succ for succ, _ in groups) + 1 + rng.randrange(2)
    alphabet = sorted(a for g in groups.values() for a in g)
    moves = {a: key for key, g in groups.items() for a in g}
    rows = [[moves[a] for a in alphabet]] + [
        [(rng.randrange(n), rng.choice("ab")) for _ in alphabet] for _ in range(n - 1)]
    return ConcreteMealy(alphabet, rows, 0, ["a", "b"])


@pytest.mark.parametrize("kind", list(GUARD_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sep_pred_hypothesis_is_lazy_over_its_compiled_tables(kind, data):
    """A hypothesis from ``sep_pred`` answers ``essential_characters`` and ``symbolic_equiv``
    off its compiled tables, without reading its guards, as the references that read them
    do; the guards it reads on first use are those ``sep_pred`` built eagerly, by witness,
    in the order of its labels."""
    alg = GUARD_ALGEBRAS[kind]
    evidence = random_evidence(random.Random(data.draw(st.integers(0, 2**32))), alg)
    hyp, m = sep_pred(evidence, alg), data.draw(sym_machines(alg, valid=True))
    chars, witness = essential_characters(hyp), symbolic_equiv(hyp, m)
    assert "_by_state" not in vars(hyp) and "transitions" not in vars(hyp)
    assert chars == essential_characters_two_branch(hyp)
    assert witness == symbolic_equiv_pairwise(hyp, m)
    assert all(list(hyp._labels[q]) == [(t.target, t.output) for t in hyp.state_transitions(q)]
               for q in range(hyp.n_states))
    assert hyp.transitions == eager_sep_pred_transitions(evidence, alg)


@pytest.mark.parametrize("kind", list(GUARD_ALGEBRAS))
def test_keep_test_on_the_compiled_table_decides_as_on_the_predicates(kind):
    """``_grows_inside`` on the lookup of a state's compiled table, as ``sep_pred`` builds it,
    decides as the keep test on the partition's predicates (``grows_inside_by_member``) on
    groups grown from random ones in each way the memo test names."""
    alg = GUARD_ALGEBRAS[kind]
    rng = random.Random(2600 + len(kind))
    seen = set()
    for _ in range(300):
        old = random_state_groups(rng, alg)
        keys, samples = list(old), [(key, a) for key, g in old.items() for a in g]
        preds = dict(zip(keys, partitioner_for(alg)(alg, list(old.values()))))
        table = merged_table(label_map_for(alg)(alg, old), alg.arity)
        groups = {key: set(g) for key, g in old.items()}
        fresh = [a for g in random_state_groups(rng, alg).values() for a in g
                 if all(a not in g for g in old.values())]
        case = rng.choice(["grown", "sample-left", "sample-moved", "new-key"])
        if case == "grown" and fresh:
            for a in fresh:  # mostly into the group whose predicate holds it
                inside = next(key for key in keys if member(preds[key], a))
                groups[inside if rng.random() < 0.7 else rng.choice(keys)].add(a)
        elif case == "sample-left" and len(samples) > 1:
            key, a = rng.choice(samples)
            groups[key].discard(a)
            if not groups[key]:
                del groups[key]
        elif case == "sample-moved" and len(keys) > 1:
            key, a = rng.choice(samples)
            groups[key].discard(a)
            groups[rng.choice([k for k in keys if k != key])].add(a)
            groups = {k: g for k, g in groups.items() if g}
        elif case == "new-key" and fresh:
            groups[(len(keys), "a")] = {fresh[0]}
        else:
            continue
        want = grows_inside_by_member(old, preds, groups)
        assert learner._grows_inside(old, alg.lookup(table), groups) == want
        seen.add((f"grown-{'inside' if want else 'outside'}" if case == "grown" else case, want))
    assert seen == {("grown-inside", True), ("grown-outside", False), ("sample-left", False),
                    ("sample-moved", False), ("new-key", False)}


def test_a_counterexample_that_distinguishes_nothing_ends_the_learn():
    """A teacher that serves a word the hypothesis already answers right gets a
    ``LearningError`` naming the word after that one equivalence query, not a stall."""
    target = make_worked_example()
    teacher = Oracle(target)
    calls = []

    def equivalence_query(hyp):
        calls.append(hyp)
        assert hyp.run((0,)) == target.run((0,))
        return (0,)

    teacher.equivalence_query = equivalence_query
    with pytest.raises(LearningError, match=r"counterexample \(0,\) does not distinguish"):
        learn(teacher, NAT)
    assert len(calls) == 1


@pytest.mark.parametrize("seed,word", [(15, (23, 1, 23)), (17, (0, 5, 0)),
                                       (23, (9, 9, 12, 0)), (38, (3, 2, 11, 3))])
def test_a_teacher_answering_one_word_two_ways_ends_the_learn(seed, word):
    """A consistency repair whose column is already in E needs a word answered two ways;
    the learn names it in a ``LearningError`` instead of failing inside the table."""
    rng, answers = random.Random(seed), {}

    class CoinTeacher:
        def output_query(self, w):
            answers.setdefault(tuple(w), set()).add(out := rng.choice("ab"))
            return out

        def equivalence_query(self, hyp):
            return tuple(rng.randrange(30) for _ in range(rng.randint(1, 3)))

    with pytest.raises(LearningError, match=f"^the teacher answered {re.escape(str(word))} "
                                            "two ways$"):
        learn(CoinTeacher(), NAT, max_rounds=200, max_states=30)
    assert answers[word] == {"a", "b"}


@pytest.mark.parametrize("name", ["worked-example", "mh", "random-20-10"])
@pytest.mark.parametrize("mode", ["lexmin", "random"])
def test_learn_poses_lazy_hypotheses(name, mode):
    """No hypothesis a learn poses has its guards read, by the learner or by the teacher's
    equivalence query; the learned machine reads them as ``SMealy`` compiles them."""
    target = {"worked-example": make_worked_example, "mh": make_mh,
              "random-20-10": lambda: random_sma(RandomSpec(20, 10, 2704))}[name]()
    teacher = Oracle(target, mode=mode, seed=27)
    posed, query = [], teacher.equivalence_query

    def equivalence_query(hyp):
        answer = query(hyp)
        posed.append("_by_state" not in vars(hyp))
        return answer

    teacher.equivalence_query = equivalence_query
    learned, stats = learn(teacher, target.algebra)
    assert posed == [True] * stats.eq_queries and stats.eq_queries > 1
    alg = learned.algebra
    assert learned.transitions == SMealy(alg, learned.n_states, 0, learned.outputs, [
        (t.source, t.guard, t.target, t.output) for t in learned.transitions]).transitions
    assert symbolic_equiv(learned, target) is None


def test_max_states_stops_a_teacher_that_answers_at_random():
    """A teacher that answers each word once, at random, fits no finite machine, and
    without a bound one round's repairs close the table forever; with ``max_states``
    the learn raises ``LearningError`` naming the bound before ``|S|`` passes it."""
    rng, answers = random.Random(2705), {}

    class RandomAnswers:
        output_query = staticmethod(lambda word: answers.setdefault(word, rng.choice("ab")))

        def equivalence_query(self, hyp):
            return tuple(rng.randrange(10) for _ in range(4))

    sizes = []
    real_repair = ObservationTable.repair

    def repair(table, defect):
        real_repair(table, defect)
        sizes.append(len(table.S))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ObservationTable, "repair", repair)
        with pytest.raises(LearningError, match="max_states=20"):
            learn(RandomAnswers(), NAT, max_states=20)
    assert max(sizes) == 20


@pytest.mark.parametrize("make", [make_worked_example, make_mh])
def test_max_states_at_the_target_size_changes_nothing_and_one_less_raises(make):
    target = make()
    learned, stats = learn(Oracle(target), target.algebra)
    bounded, bounded_stats = learn(Oracle(target), target.algebra, max_states=target.n_states)
    assert bounded == learned and bounded_stats.eq_queries == stats.eq_queries
    assert bounded_stats.output_queries == stats.output_queries
    with pytest.raises(LearningError, match=f"max_states={target.n_states - 1}"):
        learn(Oracle(target), target.algebra, max_states=target.n_states - 1)
