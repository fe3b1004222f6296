import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalearn import automata, learner
from smalearn.algebra import Algebra
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
from smalearn.partition import partitioner_for

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
    sep_pred_full_layout,
    sym_machines,
)


def test_golden_trace_step_for_step():
    target = make_worked_example()
    oracle = ScriptedOracle(target, GOLDEN_COUNTEREXAMPLES)
    trace = []
    learned, stats = learn(oracle, NAT, trace=trace)

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
    def refuse(self):
        raise AssertionError("snapshot taken although no trace was requested")

    monkeypatch.setattr(ObservationTable, "snapshot", refuse)
    for target in (make_worked_example(), make_lower_bound(3, 3)):
        learned, _ = learn(Oracle(target, mode="lexmin"), NAT)
        assert symbolic_equiv(learned, target) is None


def assert_table_consistent(table):
    assert table.columns() == [(a,) for a in table.sigma_e] + table.E
    for w in table.words():
        assert table.row(w) == tuple(table.cells[(w, col)] for col in table.columns())
    assert table.structural_violations() == []
    words = set(table.S) | set(table.R)
    assert table._words == words
    assert table._sorted_words == sorted(words, key=shortlex_key)
    assert table._sorted_R == sorted(table.R, key=shortlex_key)
    assert table._sorted_columns == sorted(table.columns(), key=shortlex_key)
    if table._s_rows is not None:
        assert table._s_rows == {table.row(s) for s in table.S}
        assert_heap(table._unclosed, lambda r: r)
        assert unclosed_words(table) == {r for r in table.R if table.row(r) not in table._s_rows}
    assert_heap(table._gaps, lambda s, a: s + (a,))
    live = {(s, a) for _, s, a in table._gaps if s + (a,) not in words}
    assert live == {(s, a) for s in table.S for a in table.sigma_e if s + (a,) not in words}
    if table._groups is not None:
        groups = {}
        for w in sorted(words - {()}, key=shortlex_key):
            groups.setdefault((table.row(w[:-1]), w[-1]), []).append(w[:-1])
        assert table._groups == groups


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


@contextmanager
def corrupted(table, cells):
    """Flip ``cells`` to an output no cell has, then restore them."""
    saved = {c: table.cells[c] for c in cells}
    for w, col in cells:
        table.cells[(w, col)] += "!"
        table._row_cache.pop(w, None)
    try:
        yield
    finally:
        table.cells.update(saved)
        for w, _ in cells:
            table._row_cache.pop(w, None)


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
    n, initial, delta = evidence.n_states, evidence.initial, dict(evidence.delta)
    q, a = rng.choice(list(delta))
    succ, out = delta[(q, a)]
    if how == "successor":
        delta[(q, a)] = ((succ + 1) % n, out)
    elif how == "output":
        delta[(q, a)] = (succ, out + "!")
    elif how == "extra-state":
        delta.update({(n, b): delta[(0, b)] for b in evidence.alphabet})
        n += 1
    else:
        initial = 1
    return ConcreteMealy(evidence.alphabet, n, initial, evidence.outputs, delta)


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
    sep_pred_memo, grows_inside = learner.sep_pred, automata._grows_inside

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
        mp.setattr(automata, "_grows_inside", recorded)
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
    delta = dict(base.delta)
    delta.update({(q, a): (q, "w") for q in range(n, n + extra) for a in base.alphabet})
    outputs = [*base.outputs, "w", *(f"v{i}" for i in range(extra))]
    return ConcreteMealy(base.alphabet, n + extra, base.initial, outputs, delta)


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
        mp.setattr(automata, "_grows_inside", recording(automata._grows_inside, kept))
        mp.setattr(helpers, "_grows_inside_full_layout",
                   recording(helpers._grows_inside_full_layout, ref_kept))
        step = max(1, len(chars) // 10)  # at most about ten rounds on large grids
        for extra, k in enumerate(sorted({*range(1, len(chars), step), len(chars)})):
            evidence = grown_evidence(target, chars[:k], min(extra, 2))
            hyp = sep_pred(evidence, alg, memo)
            ref = sep_pred_full_layout(evidence, alg, partitioner_for(alg), ref_memo)
            assert hyp == ref and hyp.transitions == ref.transitions
            assert kept == ref_kept
