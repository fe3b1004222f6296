import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    GUARD_ALGEBRAS,
    INCOMPLETE_WORKED_EXAMPLES,
    FullTableSearch,
    check_partition_reconstruction_stepped,
    domain_chars,
    essential_characters_two_branch,
    lexmin_search,
    mutants,
    sym_machines,
    worked_example_without,
)
from smalearn import learner, oracle
from smalearn.algebra import Algebra, AlgebraError
from smalearn.automata import AutomatonError, SMealy, restrict, symbolic_equiv
from smalearn.bench import (
    RandomSpec,
    make_atgs,
    make_builtin,
    make_lower_bound,
    make_mh,
    make_worked_example,
    random_sma,
)
from smalearn.learner import sep_pred
from smalearn.oracle import (
    EquivOracle,
    Oracle,
    OracleAssumptionViolation,
    OutputOracle,
    ScriptedOracle,
    check_partition_reconstruction,
    essential_characters,
)

NAT = Algebra.naturals()


def one_state(*transitions):
    return SMealy(NAT, 1, 0, [], [(0, g, 0, o) for g, o in transitions])


def hyp_round1():
    return one_state((NAT.top(), "S"))


def hyp_round2():
    return one_state((NAT.interval(0, 20), "S"), (NAT.interval(20, None), "B"))


def hyp_round3():
    # third hypothesis of the reference run: alphabet {0,20} generalized
    iv = NAT.interval
    return SMealy(NAT, 4, 0, ["S", "B", "P"], [
        (0, iv(0, 20), 1, "S"), (0, iv(20, None), 0, "B"),
        (1, iv(0, 20), 2, "S"), (1, iv(20, None), 1, "B"),
        (2, iv(0, 20), 3, "P"), (2, iv(20, None), 1, "P"),
        (3, iv(0, None), 0, "P"),
    ])


def test_output_query_values_and_counting():
    oo = OutputOracle(make_worked_example())
    assert oo.query((20,)) == "B"
    assert oo.query((0, 0)) == "S"
    assert oo.query((0, 0, 10, 0)) == "S"
    assert oo.distinct_queries == 3
    oo.query((0, 0))
    assert oo.distinct_queries == 3
    assert oo.total_queries == 4
    with pytest.raises(ValueError):
        oo.query(())


PRODUCT_TARGETS = {"atgs": make_atgs(), "mh": make_mh()}
PRODUCT_CHARS = {name: essential_characters(t) for name, t in PRODUCT_TARGETS.items()}


@st.composite
def query_plans(draw):
    """A target and words over its essential characters, many extending earlier ones."""
    name = draw(st.sampled_from(sorted(PRODUCT_TARGETS)))
    chars = st.sampled_from(PRODUCT_CHARS[name])
    suffixes = st.lists(chars, min_size=1, max_size=4).map(tuple)
    words = []
    for _ in range(draw(st.integers(1, 25))):
        base = draw(st.sampled_from(words)) if words and draw(st.booleans()) else ()
        words.append(base + draw(suffixes))
    return name, words


@settings(max_examples=60, deadline=None)
@given(query_plans())
def test_output_oracle_resume_matches_run_and_counts(plan):
    name, words = plan
    target = PRODUCT_TARGETS[name]
    oo = OutputOracle(target)
    seen = {}
    for word in words:
        assert oo.query(word) == target.run(word)
        seen[word] = seen.get(word, 0) + 1
        assert (oo.distinct_queries, oo.total_queries) == (len(seen), sum(seen.values()))

    alg = target.algebra
    bad = tuple(c.min_char() - 1 for c in alg.components)
    for word in (words[0] + (bad,), (bad,) + words[0]):
        for _ in range(2):  # a failed word is not cached, so it fails again
            with pytest.raises(AlgebraError):
                oo.query(word)
            assert oo.distinct_queries == len(seen)
    assert oo.query(words[-1]) == target.run(words[-1])
    assert oo.distinct_queries == len(seen)


REAL = Algebra.reals(minimum=-5.0)


@pytest.mark.parametrize("target,first,then", [
    (make_worked_example(), (1,), (True,)),  # True == 1, and hashes alike
    (make_worked_example(), (1,), (True, 0)),  # resumed from the state of (1,)
    (SMealy(REAL, 1, 0, [], [(0, REAL.top(), 0, "x")]), (0.5,), (Fraction(1, 2),)),
], ids=["bool", "bool-resumed", "fraction"])
def test_output_query_checks_characters_an_equal_cached_word_holds(target, first, then):
    teacher = Oracle(target)
    assert teacher.output_query(first) == target.run(first)
    with pytest.raises(AlgebraError):
        target.run(then)
    with pytest.raises(AlgebraError):
        teacher.output_query(then)
    assert (teacher.output.distinct_queries, teacher.output.total_queries) == (1, 1)


def test_output_query_rejects_an_unhashable_character_without_counting():
    teacher = Oracle(make_builtin("mh"))
    for word in (([0, 0, 0, 0],), ((0, 0, 0, 0), [0, 0, 0, 0])):
        with pytest.raises(AlgebraError, match="expected 4-tuple"):
            teacher.output_query(word)
    assert (teacher.output.distinct_queries, teacher.output.total_queries) == (0, 0)


def _twin(alg, a):
    """A valid character equal to ``a`` but another object."""
    if alg.kind == "product":
        return tuple([_twin(c, x) for c, x in zip(alg.components, a)])
    if alg.kind == "interval-nat":
        return float(a)
    return int(a) if a.is_integer() else a + 0.0


@st.composite
def _hostile(draw, alg, a):
    """A value ``norm_char`` rejects, often one equal to ``a`` or to a component of it."""
    if alg.kind == "product":
        i = draw(st.integers(0, alg.arity - 1))
        bad = draw(_hostile(alg.components[i], a[i]))
        return draw(st.sampled_from([a[:i] + (bad,) + a[i + 1:], a[:-1], a + a[:1], list(a)]))
    return draw(st.sampled_from([Fraction(a), a == alg.min_char(), math.nan, math.inf,
                                 -math.inf, alg.min_char() - 1, [a], (a,)]))


@st.composite
def _query_words(draw, alg):
    """Words over a few domain characters, their equal twins and rejected values; words
    extend or repeat earlier ones."""
    pool = draw(st.lists(domain_chars(alg), min_size=1, max_size=4))

    def char():
        a = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(["same", "same", "twin", "twin", "hostile"]))
        return a if how == "same" else _twin(alg, a) if how == "twin" else draw(_hostile(alg, a))

    words = []
    for _ in range(draw(st.integers(1, 12))):
        how = draw(st.sampled_from(["new", "extend", "repeat"])) if words else "new"
        if how == "repeat":
            words.append(draw(st.sampled_from(words)))
        else:
            base = draw(st.sampled_from(words)) if how == "extend" else ()
            words.append(base + tuple(char() for _ in range(draw(st.integers(1, 3)))))
    return words


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_output_queries_answer_and_count_as_run_does(kind, data):
    """Each answer is ``SMealy.run``'s, or both raise ``AlgebraError``; a failed query
    moves no count."""
    alg = GUARD_ALGEBRAS[kind]
    target = data.draw(sym_machines(alg, valid=True))
    oo = OutputOracle(target)
    seen = {}
    for word in data.draw(_query_words(alg)):
        try:
            want = target.run(word)
        except AlgebraError:
            with pytest.raises(AlgebraError):
                oo.query(word)
        else:
            assert oo.query(word) == want
            seen[word] = seen.get(word, 0) + 1
        assert (oo.distinct_queries, oo.total_queries) == (len(seen), sum(seen.values()))


@pytest.mark.parametrize("empty", [lambda: iter([]), lambda: (a for a in ())],
                         ids=["iterator", "generator"])
def test_an_empty_iterable_raises_the_documented_error(empty):
    target = make_builtin("worked-example")
    teacher = Oracle(target)
    with pytest.raises(ValueError, match="^output query needs a non-empty word$"):
        teacher.output_query(empty())
    assert (teacher.output.distinct_queries, teacher.output.total_queries) == (0, 0)
    for machine in (target, restrict(target, teacher.essential)):
        with pytest.raises(AutomatonError, match="^output of the empty word is undefined$"):
            machine.run(empty())
    assert teacher.output_query(iter([20])) == target.run(iter([20])) == "B"
    assert (teacher.output.distinct_queries, teacher.output.total_queries) == (1, 1)


# Characters equal to one of another type, each pair in both directions: the teacher must
# check each apart, as ``True`` and ``Fraction(1, 2)`` are no characters of any algebra.
EQUAL_PAIRS = [(1, True), (True, 1), (0.5, Fraction(1, 2)), (Fraction(1, 2), 0.5)]


def _swapped(a):
    """``a`` with each component found in ``EQUAL_PAIRS`` (by type and value) replaced by its
    partner: an equal character, or an equal word, built of other objects."""
    if isinstance(a, tuple):
        return tuple(_swapped(x) for x in a)
    return next((y for x, y in EQUAL_PAIRS if type(a) is type(x) and a == x), a)


@st.composite
def _differential_words(draw, alg):
    """Words, empty ones too, over domain characters, characters built of ``1`` (and ``0.5``
    on real axes) and rejected values; words extend, repeat or swap (see ``_swapped``) earlier ones."""
    axes = alg.components if alg.kind == "product" else (alg,)
    paired = st.tuples(*(st.sampled_from([1] if axis.kind == "interval-nat" else [1, 0.5])
                         for axis in axes))
    pool = draw(st.lists(st.one_of(domain_chars(alg), paired.map(
        lambda t: t if alg.kind == "product" else t[0])), min_size=1, max_size=4))

    def char():
        a = draw(st.sampled_from(pool))
        return draw(_hostile(alg, a)) if draw(st.integers(0, 7)) == 0 else a

    words = []
    for _ in range(draw(st.integers(1, 12))):
        how = draw(st.sampled_from(["new", "extend", "extend", "repeat", "swap", "swap",
                                    "empty"])) if words else "new"
        if how in ("repeat", "swap"):
            word = draw(st.sampled_from(words))
            words.append(word if how == "repeat" else _swapped(word))
        elif how == "empty":
            words.append(())
        else:
            base = draw(st.sampled_from(words)) if how == "extend" else ()
            words.append(base + tuple(char() for _ in range(draw(st.integers(1, 3)))))
    return words


def _outcome(query, word):
    """The answer to ``word``, or the type of what it raises."""
    try:
        return query(word)
    except Exception as exc:  # the type is compared
        return type(exc)


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_output_oracle_matches_the_two_step_reference(kind, data):
    """Answers, exception types, both counts and the cached (state, output) per word agree
    with the oracle as it was before ``query`` answered in one frame, also on machines with
    gaps, overlaps and a state without transitions that a word reaches mid-way."""
    alg = GUARD_ALGEBRAS[kind]
    target = data.draw(sym_machines(alg, valid=data.draw(st.booleans())))
    bare = data.draw(st.sampled_from([None, None, *range(target.n_states)]))
    if bare is not None:
        target = SMealy(alg, target.n_states, target.initial, [],
                        [(t.source, t.guard, t.target, t.output)
                         for t in target.transitions if t.source != bare])
    oo, ref = OutputOracle(target), helpers.OutputOracleWithRun(target)
    for word in data.draw(_differential_words(alg)):
        assert _outcome(oo.query, word) == _outcome(ref.query, word)
        assert (oo.distinct_queries, oo.total_queries) == (ref.distinct_queries,
                                                           ref.total_queries)
    assert list(oo._cache.items()) == list(ref._cache.items())


@pytest.mark.parametrize("name", sorted(INCOMPLETE_WORKED_EXAMPLES))
def test_output_oracle_matches_the_two_step_reference_past_a_gap(name):
    """A word that fails mid-way, at a gap or a state without transitions, fails alike
    whether its prefix is cached or not, and moves no count."""
    state, lo, word, _message = INCOMPLETE_WORKED_EXAMPLES[name]
    target = worked_example_without(state, lo)
    oo, ref = OutputOracle(target), helpers.OutputOracleWithRun(target)
    for w in (word, word[:-1], word, word + (0,), word[:-1] + (True,), word[:-1] + (1,)):
        assert _outcome(oo.query, w) == _outcome(ref.query, w)
        assert (oo.distinct_queries, oo.total_queries) == (ref.distinct_queries,
                                                           ref.total_queries)
    assert _outcome(oo.query, word) is AutomatonError
    assert list(oo._cache.items()) == list(ref._cache.items())


def test_oracles_on_one_target_check_it_once(monkeypatch):
    checked = []
    check = oracle.check_partition_reconstruction
    monkeypatch.setattr(oracle, "check_partition_reconstruction",
                        lambda target, chars: checked.append(target) or check(target, chars))
    target, twin = make_builtin("mh"), make_builtin("mh")
    first, second = Oracle(target, "random", seed=1), Oracle(target, "random", seed=1)
    assert len(checked) == 1 and checked[0] is target
    Oracle(twin)  # equal, but built apart: checked on its own
    assert twin == target and len(checked) == 2 and checked[1] is twin

    want = essential_characters(target)
    first.essential.clear()
    assert second.essential == want and Oracle(target).essential == want
    hyp = SMealy(target.algebra, 1, 0, [], [(0, target.algebra.top(), 0, "x")])
    assert second.equivalence_query(hyp) == Oracle(twin, "random", seed=1).equivalence_query(hyp)


def test_a_failed_reconstruction_check_is_not_remembered(monkeypatch):
    target = make_builtin("mh")
    monkeypatch.setattr(oracle, "partitioner_for", rebuilds_bottoms)
    for _ in range(2):
        with pytest.raises(OracleAssumptionViolation):
            Oracle(target)
    monkeypatch.undo()
    assert Oracle(target).essential == essential_characters(target)


def test_essential_characters_worked_example():
    assert essential_characters(make_worked_example()) == [0, 10, 20]


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 6)])
def test_essential_characters_lower_bound(n, k):
    chars = essential_characters(make_lower_bound(n, k))
    assert chars == [10 * i for i in range(k)]


def test_essential_characters_trivial():
    assert essential_characters(one_state((NAT.top(), "o"))) == [0]


@pytest.mark.parametrize("kind", ["interval-nat", "interval-nat-bounded", "interval-real",
                                  "product-2", "product-3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_essential_characters_match_two_branch_reference(kind, data):
    target = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=True))
    got, want = essential_characters(target), essential_characters_two_branch(target)
    assert got == want and repr(got) == repr(want)


def test_reconstruction_check_passes_on_worked_example():
    tgt = make_worked_example()
    check_partition_reconstruction(tgt, essential_characters(tgt))


RECONSTRUCTION_TARGETS = {
    "mh": make_mh(), "atgs": make_atgs(), "nat-20-10-3": random_sma(RandomSpec(20, 10, 3))}


@pytest.mark.parametrize("name", sorted(RECONSTRUCTION_TARGETS))
def test_reconstruction_check_passes_with_essential_characters(name):
    tgt = RECONSTRUCTION_TARGETS[name]
    check_partition_reconstruction(tgt, essential_characters(tgt))


@pytest.mark.parametrize("name,message", [
    ("mh", "state 0, group (0, '{}'): partitioning function rebuilds <false> instead of "
           "<[0,1)x[0,inf)x[-15,inf)x[0,inf) U [1,inf)x[0,inf)x[-15,inf)x[0,0.4000000000000001)>"),
    ("nat-20-10-3", "state 0, group (4, 'o0'): partitioning function rebuilds <false> "
                    "instead of <[641,938)>"),
])
def test_reconstruction_check_names_the_first_wrong_group_from_the_axis_minimum(name, message):
    """With only the axis minimum, one group takes the whole domain; the first (successor,
    output) key, by successor and then output rank, whose guard differs is named."""
    tgt = RECONSTRUCTION_TARGETS[name]
    with pytest.raises(OracleAssumptionViolation) as info:
        check_partition_reconstruction(tgt, [tgt.algebra.min_char()])
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(RECONSTRUCTION_TARGETS))
def test_reconstruction_check_catches_a_partitioner_that_rebuilds_bottoms(name, monkeypatch):
    tgt = RECONSTRUCTION_TARGETS[name]
    monkeypatch.setattr(oracle, "partitioner_for", rebuilds_bottoms)
    with pytest.raises(OracleAssumptionViolation, match=r"^state 0, group .* rebuilds <false>"):
        check_partition_reconstruction(tgt, essential_characters(tgt))
    with pytest.raises(OracleAssumptionViolation):
        Oracle(tgt)


def rebuilds_bottoms(alg):
    """A partitioner factory whose partitioners return bottom for every group."""
    return lambda alg, groups: [alg.bottom() for _ in groups]


def reconstruction_message(check, target, chars):
    try:
        check(target, chars)
    except OracleAssumptionViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("partitioner", ["real", "bottoms"])
@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reconstruction_check_matches_the_stepping_reference(kind, partitioner, data):
    """On generated targets and non-empty sets of their essential characters, the check over
    the target's restriction raises the message of the reference that steps the target, or
    neither raises; also with a partitioner that rebuilds bottoms."""
    target = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=True))
    essential = essential_characters(target)
    chars = data.draw(st.one_of(st.just(essential),
                                st.lists(st.sampled_from(essential), min_size=1, unique=True)))
    with pytest.MonkeyPatch.context() as patch:
        if partitioner == "bottoms":
            patch.setattr(oracle, "partitioner_for", rebuilds_bottoms)
            patch.setattr(helpers, "partitioner_for", rebuilds_bottoms)
        got = reconstruction_message(check_partition_reconstruction, target, chars)
        want = reconstruction_message(check_partition_reconstruction_stepped, target, chars)
    assert got == want
    assert partitioner == "real" or got is not None


def test_reconstruction_check_restricts_the_target_first(monkeypatch):
    """The target is restricted before any state is partitioned: a state without
    transitions raises its ``AutomatonError`` before state 0's failed reconstruction."""
    monkeypatch.setattr(oracle, "partitioner_for", rebuilds_bottoms)
    with pytest.raises(AutomatonError, match=r"^no transition from state 3 on 0$"):
        EquivOracle(worked_example_without(3))


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reconstruction_check_fails_exactly_when_sep_pred_misses_the_target(kind, data):
    """The learner partitions through the label maps, the check through the public
    partitioner: on a non-empty set of the essential characters, the check raises exactly
    when ``sep_pred`` on the target's restriction is not the target.  With all of them,
    ``sep_pred`` rebuilds the target, compiled tables included."""
    target = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=True))
    essential = essential_characters(target)
    chars = data.draw(st.lists(st.sampled_from(essential), min_size=1, unique=True))
    missed = sep_pred(restrict(target, chars), target.algebra) != target
    assert (reconstruction_message(check_partition_reconstruction, target, chars)
            is not None) == missed
    full = sep_pred(restrict(target, essential), target.algebra)
    assert full == target and full._tables == target._tables


def groups_reversed(state_groups):
    """``state_groups`` with each state's groups in reversed key order."""
    def groups(machine):
        for state in state_groups(machine):
            yield dict(reversed(state.items()))
    return groups


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_group_order_changes_neither_hypothesis_nor_reconstruction_check(kind, data):
    """``sep_pred``, through a memo kept from a smaller alphabet, and the reconstruction
    check, with the real partitioner and with one that rebuilds bottoms, give the same
    results when each state's groups come in reversed key order."""
    target = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=True))
    alg, essential = target.algebra, essential_characters(target)
    chars = data.draw(st.lists(st.sampled_from(essential), min_size=1, unique=True))

    def results():
        memo = {}
        hyps = [sep_pred(restrict(target, cs), alg, memo) for cs in (chars, essential)]
        messages = [reconstruction_message(check_partition_reconstruction, target, chars)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "partitioner_for", rebuilds_bottoms)
            messages.append(reconstruction_message(check_partition_reconstruction, target,
                                                   chars))
        return [(h, h.transitions, h._tables) for h in hyps], messages

    want = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learner, "state_groups", groups_reversed(learner.state_groups))
        patch.setattr(oracle, "state_groups", groups_reversed(oracle.state_groups))
        got = results()
    assert got == want


def test_lexmin_counterexamples_match_reference_run():
    tgt = make_worked_example()
    oracle = EquivOracle(tgt, mode="lexmin")
    assert oracle.query(hyp_round1()) == (20,)
    assert oracle.query(hyp_round2()) == (0, 0, 0)
    assert oracle.query(hyp_round3()) == (0, 0, 10, 0)
    assert oracle.query(tgt) is None


def test_lexmin_counterexample_is_shortlex_minimal():
    tgt = make_worked_example()
    hyp = hyp_round2()
    cex = EquivOracle(tgt, mode="lexmin").query(hyp)
    smaller = [w for length in range(1, len(cex) + 1)
               for w in itertools.product((0, 10, 20), repeat=length)
               if (length, w) < (len(cex), cex)]
    for w in smaller:
        assert tgt.run(w) == hyp.run(w)
    assert tgt.run(cex) != hyp.run(cex)


def test_counterexamples_follow_essential_contract():
    tgt = make_worked_example()
    essential = set(essential_characters(tgt))
    for mode, seed in (("lexmin", None), ("random", 11)):
        oracle = EquivOracle(tgt, mode=mode, seed=seed)
        for hyp in (hyp_round1(), hyp_round2(), hyp_round3()):
            cex = oracle.query(hyp)
            assert cex is not None
            assert set(cex) <= essential
            assert tgt.run(cex) != hyp.run(cex)


def test_random_mode_returns_minimal_length():
    tgt = make_worked_example()
    lex = EquivOracle(tgt, mode="lexmin")
    rnd = EquivOracle(tgt, mode="random", seed=5)
    for hyp in (hyp_round1(), hyp_round2(), hyp_round3()):
        assert len(rnd.query(hyp)) == len(lex.query(hyp))


def test_random_mode_seed_determinism():
    tgt = make_worked_example()
    a = EquivOracle(tgt, mode="random", seed=9)
    b = EquivOracle(tgt, mode="random", seed=9)
    assert [a.query(hyp_round2()) for _ in range(3)] == \
           [b.query(hyp_round2()) for _ in range(3)]


def test_oracle_assumption_violation():
    tgt = one_state((NAT.top(), "x"))
    hyp = one_state((NAT.interval(0, 5), "x"), (NAT.interval(5, None), "y"))
    oracle = EquivOracle(tgt, mode="lexmin")  # essential = {0}
    with pytest.raises(OracleAssumptionViolation):
        oracle.query(hyp)


def test_random_oracle_assumption_violation():
    split = (NAT.interval(0, 5), "x"), (NAT.interval(5, None), "y")
    # over {0} the product graph is the cycle (0,0) -> (1,1) -> (2,2) -> (0,0):
    # it stops growing after three layers without a differing edge
    cycle = SMealy(NAT, 3, 0, [], [(q, NAT.top(), (q + 1) % 3, "x") for q in range(3)])
    late = SMealy(NAT, 3, 0, [], [(0, NAT.top(), 1, "x"), (1, NAT.top(), 2, "x")]
                  + [(2, guard, 0, out) for guard, out in split])
    for tgt, hyp in ((one_state((NAT.top(), "x")), one_state(*split)), (cycle, late)):
        oracle = EquivOracle(tgt, mode="random", seed=3)  # essential = {0}
        with pytest.raises(OracleAssumptionViolation):
            oracle.query(hyp)


def test_random_oracle_deep_difference_through_recurring_pairs():
    # two characters >= 10 in a row reach target state 2, which answers 0
    # with "y"; the pairs (h, 0) and (h, 1) recur at every later depth
    iv = NAT.interval
    tgt = SMealy(NAT, 3, 0, [], [
        (0, iv(0, 10), 0, "x"), (0, iv(10, None), 1, "x"),
        (1, iv(0, 10), 0, "x"), (1, iv(10, None), 2, "x"),
        (2, iv(0, 10), 0, "y"), (2, iv(10, 20), 2, "x"), (2, iv(20, None), 0, "x"),
    ])
    hyp = one_state((NAT.top(), "x"))
    served = set()
    for seed in range(40):
        oracle = EquivOracle(tgt, mode="random", seed=seed)
        ref = FullTableSearch(tgt, oracle.essential, random.Random(seed))
        cex = oracle.query(hyp)
        assert cex == ref.search(hyp)
        assert oracle.rng.getstate() == ref.rng.getstate()
        served.add(cex)
    assert served == {(a, b, 0) for a in (10, 20) for b in (10, 20)}


@st.composite
def random_teacher_cases(draw):
    """A target over naturals or a 2-axis product and hypotheses to pose against it."""
    if draw(st.booleans()):
        alg = NAT
        target = random_sma(RandomSpec(n=draw(st.integers(1, 6)), k=draw(st.integers(1, 5)),
                                       seed=draw(st.integers(0, 2 ** 16)), boundary_top=12))
    else:
        alg = GUARD_ALGEBRAS["product-2"]
        target = draw(sym_machines(alg, valid=True))
    hyps = st.one_of(sym_machines(alg, valid=True), mutants(target))
    return target, draw(st.lists(hyps, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(random_teacher_cases(), st.integers(0, 2 ** 32))
def test_random_search_matches_full_table_reference(case, seed):
    target, hyps = case
    try:
        oracle = EquivOracle(target, mode="random", seed=seed)
    except OracleAssumptionViolation:  # a generated product target the grid does not cover
        assume(False)
    ref = FullTableSearch(target, oracle.essential, random.Random(seed))
    for hyp in hyps:
        if symbolic_equiv(hyp, target) is None:
            assert oracle.query(hyp) is None
        elif (want := ref.search(hyp)) is None:
            with pytest.raises(OracleAssumptionViolation):
                oracle.query(hyp)
        else:
            assert oracle.query(hyp) == want
        assert oracle.rng.getstate() == ref.rng.getstate()


@settings(max_examples=200, deadline=None)
@given(random_teacher_cases())
def test_lexmin_search_matches_concrete_reference(case):
    target, hyps = case
    try:
        oracle = EquivOracle(target, mode="lexmin")
    except OracleAssumptionViolation:  # a generated product target the grid does not cover
        assume(False)
    for hyp in hyps:
        if symbolic_equiv(hyp, target) is None:
            assert oracle.query(hyp) is None
        elif (want := lexmin_search(target, oracle.essential, hyp)) is None:
            with pytest.raises(OracleAssumptionViolation):
                oracle.query(hyp)
        else:
            assert oracle.query(hyp) == want


@pytest.mark.parametrize("name", sorted(INCOMPLETE_WORKED_EXAMPLES))
def test_teachers_reject_a_hypothesis_with_a_reached_incomplete_state(name):
    state, lo, _word, message = INCOMPLETE_WORKED_EXAMPLES[name]
    hyp, target = worked_example_without(state, lo), make_worked_example()
    for mode in ("lexmin", "random"):
        with pytest.raises(AutomatonError, match=f"^{message}$"):
            Oracle(target, mode, seed=1).equivalence_query(hyp)
    with pytest.raises(AutomatonError, match=f"^{message}$"):
        ScriptedOracle(target, []).equivalence_query(hyp)


@pytest.mark.parametrize("mode", ["lexmin", "random"])
@pytest.mark.parametrize("state_1", [(), [(NAT.interval(3, None), 0, "x")]], ids=["bare", "from-3"])
def test_search_reaching_an_incomplete_state_raises_automaton_error(mode, state_1):
    # symbolic_equiv answers (5,) from (0, 0) before it expands (1, 0); the search over
    # the essential character 0 reaches (1, 0) first, where hypothesis state 1 has no move
    hyp = SMealy(NAT, 2, 0, [], [(0, NAT.interval(0, 5), 1, "x"),
                                 (0, NAT.interval(5, None), 0, "y"),
                                 *((1, *tr) for tr in state_1)])
    target = one_state((NAT.top(), "x"))
    assert symbolic_equiv(hyp, target) == (5,)
    with pytest.raises(AutomatonError, match=r"^no transition from state 1 on 0$"):
        Oracle(target, mode, seed=1).equivalence_query(hyp)


def worked_example_with(drop, *transitions):
    """``make_worked_example()`` without the transitions of the states in ``drop``, plus
    ``transitions``."""
    m = make_worked_example()
    kept = [(t.source, t.guard, t.target, t.output) for t in m.transitions
            if t.source not in drop]
    return SMealy(m.algebra, m.n_states, m.initial, m.outputs, kept + list(transitions))


STATE_3_ANSWERS_S = (3, NAT.interval(0, None), 0, "S")  # a difference past the faulty state

ONE_WALK_FAULTS = {
    # (hypothesis, message): the search steps the faulty state before any difference;
    # unchecked, it would serve (0, 20)
    "overlap": (lambda: worked_example_with((), (1, NAT.interval(5, 30), 3, "P")),
                "state 1 has overlapping guards"),
    # [25, 30) lies under [20, None): state 1 compiles to the target's table, which a
    # warm oracle has stored
    "shadowed-overlap": (lambda: worked_example_with(
        (3,), (1, NAT.interval(25, 30), 3, "P"), STATE_3_ANSWERS_S),
        "state 1 has overlapping guards"),
    # [12, 15) is uncovered, and no essential character (0, 10, 20) lies in it
    "gap": (lambda: worked_example_with(
        (0, 3), (0, NAT.interval(0, 12), 1, "S"), (0, NAT.interval(15, 20), 2, "S"),
        (0, NAT.interval(20, None), 0, "B"), STATE_3_ANSWERS_S),
        "no transition from state 0 on 12"),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("mode", ["lexmin", "random"])
@pytest.mark.parametrize("name", sorted(ONE_WALK_FAULTS))
def test_one_walk_rejects_a_faulty_state_it_steps(name, mode, warm):
    """The search checks each hypothesis state it steps as ``symbolic_equiv`` checks one it
    reaches, whether or not the oracle has stepped an equal table before."""
    make_hyp, message = ONE_WALK_FAULTS[name]
    target = make_worked_example()
    teacher = Oracle(target, mode, seed=1)
    if warm:  # every target table stored, with its row
        assert teacher.equivalence_query(target) is None
    with pytest.raises(AutomatonError, match=f"^{re.escape(message)}$"):
        symbolic_equiv(make_hyp(), target)
    with pytest.raises(AutomatonError, match=f"^{re.escape(message)}$"):
        teacher.equivalence_query(make_hyp())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GUARD_ALGEBRAS)).flatmap(
    lambda kind: sym_machines(GUARD_ALGEBRAS[kind])), st.sampled_from(["lexmin", "random"]))
def test_one_walk_rejects_a_start_state_as_symbolic_equiv_does(machine, mode):
    """Both walks step the start pair first, so a hypothesis whose one state overlaps or
    leaves a cell uncovered, over any algebra, raises the same message in both."""
    alg = machine.algebra
    hyp = SMealy(alg, 1, 0, [], [(0, t.guard, 0, t.output)
                                 for t in machine.transitions if t.source == 0])
    target = SMealy(alg, 1, 0, [], [(0, alg.top(), 0, "x")])

    def fault(query):
        try:
            query()
        except AutomatonError as err:
            return str(err)
        except OracleAssumptionViolation:  # a difference off the target's one character
            pass
        return None

    assert (fault(lambda: Oracle(target, mode, seed=1).equivalence_query(hyp))
            == fault(lambda: symbolic_equiv(hyp, target)))


@pytest.mark.parametrize("name", ["worked-example", "mh", "random-20-10"])
@pytest.mark.parametrize("mode", ["lexmin", "random"])
def test_one_walk_per_equivalence_query(name, mode, monkeypatch):
    """Every query walks the essential-character product once, and a complete learn runs
    ``symbolic_equiv`` once: for the query its hypothesis passes."""
    target = {"worked-example": make_worked_example, "mh": make_mh,
              "random-20-10": lambda: random_sma(RandomSpec(20, 10, 2805))}[name]()
    calls = {"symbolic_equiv": 0, "first_difference": 0}

    def spy(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(oracle, name, counted)

    spy("symbolic_equiv", oracle.symbolic_equiv)
    spy("first_difference", oracle.first_difference)
    learned, stats = learner.learn(Oracle(target, mode=mode, seed=28), target.algebra)
    assert calls == {"symbolic_equiv": 1, "first_difference": stats.eq_queries}
    assert stats.eq_queries > 1
    assert symbolic_equiv(learned, target) is None


def test_composite_oracle_rejects_invalid_target():
    broken = SMealy(NAT, 1, 0, [], [(0, NAT.interval(0, 10), 0, "x")])
    with pytest.raises(ValueError):
        Oracle(broken)


def test_scripted_oracle_replays_and_validates():
    tgt = make_worked_example()
    oracle = ScriptedOracle(tgt, [(20,), (0, 0, 0), (0, 0, 10, 0)])
    assert oracle.equivalence_query(hyp_round1()) == (20,)
    assert oracle.equivalence_query(hyp_round2()) == (0, 0, 0)
    assert oracle.equivalence_query(hyp_round3()) == (0, 0, 10, 0)
    assert oracle.equivalence_query(tgt) is None


def test_scripted_oracle_rejects_useless_counterexample():
    tgt = make_worked_example()
    oracle = ScriptedOracle(tgt, [(0,)])  # (0,) does not distinguish hyp_round1
    with pytest.raises(ValueError):
        oracle.equivalence_query(hyp_round1())


def test_scripted_oracle_rejects_wrong_final_hypothesis():
    tgt = make_worked_example()
    oracle = ScriptedOracle(tgt, [])
    with pytest.raises(ValueError):
        oracle.equivalence_query(hyp_round1())
