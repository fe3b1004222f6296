import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    GUARD_ALGEBRAS,
    FullTableSearch,
    essential_characters_two_branch,
    mutants,
    sym_machines,
)
from smalearn import oracle
from smalearn.algebra import Algebra, AlgebraError
from smalearn.automata import SMealy, symbolic_equiv
from smalearn.bench import (
    RandomSpec,
    make_atgs,
    make_lower_bound,
    make_mh,
    make_worked_example,
    random_sma,
)
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
    monkeypatch.setattr(oracle, "partitioner_for",
                        lambda alg: lambda alg, groups: [alg.bottom() for _ in groups])
    with pytest.raises(OracleAssumptionViolation, match=r"^state 0, group .* rebuilds <false>"):
        check_partition_reconstruction(tgt, essential_characters(tgt))
    with pytest.raises(OracleAssumptionViolation):
        Oracle(tgt)


def test_lexmin_counterexamples_match_reference_run():
    tgt = make_worked_example()
    oracle = EquivOracle(tgt, mode="lexmin")
    assert oracle.query(hyp_round1()) == (20,)
    assert oracle.query(hyp_round2()) == (0, 0, 0)
    assert oracle.query(hyp_round3()) == (0, 0, 10, 0)
    assert oracle.query(tgt) is None
    assert oracle.queries == 4


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
