"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements next to the pass/fail verdicts.
"""

import itertools
import random
import statistics
import time

import pytest

from helpers import (
    GOLDEN_COUNTEREXAMPLES,
    GOLDEN_REPAIRS,
    GOLDEN_TABLES,
    GUARD_ALGEBRAS,
    as_snapshot,
    nat_probe,
    product_probe,
    random_nat_groups,
    random_product_groups,
    record_tables,
    sym_machines,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from smalearn.algebra import Algebra
from smalearn.automata import SMealy, symbolic_equiv
from smalearn.bench import (
    RandomSpec,
    make_atgs,
    make_lower_bound,
    make_mh,
    make_worked_example,
    random_sma,
)
from smalearn.learner import learn
from smalearn.oracle import Oracle, ScriptedOracle, essential_characters
from smalearn.partition import partition_intervals, partition_product

NAT = Algebra.naturals()


def report(num, detail):
    print(f"\n[criterion {num}] PASS  {detail}")


def theorem_output_bound(n, m, f):
    return (f + m + 1) * n * n + (2 * m + f + 1) * f * n + m * f * f


@pytest.mark.parametrize("kind", ["interval-nat", "interval-real", "product-2", "product-3"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_generated_targets_learned_exactly_within_bounds(kind, data):
    target = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=True))
    f = len(essential_characters(target))
    for mode in ("lexmin", "random"):
        oracle = Oracle(target, mode=mode, seed=data.draw(st.integers(0, 2 ** 16)))
        learned, stats = learn(oracle, target.algebra)
        assert symbolic_equiv(learned, target) is None
        assert stats.eq_queries <= target.n_states + f
        m = max(stats.max_cex_len, 1)
        assert stats.output_queries <= theorem_output_bound(target.n_states, m, f)


def test_criterion_1_golden_trace(monkeypatch):
    started = time.perf_counter()
    target = make_worked_example()
    oracle = ScriptedOracle(target, GOLDEN_COUNTEREXAMPLES)
    trace, attach_tables = [], record_tables(monkeypatch)
    learned, stats = learn(oracle, NAT, trace=trace)
    attach_tables(trace)

    assert stats.eq_queries == 4
    assert learned == target
    repair_kinds = [e["kind"] for e in trace if e["event"] == "repair"]
    assert repair_kinds == GOLDEN_REPAIRS
    init_table = next(e["table"] for e in trace if e["event"] == "init")
    cex_tables = [e["table"] for e in trace if e["event"] == "counterexample"]
    repair_tables = [e["table"] for e in trace if e["event"] == "repair"]
    checkpoints = {
        1: init_table, 2: cex_tables[0], 3: repair_tables[0], 4: cex_tables[1],
        5: repair_tables[1], 6: repair_tables[4], 7: repair_tables[8],
        8: cex_tables[2], 9: repair_tables[9], 10: repair_tables[12],
    }
    for idx, snap in checkpoints.items():
        assert snap == as_snapshot(GOLDEN_TABLES[idx]), f"table T{idx} differs"
    hyp_states = [e["states"] for e in trace if e["event"] == "hypothesis"]
    assert hyp_states == [1, 1, 4, 4]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"golden trace T1..T10 exact, eq_queries=4, {elapsed:.2f}s")


def test_criterion_2_lower_bound_exact():
    started = time.perf_counter()
    results = []
    for n, k in [(2, 2), (3, 3), (4, 6), (5, 10)]:
        target = make_lower_bound(n, k)
        assert len(essential_characters(target)) == k
        learned, stats = learn(Oracle(target, mode="lexmin"), NAT, a0=0)
        assert stats.eq_queries == n + k, f"M_{n},{k}: {stats.eq_queries} != {n + k}"
        assert symbolic_equiv(learned, target) is None
        results.append(f"({n},{k})={stats.eq_queries}")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"eq queries exactly n+k: {', '.join(results)}, {elapsed:.1f}s")


def test_criterion_3_mh_reproduction():
    started = time.perf_counter()
    target = make_mh()
    essential = essential_characters(target)
    learned, stats = learn(Oracle(target, mode="lexmin"), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert stats.eq_queries <= 5 + len(essential)
    m = max(stats.max_cex_len, 1)
    assert stats.output_queries <= theorem_output_bound(5, m, len(essential))
    if len(essential) == 36 and m == 4:
        assert stats.output_queries <= 14309
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(3, f"eq={stats.eq_queries} (reference run: 36.0 with 36 essential "
              f"characters, as many as state 0's grid with the written guard tops as cuts; "
              f"here the tops are extended to +inf and |essential|={len(essential)}), "
              f"oq={stats.output_queries}, m={stats.max_cex_len}, {elapsed:.1f}s")


def test_criterion_4_atgs_reproduction():
    started = time.perf_counter()
    target = make_atgs()
    essential = essential_characters(target)
    learned, stats = learn(Oracle(target, mode="lexmin"), target.algebra)
    assert symbolic_equiv(learned, target) is None
    assert stats.eq_queries <= 16 + len(essential)
    m = max(stats.max_cex_len, 1)
    assert stats.output_queries <= theorem_output_bound(16, m, len(essential))
    # behaviour lock: the exact counts of the complete lexmin learn
    assert (stats.eq_queries, stats.output_queries, stats.total_output_queries) == \
        (59, 69914, 70108)
    assert (stats.r_size, stats.sigma_e_size, stats.e_size) == (1015, 61, 7)
    elapsed = time.perf_counter() - started
    assert elapsed < 3600.0
    report(4, f"eq={stats.eq_queries} (reference run: 66), "
              f"oq={stats.output_queries} (reference run: 86446.8), "
              f"|E|={stats.e_size} (reference run: 6), m={stats.max_cex_len}, "
              f"{elapsed:.1f}s")


def test_criterion_5_random_benchmark_scaling():
    def run_config(n, k, runs=10):
        started = time.perf_counter()
        all_stats = []
        for seed in range(runs):
            target = random_sma(RandomSpec(n=n, k=k, seed=seed))
            oracle = Oracle(target, mode="random", seed=1000 + seed)
            learned, stats = learn(oracle, NAT)
            assert symbolic_equiv(learned, target) is None
            all_stats.append(stats)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        return all_stats, elapsed

    stats10, t10 = run_config(10, 10)
    mean_eq = statistics.mean(s.eq_queries for s in stats10)
    mean_oq = statistics.mean(s.output_queries for s in stats10)
    mean_r = statistics.mean(s.r_size for s in stats10)
    zero_e = sum(1 for s in stats10 if s.e_size == 0)
    assert 10 <= mean_eq <= 12
    assert 1015.6 / 2 <= mean_oq <= 1015.6 * 2
    assert 91.56 / 2 <= mean_r <= 91.56 * 2
    assert zero_e >= 9

    stats20, t20 = run_config(20, 10)
    mean_oq20 = statistics.mean(s.output_queries for s in stats20)
    assert 2035.95 / 2 <= mean_oq20 <= 2035.95 * 2

    report(5, f"(10,10): eq={mean_eq:.2f} oq={mean_oq:.1f} (ref 1015.6) "
              f"R={mean_r:.2f} (ref 91.56) |E|=0 in {zero_e}/10, "
              f"(20,10): oq={mean_oq20:.1f} (ref 2035.95), "
              f"{t10 + t20:.1f}s")


def test_criterion_6_property_suite():
    started = time.perf_counter()

    # (a) 200 random machines: learn end to end with all run invariants
    rng = random.Random(60001)
    checked = 0
    for i in range(200):
        n = rng.randint(1, 20)
        k = rng.randint(1, 20)
        target = random_sma(RandomSpec(n=n, k=k, seed=10_000 + i))
        essential = set(essential_characters(target))
        mode = "lexmin" if i % 2 == 0 else "random"
        oracle = Oracle(target, mode=mode, seed=i)
        trace = []
        # symbolic compatibility is asserted inside learn() on every round
        learned, stats = learn(oracle, NAT, trace=trace)
        assert symbolic_equiv(learned, target) is None
        assert learned.n_states <= target.n_states
        assert stats.eq_queries <= target.n_states + len(essential)
        for event in trace:
            if event["event"] == "counterexample":
                assert event["word"] and set(event["word"]) <= essential
            if event["event"] == "hypothesis":
                assert set(event["sigma_e"]) <= essential
        checked += 1
    assert checked == 200
    t_a = time.perf_counter() - started

    # (b) 1000 random sample lists per partitioning function: validity+stability
    def assert_valid(algebra, groups, preds, probes):
        assert len(preds) == len(groups)
        assert algebra.union(*preds) == algebra.top()
        for i in range(len(preds)):
            for j in range(i + 1, len(preds)):
                assert algebra.is_empty(algebra.meet(preds[i], preds[j]))
        for g, p in zip(groups, preds):
            assert all(algebra.denotes(p, a) for a in g)
        for a in probes:
            assert sum(algebra.denotes(p, a) for p in preds) == 1

    rng = random.Random(60002)
    for _ in range(1000):
        groups = random_nat_groups(rng)
        preds = partition_intervals(NAT, groups)
        assert_valid(NAT, groups, preds, range(0, 50, 7))
        grown = [set(g) | {nat_probe(p, rng) for _ in range(2)} if not NAT.is_empty(p)
                 else set(g) for g, p in zip(groups, preds)]
        assert partition_intervals(NAT, grown) == preds

    prod_algebras = [
        Algebra.product(Algebra.naturals(), Algebra.naturals()),
        Algebra.product(Algebra.naturals(bound=2), Algebra.naturals()),
        Algebra.product(Algebra.reals(), Algebra.naturals()),
        Algebra.product(Algebra.naturals(), Algebra.naturals(), Algebra.naturals()),
    ]
    rng = random.Random(60004)
    for t in range(1000):
        alg = prod_algebras[t % len(prod_algebras)]
        groups = random_product_groups(rng, alg)
        preds = partition_product(alg, groups)
        probes = [product_probe(alg, alg.top(), rng) for _ in range(10)]
        assert_valid(alg, groups, preds, probes)
        grown = [set(g) | {product_probe(alg, p, rng) for _ in range(2)}
                 if not alg.is_empty(p) else set(g) for g, p in zip(groups, preds)]
        assert partition_product(alg, grown) == preds
    t_b = time.perf_counter() - started - t_a

    # (c) algebra laws on 10^4 sampled characters per algebra
    def law_check(algebra, sample_pred, sample_char, rounds=500, probes=20):
        rng = random.Random(60005)
        for _ in range(rounds):
            a = sample_pred(rng)
            b = sample_pred(rng)
            m, j, c = algebra.meet(a, b), algebra.join(a, b), algebra.complement(a)
            for _ in range(probes):
                x = sample_char(rng)
                assert algebra.denotes(m, x) == (algebra.denotes(a, x) and algebra.denotes(b, x))
                assert algebra.denotes(j, x) == (algebra.denotes(a, x) or algebra.denotes(b, x))
                assert algebra.denotes(c, x) == (not algebra.denotes(a, x))

    def nat_pred(rng):
        p = NAT.bottom()
        for _ in range(rng.randrange(0, 4)):
            lo = rng.randrange(0, 40)
            hi = None if rng.random() < 0.2 else lo + rng.randrange(1, 10)
            p = NAT.join(p, NAT.interval(lo, hi))
        return p

    law_check(NAT, nat_pred, lambda rng: rng.randrange(0, 60))

    prod = Algebra.product(Algebra.naturals(), Algebra.naturals())

    def prod_pred(rng):
        p = prod.bottom()
        for _ in range(rng.randrange(0, 3)):
            lo1, lo2 = rng.randrange(8), rng.randrange(8)
            p = prod.join(p, prod.box(
                (lo1, None if rng.random() < 0.3 else lo1 + rng.randrange(1, 5)),
                (lo2, None if rng.random() < 0.3 else lo2 + rng.randrange(1, 5))))
        return p

    law_check(prod, prod_pred, lambda rng: (rng.randrange(12), rng.randrange(12)))
    t_c = time.perf_counter() - started - t_a - t_b

    # (d) small-instance brute force: equivalence vs bounded word enumeration
    rng = random.Random(60006)

    def small_machine():
        n = rng.randint(1, 3)
        cuts = sorted(rng.sample((10, 20, 30), rng.randrange(0, 4)))
        blocks, lo = [], 0
        for c in cuts:
            blocks.append(NAT.interval(lo, c))
            lo = c
        blocks.append(NAT.interval(lo, None))
        trans = [(q, b, rng.randrange(n), rng.choice("xy"))
                 for q in range(n) for b in blocks]
        return SMealy(NAT, n, 0, [], trans)

    machines = [small_machine() for _ in range(10)]

    def brute_has_mismatch(m1, m2, alphabet, max_len=10):
        def go(q1, q2, depth):
            for a in alphabet:
                p1, o1 = m1.step(q1, a)
                p2, o2 = m2.step(q2, a)
                if o1 != o2 or (depth > 1 and go(p1, p2, depth - 1)):
                    return True
            return False

        return go(m1.initial, m2.initial, max_len)

    pairs = 0
    for m1, m2 in itertools.combinations_with_replacement(machines, 2):
        alphabet = sorted(set(essential_characters(m1)) | set(essential_characters(m2)))
        witness = symbolic_equiv(m1, m2)
        if witness is not None:
            assert m1.run(witness) != m2.run(witness)
        assert (witness is not None) == brute_has_mismatch(m1, m2, alphabet)
        pairs += 1
    t_d = time.perf_counter() - started - t_a - t_b - t_c

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(6, f"(a) 200 random learns ok [{t_a:.0f}s]; (b) 3x1000 partition "
              f"lists stable [{t_b:.0f}s]; (c) algebra laws ok [{t_c:.0f}s]; "
              f"(d) {pairs} brute-force pairs agree [{t_d:.0f}s]; "
              f"total {elapsed:.0f}s")
