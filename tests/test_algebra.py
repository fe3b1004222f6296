import math
import random

import pytest
from helpers import (
    GUARD_ALGEBRAS,
    axis_pool,
    dl_complement,
    dl_from_boxes,
    dl_join,
    dl_meet,
    domain_chars,
    endpoint_grid,
    guards,
    ivs_complement,
    ivs_interval,
    ivs_join,
    ivs_meet,
    ivs_union,
    norm_boxes_box_by_box,
    raw_boxes,
    union_by_join,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from smalearn.algebra import Algebra, AlgebraError, Predicate, flat_boxes, member

NAT = Algebra.naturals()
REAL = Algebra.reals()
EQ = Algebra.equality()


def ivs(*pairs):
    return NAT.union(*(NAT.interval(lo, hi) for lo, hi in pairs))


def nat_set(pred, upto=30):
    return {n for n in range(upto) if NAT.denotes(pred, n)}


def test_denotes_interval_boundaries():
    p = NAT.interval(10, 20)
    assert NAT.denotes(p, 10)  # lo inclusive
    assert not NAT.denotes(p, 20)  # hi exclusive
    assert not NAT.denotes(NAT.bottom(), 5)


def test_meet_examples():
    # enumerate naturals 0..12: the two groups of the 1-D partition example
    a = ivs((0, 5), (7, None))
    b = ivs((5, 7),)
    assert NAT.meet(a, b) == NAT.bottom()
    assert {n for n in range(13) if NAT.denotes(a, n) and NAT.denotes(b, n)} == set()

    # enumerate naturals 0..25
    c = NAT.meet(ivs((0, 20)), ivs((10, None)))
    assert nat_set(c) == {n for n in range(30) if 10 <= n < 20}
    assert c == NAT.interval(10, 20)

    p = ivs((3, 9), (12, 14))
    assert NAT.meet(p, NAT.top()) == p


def test_join_examples():
    assert NAT.join(ivs((0, 5)), ivs((5, 7))) == NAT.interval(0, 7)
    assert nat_set(NAT.join(ivs((0, 5)), ivs((5, 7)))) == set(range(7))
    p = ivs((2, 4),)
    assert NAT.join(p, NAT.bottom()) == p
    assert NAT.join(ivs((20, None)), ivs((0, 20))) == NAT.top()


def test_complement_examples():
    assert NAT.complement(NAT.top()) == NAT.bottom()
    assert NAT.complement(ivs((0, 10))) == NAT.interval(10, None)
    assert nat_set(NAT.complement(ivs((0, 10))), 16) == set(range(10, 16))
    assert NAT.complement(ivs((5, 7))) == ivs((0, 5), (7, None))
    assert nat_set(NAT.complement(ivs((5, 7))), 11) == {0, 1, 2, 3, 4, 7, 8, 9, 10}


def test_is_empty_and_witness():
    assert NAT.is_empty(NAT.bottom())
    assert not NAT.is_empty(ivs((5, 7)))
    assert NAT.is_empty(NAT.meet(ivs((0, 10)), ivs((10, None))))
    assert NAT.witness(ivs((5, 7))) == 5
    assert NAT.witness(ivs((0, 5), (7, None))) == 0
    with pytest.raises(AlgebraError):
        NAT.witness(NAT.bottom())


def test_next_above():
    na = REAL.next_above(0.4)
    assert na > 0.4
    assert math.nextafter(0.4, math.inf) == na
    assert math.nextafter(na, -math.inf) == 0.4  # nothing strictly between
    assert NAT.next_above(7) == 8
    assert REAL.next_above(REAL.next_above(1.25)) > REAL.next_above(1.25)


def test_bounded_naturals():
    b2 = Algebra.naturals(bound=2)
    assert b2.interval(1, 2) == b2.interval(1, None)
    assert b2.join(b2.interval(0, 1), b2.interval(1, None)) == b2.top()
    with pytest.raises(AlgebraError):
        b2.norm_char(2)
    with pytest.raises(AlgebraError):
        b2.next_above(1)


def test_interval_rejects_empty():
    with pytest.raises(AlgebraError):
        NAT.interval(5, 5)
    with pytest.raises(AlgebraError):
        NAT.interval(7, 3)


@pytest.mark.parametrize("alg,hi", [
    (NAT, "5"), (NAT, True), (NAT, 5.5), (NAT, math.nan), (NAT, math.inf),
    (REAL, "5"), (REAL, False), (REAL, math.nan), (REAL, math.inf), (REAL, 10**400),
])
def test_interval_upper_endpoint_needs_the_axis_type(alg, hi):
    with pytest.raises(AlgebraError, match="^upper endpoint is not a"):
        alg.interval(0, hi)


def test_equality_ops():
    a = EQ.eq_chars({1, 3})
    b = EQ.eq_chars({3, 5})
    assert EQ.meet(a, b) == EQ.eq_chars({3})
    assert EQ.join(a, b) == EQ.eq_chars({1, 3, 5})
    c = EQ.complement(a)
    assert c.negated and c.chars == frozenset({1, 3})
    assert EQ.denotes(c, 2) and not EQ.denotes(c, 3)
    assert EQ.witness(c) == 0
    assert EQ.witness(EQ.complement(EQ.eq_chars({0, 1, 2}))) == 3

    fin = Algebra.equality(carrier={"a", "b", "c"})
    assert fin.complement(fin.eq_chars({"a"})) == fin.eq_chars({"b", "c"})
    assert fin.top() == fin.eq_chars({"a", "b", "c"})


def test_product_basics():
    alg = Algebra.product(Algebra.naturals(bound=2), Algebra.naturals())
    box = alg.box((1, 2), (0, 5))
    assert alg.denotes(box, (1, 0))
    assert alg.denotes(box, (1, 4))
    assert not alg.denotes(box, (0, 0))
    assert not alg.denotes(box, (1, 5))
    assert alg.witness(box) == (1, 0)
    assert alg.witness(alg.box((1, None), (0, 5))) != ()
    prod_box = Algebra.product(Algebra.naturals(), Algebra.naturals()).box((10, 20), (0, 5))
    assert Algebra.product(Algebra.naturals(), Algebra.naturals()).witness(prod_box) == (10, 0)


def test_product_needs_at_least_two_axes():
    for components in [(), (NAT,), (REAL,)]:
        with pytest.raises(AlgebraError, match="product arity must be >= 2"):
            Algebra.product(*components)
    with pytest.raises(AlgebraError, match="product arity must be >= 2"):
        Algebra.from_json({"kind": "product", "components": [{"kind": "interval-nat"}]})


def test_product_meet_join_complement_by_enumeration():
    alg = Algebra.product(Algebra.naturals(), Algebra.naturals())
    grid = [(x, y) for x in range(8) for y in range(8)]
    a = alg.join(alg.box((0, 3), (0, 3)), alg.box((4, None), (2, 6)))
    b = alg.box((2, 6), (1, None))

    m = alg.meet(a, b)
    j = alg.join(a, b)
    c = alg.complement(a)
    for p in grid:
        assert alg.denotes(m, p) == (alg.denotes(a, p) and alg.denotes(b, p))
        assert alg.denotes(j, p) == (alg.denotes(a, p) or alg.denotes(b, p))
        assert alg.denotes(c, p) == (not alg.denotes(a, p))


def test_product_canonical_equality():
    alg = Algebra.product(Algebra.naturals(), Algebra.naturals())
    # same denotation assembled from different box decompositions
    a = alg.join(alg.box((0, 5), (0, None)), alg.box((5, None), (0, None)))
    assert a == alg.top()
    b = alg.join(alg.box((0, 2), (0, 4)), alg.box((2, 5), (0, 4)))
    assert b == alg.box((0, 5), (0, 4))


def test_product_boxes_pairwise_disjoint():
    rng = random.Random(7)
    alg = Algebra.product(Algebra.naturals(), Algebra.naturals())
    for _ in range(50):
        p = alg.bottom()
        for _ in range(rng.randrange(1, 4)):
            lo1 = rng.randrange(6)
            lo2 = rng.randrange(6)
            p = alg.join(p, alg.box((lo1, lo1 + rng.randrange(1, 4)),
                                    (lo2, None if rng.random() < 0.3 else lo2 + rng.randrange(1, 4))))
        for i, b1 in enumerate(p.boxes):
            for b2 in p.boxes[i + 1:]:
                m = alg.meet(alg.from_boxes([b1]), alg.from_boxes([b2]))
                assert alg.is_empty(m)


def random_nat_pred(rng):
    p = NAT.bottom()
    for _ in range(rng.randrange(0, 4)):
        lo = rng.randrange(0, 40)
        hi = None if rng.random() < 0.2 else lo + rng.randrange(1, 10)
        p = NAT.join(p, NAT.interval(lo, hi))
    return p


def test_boolean_laws_sampled():
    rng = random.Random(42)
    for _ in range(300):
        a = random_nat_pred(rng)
        b = random_nat_pred(rng)
        m, j, c = NAT.meet(a, b), NAT.join(a, b), NAT.complement(a)
        for _ in range(12):
            x = rng.randrange(0, 60)
            assert NAT.denotes(m, x) == (NAT.denotes(a, x) and NAT.denotes(b, x))
            assert NAT.denotes(j, x) == (NAT.denotes(a, x) or NAT.denotes(b, x))
            assert NAT.denotes(c, x) == (not NAT.denotes(a, x))


def test_normalization_idempotent_and_semantic():
    rng = random.Random(3)
    for _ in range(200):
        a = random_nat_pred(rng)
        b = random_nat_pred(rng)
        if all(NAT.denotes(a, x) == NAT.denotes(b, x) for x in range(80)):
            assert a == b
        # rebuilding from own intervals is the identity
        assert NAT.union(*(NAT.interval(lo, hi) for lo, hi in a.ivs)) == a


def test_witness_is_minimum_sampled():
    rng = random.Random(11)
    for _ in range(100):
        p = random_nat_pred(rng)
        if NAT.is_empty(p):
            continue
        w = NAT.witness(p)
        assert NAT.denotes(p, w)
        assert not any(NAT.denotes(p, x) for x in range(w))


def test_real_algebra_minimum():
    alg = Algebra.reals(minimum=-274.0)
    assert alg.min_char() == -274.0
    assert alg.top() == alg.interval(-274.0, None)
    assert alg.complement(alg.interval(-15.0, None)) == alg.interval(-274.0, -15.0)
    with pytest.raises(AlgebraError):
        alg.norm_char(-300.0)
    with pytest.raises(AlgebraError):
        alg.norm_char(float("nan"))


def test_flat_boxes_and_json_roundtrip():
    alg = Algebra.product(Algebra.naturals(), Algebra.naturals())
    p = alg.join(alg.box((0, 5), (5, 7)), alg.box((7, None), (5, 7)))
    fb = flat_boxes(alg, p)
    assert sorted(fb) == [(((0, 5), (5, 7))), ((7, None), (5, 7))]
    data = alg.pred_to_json(p)
    assert alg.pred_from_json(data) == p

    q = ivs((0, 5), (7, None))
    assert NAT.pred_from_json(NAT.pred_to_json(q)) == q


def test_na_wrapper_in_json():
    alg = Algebra.reals()
    p = alg.pred_from_json([[[0, {"na": 0.4}]]])
    assert alg.denotes(p, 0.4)
    assert not alg.denotes(p, alg.next_above(0.4))
    assert NAT.pred_from_json([[[0, {"na": 4}]], [[{"na": 6}, None]]]) == ivs((0, 5), (7, None))


def test_interval_file_guards_have_one_axis_per_box():
    # a second axis in a box is an error, not silently dropped
    with pytest.raises(AlgebraError, match=r"^box arity 2 != 1$"):
        NAT.pred_from_json([[[0, 5], [7, 9]], [[5, None]]])
    with pytest.raises(AlgebraError, match=r"^box arity 0 != 1$"):
        REAL.pred_from_json([[]])
    assert NAT.pred_from_json([[[0, 5]], [[7, 9]], [[5, None]]]) == NAT.top()
    assert NAT.pred_from_json([]) == NAT.bottom()


def test_algebra_descriptor_roundtrip():
    for alg in (NAT, Algebra.naturals(bound=2), Algebra.reals(minimum=-2.5),
                EQ, Algebra.equality(carrier=[1, 2, 3]),
                Algebra.product(Algebra.naturals(bound=2), Algebra.reals())):
        assert Algebra.from_json(alg.to_json()) == alg


def test_kind_mismatch_errors():
    with pytest.raises(AlgebraError):
        NAT.denotes(REAL.top(), 3)
    with pytest.raises(AlgebraError):
        NAT.meet(NAT.top(), EQ.eq_chars({1}))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["product-2", "product-3"]), st.data())
def test_member_agrees_with_denotes_and_flat_boxes(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    p = data.draw(guards(alg))
    boxes = flat_boxes(alg, p)
    for a in endpoint_grid(alg, [p]) + data.draw(st.lists(domain_chars(alg), max_size=20)):
        in_box = any(all(lo <= x and (hi is None or x < hi) for x, (lo, hi) in zip(a, box))
                     for box in boxes)
        assert member(p, alg.norm_char(a)) == alg.denotes(p, a) == in_box, a


# -- product predicates against the decision-list reference -------------------


def fresh_copy(p):
    """A fresh copy of interval or product predicate ``p``, built from its payload alone."""
    return Predicate(kind=p.kind, ivs=p.ivs, boxes=p.boxes)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["product-2", "product-3"]), st.data())
def test_product_boolean_laws_and_structural_equality(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    p, q = data.draw(guards(alg)), data.draw(guards(alg))
    results = {"meet": alg.meet(p, q), "join": alg.join(p, q), "complement": alg.complement(p)}
    # an operation on fresh copies of the arguments agrees
    assert results == {"meet": alg.meet(fresh_copy(p), fresh_copy(q)),
                       "join": alg.join(fresh_copy(p), fresh_copy(q)),
                       "complement": alg.complement(fresh_copy(p))}
    for a in endpoint_grid(alg, [p, q]):
        in_p, in_q = member(p, a), member(q, a)
        assert member(results["meet"], a) == (in_p and in_q), a
        assert member(results["join"], a) == (in_p or in_q), a
        assert member(results["complement"], a) == (not in_p), a
    for r in (p, q, *results.values()):
        copy = fresh_copy(r)
        assert r == copy and hash(r) == hash(copy) and repr(r) == repr(copy)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["product-2", "product-3"]), st.data())
def test_normalization_matches_box_by_box_join(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    raw = data.draw(raw_boxes(alg))
    got, want = alg.from_boxes(raw), norm_boxes_box_by_box(alg, raw)
    assert got == want  # box order included


@pytest.mark.parametrize("kind", ["interval-nat", "interval-nat-bounded", "interval-real",
                                  "product-2", "product-3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_union_matches_fold_over_join(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    preds = data.draw(st.lists(st.one_of(guards(alg), st.just(alg.bottom())), min_size=1,
                               max_size=5))
    got, want = alg.union(*preds), union_by_join(alg, *preds)
    assert got == want


PRODUCT_4 = Algebra.product(Algebra.reals(), Algebra.naturals(bound=4),
                            Algebra.reals(minimum=-5.0), Algebra.naturals())


def first_axis_from(alg, minimum):
    """``alg`` with its first axis replaced by the reals from ``minimum``."""
    return Algebra.product(Algebra.reals(minimum=minimum), *alg.components[1:])


@pytest.mark.parametrize("kind", ["product-2", "product-3", "product-4"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_operations_match_decision_list_reference(kind, data):
    drawn = PRODUCT_4 if kind == "product-4" else GUARD_ALGEBRAS[kind]
    p, q = data.draw(guards(drawn)), data.draw(guards(drawn))
    raw = data.draw(raw_boxes(drawn))
    # the same predicates under the algebra they were drawn from and under one whose
    # first axis starts lower, where their complements cover more
    for alg in (drawn, first_axis_from(drawn, -5.0)):
        got = {"from_boxes": alg.from_boxes(raw), "union": alg.union(p, alg.bottom(), q),
               "meet": alg.meet(p, q), "join": alg.join(p, q), "complement": alg.complement(p)}
        want = {"from_boxes": dl_from_boxes(alg, raw),
                "union": dl_from_boxes(alg, p.boxes + q.boxes),
                "meet": dl_meet(alg, p, q), "join": dl_join(alg, p, q),
                "complement": dl_complement(alg, p)}
        assert {op: r.boxes for op, r in got.items()} == {op: r.boxes for op, r in want.items()}


def test_operations_follow_the_algebra_not_the_predicate():
    at_0 = Algebra.product(Algebra.reals(minimum=0), Algebra.naturals())
    at_minus_5 = Algebra.product(Algebra.reals(minimum=-5), Algebra.naturals())
    p = at_0.box((1.0, 2.0), (0, 3))  # built under at_0, then used under at_minus_5 too
    q = at_0.box((3.0, None), (2, None))
    assert at_0.join(p, q) == at_0.join(fresh_copy(p), fresh_copy(q))
    c = at_minus_5.complement(p)
    assert at_minus_5.denotes(c, (-3.0, 0))
    assert c == at_minus_5.complement(fresh_copy(p))
    assert at_minus_5.join(p, q) == at_minus_5.join(fresh_copy(p), fresh_copy(q))
    assert at_minus_5.meet(c, q) == at_minus_5.meet(fresh_copy(c), fresh_copy(q))
    # and back: under at_0 the complement starts at 0 again
    assert at_0.complement(p) == at_0.complement(fresh_copy(p))
    assert at_0.denotes(at_0.complement(p), (0.0, 0))


def test_interval_operations_follow_the_algebra_not_the_predicate():
    at_0, at_minus_5 = Algebra.reals(minimum=0), Algebra.reals(minimum=-5)
    p = at_0.union(at_0.interval(1.0, 2.0), at_0.interval(4.0, 6.0))  # used under both
    q = at_0.interval(5.0, None)
    c = at_minus_5.complement(p)
    assert c.ivs == ((-5.0, 1.0), (2.0, 4.0), (6.0, None))
    assert at_0.complement(p).ivs == ((0.0, 1.0), (2.0, 4.0), (6.0, None))
    assert at_minus_5.meet(c, q).ivs == ((6.0, None),)
    assert at_minus_5.meet(at_minus_5.complement(q), c).ivs == ((-5.0, 1.0), (2.0, 4.0))
    assert at_minus_5.join(c, q).ivs == ((-5.0, 1.0), (2.0, 4.0), (5.0, None))
    assert at_minus_5.join(c, p) == at_minus_5.union(c, p, q) == at_minus_5.top()
    assert at_0.join(p, q) == at_minus_5.join(p, q)
    for alg in (at_0, at_minus_5):
        assert alg.complement(alg.complement(p)) == p


# -- interval predicates against the sorted-interval reference ------------------


@pytest.mark.parametrize("kind", ["interval-nat", "interval-nat-bounded", "interval-real"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_interval_operations_match_sorted_interval_reference(kind, data):
    drawn = GUARD_ALGEBRAS[kind]
    preds = st.one_of(guards(drawn), st.just(drawn.bottom()))
    p, q, r = data.draw(preds), data.draw(preds), data.draw(preds)
    lo = data.draw(st.sampled_from(axis_pool(drawn)))
    hi = data.draw(st.one_of(st.none(), st.integers(1, 12).map(lambda d: lo + d)))  # past a bound
    # the same predicates under the algebra they were drawn from and, for the reals,
    # under one whose minimum is lower, where their complements cover more
    lower = [Algebra.reals(minimum=drawn.minimum - 5.0)] if kind == "interval-real" else []
    for alg in (drawn, *lower):
        got = {"interval": alg.interval(lo, hi), "union": alg.union(p, q, r),
               "join": alg.join(p, q), "meet": alg.meet(p, q), "complement": alg.complement(p)}
        want = {"interval": ivs_interval(alg, lo, hi), "union": ivs_union(alg, p, q, r),
                "join": ivs_join(alg, p, q), "meet": ivs_meet(alg, p, q),
                "complement": ivs_complement(alg, p)}
        assert got == want
        # endpoint types included: 0 and 0.0 compare equal, but print differently in files
        assert {op: repr(x.ivs) for op, x in got.items()} == \
            {op: repr(x.ivs) for op, x in want.items()}
