import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalearn.algebra import Algebra, AlgebraError
from smalearn.partition import (
    PartitionError,
    partition_intervals,
    partition_product,
    partitioner_for,
)

NAT = Algebra.naturals()


def check_partition(algebra, groups, preds, probe_chars):
    assert len(preds) == len(groups)
    for g, p in zip(groups, preds):
        for a in g:
            assert algebra.denotes(p, a), f"sample {a} not in its group predicate"
    joined = algebra.union(*preds)
    assert joined == algebra.top()
    for i in range(len(preds)):
        for j in range(i + 1, len(preds)):
            assert algebra.is_empty(algebra.meet(preds[i], preds[j]))
    for a in probe_chars:
        assert sum(algebra.denotes(p, a) for p in preds) == 1


def test_interval_two_group_example():
    preds = partition_intervals(NAT, [{2, 7, 10}, {5}])
    assert preds[0] == NAT.union(NAT.interval(0, 5), NAT.interval(7, None))
    assert preds[1] == NAT.interval(5, 7)


def test_interval_single_group_covers():
    assert partition_intervals(NAT, [{0}]) == [NAT.top()]
    assert partition_intervals(NAT, [{17}]) == [NAT.top()]


def test_interval_two_blocks():
    preds = partition_intervals(NAT, [{0, 10}, {20}])
    assert preds == [NAT.interval(0, 20), NAT.interval(20, None)]


def test_interval_empty_group_gets_bottom():
    preds = partition_intervals(NAT, [{3}, set()])
    assert preds == [NAT.top(), NAT.bottom()]


def test_interval_errors():
    with pytest.raises(PartitionError):
        partition_intervals(NAT, [{1, 2}, {2}])
    with pytest.raises(PartitionError):
        partition_intervals(NAT, [set(), set()])


def test_product_two_singletons_split_first_axis():
    alg = Algebra.product(Algebra.naturals(bound=2), Algebra.naturals())
    preds = partition_product(alg, [{(0, 0)}, {(1, 0)}])
    b2 = Algebra.naturals(bound=2)
    assert preds[0] == alg.from_boxes([(b2.interval(0, 1), NAT.top())])
    assert preds[1] == alg.from_boxes([(b2.interval(1, None), NAT.top())])
    probes = [(x, y) for x in range(2) for y in range(6)]
    check_partition(alg, [{(0, 0)}, {(1, 0)}], preds, probes)


def test_product_mh_flavored_samples():
    bool_axis = Algebra.naturals(bound=2)
    real = Algebra.reals(minimum=-274.0)
    alg = Algebra.product(bool_axis, Algebra.reals(), real, Algebra.reals())
    na = Algebra.reals().next_above
    groups = [
        {(1, 0.0, -15.0, na(0.4)), (1, 0.0, -274.0, 0.3)},
        {(0, 0.0, -274.0, 0.0)},
    ]
    preds = partition_product(alg, groups)
    probes = [
        (b, alt, t, c)
        for b in (0, 1)
        for alt in (0.0, 0.5)
        for t in (-274.0, -15.0, 3.0)
        for c in (0.0, 0.3, 0.45, 0.9)
    ]
    check_partition(alg, groups, preds, probes)


from helpers import (
    GUARD_ALGEBRAS,
    domain_chars,
    endpoint_grid,
    nat_probe,
    partition_product_by_cones,
    product_probe,
    random_nat_groups,
    random_product_groups,
)


def test_interval_validity_and_stability_randomized():
    rng = random.Random(202)
    for _ in range(400):
        groups = random_nat_groups(rng)
        preds = partition_intervals(NAT, groups)
        check_partition(NAT, groups, preds, range(50))
        grown = []
        for g, p in zip(groups, preds):
            extra = set(g)
            if not NAT.is_empty(p):
                for _ in range(rng.randrange(3)):
                    extra.add(nat_probe(p, rng))
            grown.append(extra)
        assert partition_intervals(NAT, grown) == preds


@pytest.mark.parametrize("axes_spec", ["nn", "bn", "nnn", "rn"])
def test_product_validity_and_stability_randomized(axes_spec):
    rng = random.Random(hash(axes_spec) % 10000)
    axis_map = {"n": Algebra.naturals(), "b": Algebra.naturals(bound=2),
                "r": Algebra.reals()}
    alg = Algebra.product(*(axis_map[c] for c in axes_spec))
    for _ in range(150):
        groups = random_product_groups(rng, alg)
        preds = partition_product(alg, groups)
        probes = [product_probe(alg, alg.top(), rng) for _ in range(20)]
        check_partition(alg, groups, preds, probes)
        grown = []
        for g, p in zip(groups, preds):
            extra = set(g)
            if not alg.is_empty(p):
                for _ in range(rng.randrange(3)):
                    extra.add(product_probe(alg, p, rng))
            grown.append(extra)
        regrown = partition_product(alg, grown)
        assert regrown == preds, (groups, grown, preds, regrown)


@pytest.mark.parametrize("name", ["nat", "real", "nn", "bn", "nnn", "rn"])
def test_predicates_ignore_empty_groups_and_group_order(name):
    """A group's predicate stays the same when empty groups are inserted anywhere and the
    groups are permuted; empty groups get bottom.  ``state_partitions`` passes only the
    groups that hold samples, in an order of its own, and relies on this."""
    axis_map = {"n": Algebra.naturals(), "b": Algebra.naturals(bound=2), "r": Algebra.reals()}
    rng = random.Random(f"reorder-{name}")
    if name in ("nat", "real"):
        alg = NAT if name == "nat" else Algebra.reals(minimum=-5.0)
        draw = random_nat_groups
    else:
        alg = Algebra.product(*(axis_map[c] for c in name))
        draw = functools.partial(random_product_groups, alg=alg)
    partition = partitioner_for(alg)
    for _ in range(200):
        groups = draw(rng)
        preds = partition(alg, groups)
        slots = list(range(len(groups)))  # each new group's old index, None for an empty one
        rng.shuffle(slots)
        for _ in range(rng.randrange(4)):
            slots.insert(rng.randrange(len(slots) + 1), None)
        moved = partition(alg, [set() if i is None else groups[i] for i in slots])
        assert moved == [alg.bottom() if i is None else preds[i] for i in slots], (groups, slots)


def test_product_deterministic():
    alg = Algebra.product(Algebra.naturals(), Algebra.naturals())
    groups = [{(0, 3), (4, 1)}, {(2, 2)}, {(5, 0)}]
    a = partition_product(alg, groups)
    b = partition_product(alg, [set(g) for g in groups])
    assert a == b


def test_partitioner_dispatch():
    assert partitioner_for(NAT) is partition_intervals
    assert partitioner_for(Algebra.product(NAT, NAT)) is partition_product
    with pytest.raises(AlgebraError, match=r"^no partitioning function for kind bogus$"):
        partitioner_for(Algebra(kind="bogus"))


@st.composite
def sample_groups(draw, alg, chars=None):
    """Up to six disjoint groups of distinct samples (from ``chars``, by default any
    characters of ``alg``), some of them empty."""
    chars = draw(st.lists(domain_chars(alg) if chars is None else chars, min_size=1, max_size=10,
                          unique_by=alg.norm_char))
    k = draw(st.integers(1, 6))
    groups = [set() for _ in range(k)]
    for a in chars:
        groups[draw(st.integers(0, k - 1))].add(a)
    return groups


def sweep_order(alg, a):
    a = alg.norm_char(a)
    return (sum(a), a) if alg.kind == "product" else a


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["interval-nat", "interval-real", "product-2", "product-3"]),
       data=st.data())
def test_partitions_stay_valid_and_stable_as_samples_grow(name, data):
    alg = GUARD_ALGEBRAS[name]
    partition = partitioner_for(alg)
    groups = data.draw(sample_groups(alg))
    preds = partition(alg, groups)

    assert len(preds) == len(groups)
    for g, p in zip(groups, preds):
        assert all(alg.denotes(p, a) for a in g)
        if not g:
            assert p == alg.bottom()
    assert alg.union(*preds) == alg.top()
    for p, q in itertools.combinations(preds, 2):
        assert alg.is_empty(alg.meet(p, q))
    grid = endpoint_grid(alg, preds)
    for c in grid:
        assert sum(alg.denotes(p, c) for p in preds) == 1
    # the first sample of the sweep keeps the region below every sample
    first = min(((a, i) for i, g in enumerate(groups) for a in g),
                key=lambda t: sweep_order(alg, t[0]))[1]
    assert alg.denotes(preds[first], alg.min_char())

    grown = [set(g) for g in groups]
    for c in data.draw(st.lists(st.one_of(domain_chars(alg), st.sampled_from(grid)),
                                max_size=8)):
        owner = next(i for i, p in enumerate(preds) if alg.denotes(p, c))
        grown[owner].add(c)
    assert partition(alg, grown) == preds


def half_integer_chars(alg):
    """Product characters with half-integer real coordinates, so that samples share
    coordinates and land on each other's cuts often."""
    axes = []
    for axis in alg.components:
        if axis.kind == "interval-nat":
            axes.append(st.integers(0, 11 if axis.bound is None else axis.bound - 1))
        else:
            axes.append(st.integers(int(2 * axis.minimum), 24).map(lambda n: n / 2))
    return st.tuples(*axes)


def assert_matches_cone_reference(alg, groups):
    preds = partition_product(alg, groups)
    assert preds == partition_product_by_cones(alg, groups), groups
    return preds


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["product-2", "product-3"]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_partition_product_matches_cone_reference(name, seed, data):
    alg = GUARD_ALGEBRAS[name]
    chars = half_integer_chars(alg)
    for groups in (random_product_groups(random.Random(seed), alg),
                   data.draw(sample_groups(alg, chars))):
        preds = assert_matches_cone_reference(alg, groups)
        grown = [set(g) for g in groups]
        for c in data.draw(st.lists(st.one_of(chars, st.sampled_from(endpoint_grid(alg, preds))),
                                    max_size=8)):
            owner = next(i for i, p in enumerate(preds) if alg.denotes(p, c))
            grown[owner].add(c)
        assert assert_matches_cone_reference(alg, grown) == preds


def test_partition_product_matches_cone_reference_on_a_large_input():
    alg = Algebra.product(Algebra.naturals(), Algebra.reals(minimum=-5.0),
                          Algebra.naturals(bound=4))
    rng = random.Random(12)
    chars = sorted({(rng.randrange(20), rng.randrange(-10, 40) / 2, rng.randrange(4))
                    for _ in range(150)})
    groups = [set() for _ in range(4)]  # the last group stays empty
    for a in chars:
        groups[rng.randrange(3)].add(a)
    assert_matches_cone_reference(alg, groups)
