"""Partitioning functions: disjoint finite sample groups to domain partitions.

Every function here takes an ordered list of pairwise-disjoint finite sample
sets and returns a same-length list of predicates that are pairwise disjoint,
jointly cover the domain, and contain their samples.  The functions are
deterministic and *stable*: enlarging each sample set within its own output
predicate does not change the result.  Stability is what lets a learner keep
refining sample sets without invalidating predicates it already inferred.
"""

from __future__ import annotations

from .algebra import Algebra, AlgebraError, Predicate, INTERVAL_KINDS, member


class PartitionError(ValueError):
    """Invalid sample list (overlap, arity mismatch, or no samples)."""


def partitioner_for(algebra: Algebra):
    """Pick the partitioning function matching the algebra kind."""
    if algebra.kind in INTERVAL_KINDS:
        return partition_intervals
    if algebra.kind == "product":
        return partition_product
    if algebra.kind == "equality":
        return partition_equality
    raise AlgebraError(f"no partitioning function for kind {algebra.kind}")


def _check_groups(algebra: Algebra, groups):
    normd = []
    seen = {}
    for i, g in enumerate(groups):
        chars = sorted(algebra.norm_char(a) for a in g)
        for a in chars:
            if a in seen:
                raise PartitionError(f"sample {a!r} occurs in groups {seen[a]} and {i}")
            seen[a] = i
        normd.append(chars)
    if not seen:
        raise PartitionError("at least one sample group must be non-empty")
    return normd


def partition_intervals(algebra: Algebra, groups) -> list[Predicate]:
    """Descending sweep over a 1-D ordered domain.

    The maximum remaining sample claims the half-open interval from itself up
    to the previously claimed sample; the trailing region below the overall
    minimum joins the minimum sample's group.
    """
    if algebra.kind not in INTERVAL_KINDS:
        raise AlgebraError(f"partition_intervals needs an interval algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    preds = [algebra.bottom() for _ in normd]
    items = sorted((a, i) for i, g in enumerate(normd) for a in g)
    upper = None
    last = None
    for a, i in reversed(items):
        preds[i] = algebra.join(preds[i], algebra.interval(a, upper))
        upper = a
        last = i
    bottom = algebra.min_char()
    if upper is not None and upper > bottom:
        preds[last] = algebra.join(preds[last], algebra.interval(bottom, upper))
    return preds


def partition_equality(algebra: Algebra, groups) -> list[Predicate]:
    """Each group keeps exactly its samples; group 1 absorbs the rest."""
    if algebra.kind != "equality":
        raise AlgebraError(f"partition_equality needs the equality algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    others = frozenset(a for g in normd[1:] for a in g)
    preds = [algebra.complement(algebra.eq_chars(others))]
    for g in normd[1:]:
        preds.append(algebra.eq_chars(g))
    return preds


def partition_product(algebra: Algebra, groups) -> list[Predicate]:
    """Dominance-cone capture over a product of interval domains.

    Samples are processed in ascending order of coordinate sum (ties by
    tuple order).  The first sample's group takes the whole domain; every
    later sample landing in a foreign group's region moves the intersection
    of its upward cone with that region into its own group.  A sample inside
    its own group's region changes nothing, which gives stability, and at
    arity 1 the construction coincides with the interval sweep.
    """
    if algebra.kind != "product":
        raise AlgebraError(f"partition_product needs a product algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    k = len(normd)
    axes = algebra.components
    if algebra.arity == 1:
        flat = [[a[0] for a in g] for g in normd]
        inner = partition_intervals(axes[0], flat)
        return [algebra.from_boxes([] if p.is_false() else [(p,)]) for p in inner]

    items = sorted(((a, i) for i, g in enumerate(normd) for a in g),
                   key=lambda t: (sum(t[0]), t[0]))
    preds = [algebra.bottom() for _ in range(k)]
    first_char, first_group = items[0]
    preds[first_group] = algebra.top()
    for a, i in items[1:]:
        at = next(g for g in range(k) if member(preds[g], a))
        if at == i:
            continue
        cone = algebra.from_boxes([tuple(ax.interval(c, None) for ax, c in zip(axes, a))])
        captured = algebra.meet(cone, preds[at])
        preds[at] = algebra.meet(preds[at], algebra.complement(captured))
        preds[i] = algebra.join(preds[i], captured)
    return preds
