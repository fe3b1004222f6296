"""Partitioning functions: disjoint finite sample groups to domain partitions.

Every function here takes an ordered list of pairwise-disjoint finite sample
sets and returns a same-length list of predicates that are pairwise disjoint,
jointly cover the domain, and contain their samples.  The functions are
deterministic and *stable*: enlarging each sample set within its own output
predicate does not change the result.  Stability is what lets a learner keep
refining sample sets without invalidating predicates it already inferred,
and ``learn`` relies on it: a state keeps its predicates from round to round
while its groups only grow inside them.
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


def _check_groups(algebra: Algebra, groups) -> dict:
    """Group index -> its sorted normalized samples, for the non-empty groups only."""
    normd = {}
    seen = {}
    for i, g in enumerate(groups):
        if not g:
            continue
        chars = sorted(algebra.norm_char(a) for a in g)
        for a in chars:
            if a in seen:
                raise PartitionError(f"sample {a!r} occurs in groups {seen[a]} and {i}")
            seen[a] = i
        normd[i] = chars
    if not seen:
        raise PartitionError("at least one sample group must be non-empty")
    return normd


def partition_intervals(algebra: Algebra, groups) -> list[Predicate]:
    """Ascending sweep over a 1-D ordered domain.

    Each sample claims the half-open interval from itself up to the next
    sample; the lowest sample also takes the trailing region below it, down
    to the domain minimum.  Adjacent claims of one group merge into one
    interval, and every empty group gets the same bottom.
    """
    if algebra.kind not in INTERVAL_KINDS:
        raise AlgebraError(f"partition_intervals needs an interval algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    items = sorted((a, i) for i, g in normd.items() for a in g)
    ivs = {}  # group -> its intervals so far, ascending and non-touching
    lo = algebra.min_char()
    for j, (_, i) in enumerate(items):
        hi = items[j + 1][0] if j + 1 < len(items) else None
        own = ivs.setdefault(i, [])
        if own and own[-1][1] == lo:
            own[-1] = (own[-1][0], hi)
        else:
            own.append((lo, hi))
        lo = hi
    bottom = algebra.bottom()
    return [Predicate(kind=algebra.kind, ivs=tuple(ivs[i])) if i in ivs else bottom
            for i in range(len(groups))]


def partition_equality(algebra: Algebra, groups) -> list[Predicate]:
    """Each group keeps exactly its samples; the first group (index 0) absorbs the rest."""
    if algebra.kind != "equality":
        raise AlgebraError(f"partition_equality needs the equality algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    others = frozenset(a for i, g in normd.items() if i for a in g)
    bottom = algebra.bottom()
    return [algebra.complement(algebra.eq_chars(others))] + [
        algebra.eq_chars(normd[i]) if i in normd else bottom for i in range(1, len(groups))]


def partition_product(algebra: Algebra, groups) -> list[Predicate]:
    """Dominance-cone capture over a product of interval domains.

    Samples are processed in ascending order of coordinate sum (ties by
    tuple order).  The first sample's group takes the whole domain; every
    later sample landing in a foreign group's region moves the intersection
    of its upward cone with that region into its own group.  A sample inside
    its own group's region changes nothing, which gives stability.
    """
    if algebra.kind != "product":
        raise AlgebraError(f"partition_product needs a product algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    k = len(groups)
    axes = algebra.components
    items = sorted(((a, i) for i, g in normd.items() for a in g),
                   key=lambda t: (sum(t[0]), t[0]))
    bottom = algebra.bottom()
    preds = [bottom] * k
    first_char, first_group = items[0]
    preds[first_group] = algebra.top()
    live = [first_group]  # groups that ever held a region; the probe skips the rest
    for a, i in items[1:]:
        at = next(g for g in live if member(preds[g], a))
        if at == i:
            continue
        cone = algebra.from_boxes([tuple(ax.interval(c, None) for ax, c in zip(axes, a))])
        captured = algebra.meet(cone, preds[at])
        preds[at] = algebra.meet(preds[at], algebra.complement(captured))
        if preds[i] is bottom:
            live.append(i)
        preds[i] = algebra.join(preds[i], captured)
    return preds
