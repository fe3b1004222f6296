"""Partitioning functions: disjoint finite sample groups to domain partitions.

Every function here takes an ordered list of pairwise-disjoint finite sample
sets and returns a same-length list of predicates that are pairwise disjoint,
jointly cover the domain, and contain their samples; an empty group gets
bottom.  For intervals and products a group's predicate depends neither on
the empty groups nor on the groups' order, so ``automata.state_partitions``
passes only the groups that hold samples.  The functions are
deterministic and *stable*: enlarging each sample set within its own output
predicate does not change the result.  Stability is what lets a learner keep
refining sample sets without invalidating predicates it already inferred,
and ``learn`` relies on it: a state keeps its predicates from round to round
while its groups only grow inside them.

Intervals and products label the cells of a label map with groups (per axis
a cut list from the axis minimum, each segment holding the map of the next
axis or a group label), and ``algebra.read_labels`` reads each group's
predicate back, as it does for every product predicate the algebra builds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .algebra import Algebra, AlgebraError, Predicate, INTERVAL_KINDS, read_labels


class PartitionError(ValueError):
    """Invalid sample list (overlap, arity mismatch, or no samples)."""


def partitioner_for(algebra: Algebra):
    """Pick the partitioning function matching the algebra kind."""
    if algebra.kind in INTERVAL_KINDS:
        return partition_intervals
    if algebra.kind == "product":
        return partition_product
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
    samples, labels = zip(*sorted((a, i) for i, g in normd.items() for a in g))
    preds = read_labels(algebra, ((algebra.min_char(),) + samples[1:], labels), normd)
    bottom = algebra.bottom()
    return [preds[i] if i in preds else bottom for i in range(len(groups))]


def partition_equality(algebra: Algebra, groups) -> list[Predicate]:
    """Partitions no algebra kind and always raises ``AlgebraError``.  It exists only
    because the benchmark's span list (``benchmarks/tracing.py`` ``SPANS``) wraps this name."""
    raise AlgebraError(f"no partitioning function for kind {algebra.kind}")


def partition_product(algebra: Algebra, groups) -> list[Predicate]:
    """Dominance-cone capture over a product of interval domains, on one label map.

    Samples are processed in ascending order of coordinate sum (ties by
    tuple order).  The first sample's group takes the whole domain; every
    later sample landing in a foreign group's region moves the intersection
    of its upward cone with that region into its own group.  A sample inside
    its own group's region changes nothing, which gives stability.

    A capture splits the segments holding the sample and relabels the cone's
    cells that carry its cell's label; groups are read off the map at the end.
    """
    if algebra.kind != "product":
        raise AlgebraError(f"partition_product needs a product algebra, got {algebra.kind}")
    normd = _check_groups(algebra, groups)
    items = sorted(((a, i) for i, g in normd.items() for a in g),
                   key=lambda t: (sum(t[0]), t[0]))
    root = items[0][1]
    for axis in reversed(algebra.components):
        root = ([axis.min_char()], [root])

    def copy(node, axes):
        cuts, subs = node
        return cuts[:], subs[:] if axes == 1 else [copy(sub, axes - 1) for sub in subs]

    def capture(node, a, at, i):  # ``a``: the coordinates on node's axis and those below it
        cuts, subs = node
        k = bisect_left(cuts, a[0])
        if k == len(cuts) or cuts[k] != a[0]:  # split at a[0]; the upper part gets a copy
            cuts.insert(k, a[0])
            subs.insert(k, subs[k - 1] if len(a) == 1 else copy(subs[k - 1], len(a) - 1))
        for j in range(k, len(subs)):
            if len(a) > 1:
                capture(subs[j], a[1:], at, i)
            elif subs[j] == at:
                subs[j] = i

    for a, i in items[1:]:
        at = root
        for x in a:  # down to the label of a's cell
            at = at[1][bisect_right(at[0], x) - 1]
        if at != i:
            capture(root, a, at, i)
    preds = read_labels(algebra, root, normd)
    bottom = algebra.bottom()
    return [preds[i] if i in preds else bottom for i in range(len(groups))]

