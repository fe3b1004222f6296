"""Partitioning functions: disjoint finite sample groups to domain partitions.

Every function here takes an ordered list of pairwise-disjoint finite sample
sets and returns a same-length list of predicates that are pairwise disjoint,
jointly cover the domain, and contain their samples; an empty group gets
bottom.  For intervals and products a group's predicate depends neither on
the empty groups nor on the groups' order, so the groups of
``automata.state_groups``, which all hold samples, are passed in the order
they come.  The functions are deterministic and *stable*: enlarging each sample set within its own output
predicate does not change the result.  Stability is what lets a learner keep
refining sample sets without invalidating predicates it already inferred,
and ``learner.sep_pred`` relies on it: a state keeps its compiled table
from round to round while its groups only grow inside its cells.

Both check their groups, label the cells of a label map with them (per axis
a cut list from the axis minimum, each segment holding the map of the next
axis or a group label), and ``algebra.read_labels`` reads each group's
predicate back.  ``learner.sep_pred`` calls the map builders (``label_map_for``)
on its groups, which are disjoint and normalized, labelled with their keys: the
builders never order two labels (disjoint samples never tie), so any distinct
labels serve, and the merged map is the state's compiled table.
"""

from __future__ import annotations

from bisect import bisect_left

from .algebra import Algebra, AlgebraError, Predicate, INTERVAL_KINDS, read_labels


class PartitionError(ValueError):
    """Invalid sample list (overlap, arity mismatch, or no samples)."""


def partitioner_for(algebra: Algebra):
    """Pick the partitioning function matching the algebra kind."""
    return partition_product if label_map_for(algebra) is product_map else partition_intervals


def label_map_for(algebra: Algebra):
    """Pick the label-map builder of the partitioning function matching the algebra kind."""
    if algebra.kind in INTERVAL_KINDS:
        return interval_map
    if algebra.kind == "product":
        return product_map
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


def _partition(algebra: Algebra, groups, label_map) -> list[Predicate]:
    """Validate ``groups``, label a map with them and read each group's predicate off it."""
    normd = _check_groups(algebra, groups)
    preds = read_labels(algebra, label_map(algebra, normd), normd)
    bottom = algebra.bottom()
    return [preds[i] if i in preds else bottom for i in range(len(groups))]


def partition_intervals(algebra: Algebra, groups) -> list[Predicate]:
    """Ascending sweep over a 1-D ordered domain.

    Each sample claims the half-open interval from itself up to the next
    sample; the lowest sample also takes the trailing region below it, down
    to the domain minimum.  Adjacent claims of one group merge into one
    interval, and every empty group gets the same bottom.
    """
    if algebra.kind not in INTERVAL_KINDS:
        raise AlgebraError(f"partition_intervals needs an interval algebra, got {algebra.kind}")
    return _partition(algebra, groups, interval_map)


def interval_map(algebra: Algebra, groups) -> tuple:
    """``partition_intervals``' label map of ``groups``, label -> its normalized samples."""
    samples, labels = zip(*sorted((a, i) for i, g in groups.items() for a in g))
    return (algebra.min_char(),) + samples[1:], labels


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
    return _partition(algebra, groups, product_map)


def product_map(algebra: Algebra, groups) -> tuple:
    """``partition_product``'s label map of ``groups``, label -> its normalized samples."""
    items = sorted(((a, i) for i, g in groups.items() for a in g),
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

    label_at = algebra.lookup(root)
    for a, i in items[1:]:
        if (at := label_at(a)) != i:
            capture(root, a, at, i)
    return root

