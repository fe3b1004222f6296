"""Simulated teacher over a hidden target machine.

Output queries answer with the target's output for a word.  Counterexamples are drawn
only from the target's *essential characters*: per state, the grid spanned by the lower
endpoints of its guard boxes (plus the axis minima), read off its compiled table, as are
the hypothesis's.  Feeding them to the partitioning function rebuilds each state's guard
partition (checked, after the target is validated, when the first ``EquivOracle`` on a
target object is built), so a learner terminates without seeing other characters.  One
breadth-first walk of the hypothesis-target product over them decides an equivalence
query; ``symbolic_equiv`` runs only after a walk that finds no difference.
Each ``EquivOracle`` keeps the row of every compiled state table it has stepped.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

from .automata import (AutomatonError, SMealy, _no_transition, _steps, first_difference,
                       restrict, state_groups, symbolic_equiv)
from .partition import partitioner_for


class OracleAssumptionViolation(RuntimeError):
    """The essential-character model does not cover a hypothesis/target pair."""


def essential_characters(target: SMealy) -> list:
    """Characters sufficient to identify all of the target's partitions: per state, the
    grid of its guards' lower endpoints and the axis minima, read off its compiled table:
    per axis, every cut at that depth.  The machine must be valid, as ``EquivOracle`` checks
    first: on a merged, complete table every cut is some guard's lower endpoint."""
    alg = target.algebra
    chars = {tuple(axis.min_char() for axis in alg._axes)}  # grid points, 1-tuples in 1-D
    for table in target._tables.values():
        lows, level = [], [table]
        for axis in alg._axes:  # the nodes of one depth, then those below them
            lows.append({axis.min_char(), *(c for cuts, _ in level for c in cuts)})
            level = [sub for _, subs in level for sub in subs]
        chars.update(itertools.product(*lows))
    return sorted(chars if alg.components else (a for a, in chars))


def check_partition_reconstruction(target: SMealy, chars):
    """Verify the partitioning function rebuilds every state's partition from the target's
    restriction to ``chars``, grouped per state as the learner groups its evidence."""
    alg = target.algebra
    bottom = alg.bottom()
    for q, groups in enumerate(state_groups(restrict(target, chars))):
        rebuilt = dict(zip(groups, partitioner_for(alg)(alg, list(groups.values()))))
        guards = {(tr.target, tr.output): tr.guard for tr in target.state_transitions(q)}
        if rebuilt != guards:  # name the first differing key, by successor and output rank
            key = min((k for k in rebuilt.keys() | guards.keys()
                       if rebuilt.get(k, bottom) != guards.get(k, bottom)),
                      key=lambda k: (k[0], target.outputs.index(k[1])))
            raise OracleAssumptionViolation(
                f"state {q}, group {key}: partitioning function rebuilds "
                f"{rebuilt.get(key, bottom)!r} instead of {guards.get(key, bottom)!r}")


class OutputOracle:
    """Answers output queries; counts distinct words and total calls.

    Each character object is checked with ``norm_char`` when first seen,
    before the cache lookup, and its normal form kept by identity (a value
    key would take ``True`` for ``1``); a failed word moves no count.  Each
    answered word is cached with the (successor, output) leaf of the
    target's compiled table that its last step returned, not a new tuple,
    and a new word is run on those tables from the state of its longest
    answered prefix.  A learner asks ``w·col`` after ``w``, so that costs
    about ``|col|`` steps.
    """

    def __init__(self, target: SMealy):
        self.target = target
        self._cache = {}  # answered word -> its last step's (successor, output) table leaf
        self._chars = {}  # id(a) -> (a, its normal form); holding a keeps id(a) from reuse
        self.distinct_queries = 0
        self.total_queries = 0

    def query(self, word) -> str:
        word = tuple(word)
        if not word:
            raise ValueError("output query needs a non-empty word")
        chars, cache = self._chars, self._cache
        for a in word:  # before the lookup: an equal cached word may hold other characters
            if id(a) not in chars:
                chars[id(a)] = a, self.target.algebra.norm_char(a)
        hit = cache.get(word)
        if hit is None:
            q, start = self.target.initial, 0
            for i in range(len(word) - 1, 0, -1):
                prefix = cache.get(word[:i])
                if prefix is not None:
                    q, start = prefix[0], i
                    break
            finds = self.target._find
            for a in word[start:]:
                a = chars[id(a)][1]
                hit = finds[q](a) if q in finds else None
                if hit is None:
                    raise _no_transition(q, a)
                q = hit[0]
            cache[word] = hit
            self.distinct_queries += 1
        self.total_queries += 1
        return hit[1]


class EquivOracle:
    """Exact equivalence; counterexamples use essential characters only."""

    def __init__(self, target: SMealy, mode: str = "lexmin", seed: int | None = None):
        if mode not in ("lexmin", "random"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.target, self.mode, self.rng = target, mode, random.Random(seed)
        if target._oracle_setup is None:  # once per target object, kept once checked
            violations = target.validate()
            if violations:
                raise ValueError("target automaton is invalid: "
                                 + "; ".join(str(v) for v in violations))
            essential = essential_characters(target)
            check_partition_reconstruction(target, essential)
            target._oracle_setup = tuple(essential)
        self.essential = list(target._oracle_setup)
        self._rows = {}  # compiled state table -> its (successor, output) per essential char

    def query(self, hyp: SMealy):
        """None when equivalent, else the walk's counterexample or, in random mode, a draw
        among the words of its length; a difference only ``symbolic_equiv`` finds raises."""
        edges = _product_graph(hyp, self.target, self.essential, self._rows)
        if self.mode == "random":
            edges = cache(edges)  # one list per pair for the walk, the counts and the draw
        start = (hyp.initial, self.target.initial)
        cex = first_difference(edges, start)
        if cex is None:
            if symbolic_equiv(hyp, self.target) is None:
                return None
            raise OracleAssumptionViolation("hypothesis differs from the target but agrees "
                                            "on all words over the essential characters")
        return cex if self.mode == "lexmin" else self._search_random(hyp, edges, start, len(cex))

    def _search_random(self, hyp: SMealy, edges, start, length):
        """Random counterexample of ``length``, the least length of a disagreeing word.

        Among those words, the ones using the fewest characters not in the hypothesis's
        guards are preferred, and the draw is seeded-uniform within that class: a word
        revealing several characters at once would skip refinement steps the learner is
        entitled to take one by one.  Words are counted over the pairs reachable at each depth."""
        # layers[k]: the pairs reachable in exactly k steps, every successor of layers[k - 1]
        layers = [[start]]
        for _ in range(length - 1):
            layers.append(list(dict.fromkeys(
                nxt for pair in layers[-1] for _a, nxt, _differs in edges(pair))))
        known = set(essential_characters(hyp))
        cost = {a: 0 if a in known else 1 for a in self.essential}

        # counts[t][pair][j], for pair in layers[length - t]: length-t words
        # from pair whose final output disagrees and which use exactly j
        # fresh (non-known) characters
        counts = [None] * (length + 1)
        one, zero = [1] + [0] * length, [0] * (length + 1)

        def tails(t, nxt, differs):  # counts[t - 1][nxt]; at t == 1, the edge's own difference
            return counts[t - 1][nxt] if t > 1 else one if differs else zero

        for t in range(1, length + 1):
            counts[t] = {}
            for pair in layers[length - t]:
                row = counts[t][pair] = [0] * (length + 1)
                for a, nxt, differs in edges(pair):
                    sub = tails(t, nxt, differs)
                    for j in range(length + 1 - cost[a]):
                        row[j + cost[a]] += sub[j]

        pair = start
        fresh_used = next(j for j in range(length + 1) if counts[length][pair][j])
        index = self.rng.randrange(counts[length][pair][fresh_used])
        word = []
        for t in range(length, 0, -1):
            for a, nxt, differs in edges(pair):
                if cost[a] > fresh_used:
                    continue
                weight = tails(t, nxt, differs)[fresh_used - cost[a]]
                if index < weight:
                    word.append(a)
                    pair = nxt
                    fresh_used -= cost[a]
                    break
                index -= weight
            else:
                raise AssertionError("sampling walked off the count table")
        return tuple(word)


def _least_gap(node, depth):
    """The least corner of a cell of table ``node`` (``depth`` axes) no guard holds, or None."""
    cuts, vals = node
    if depth == 1:
        return (cuts[vals.index(None)],) if None in vals else None
    return next(((c,) + gap for c, sub in zip(cuts, vals)
                 if (gap := _least_gap(sub, depth - 1)) is not None), None)


def _product_graph(hyp: SMealy, target: SMealy, chars, rows):
    """``edges(pair)``: ``(a, successor pair, outputs differ)`` per character of ``chars`` in
    order, from each state's ``_steps`` row, hypothesis first.  ``rows`` maps a compiled state
    table to its row, kept by the caller: equal tables of one algebra step alike, so a state
    is stepped once however many pairs or queries reach it.  A state is checked first as by
    ``symbolic_equiv`` (overlaps, no table, least uncovered character) and stores no row."""
    def row(m, q):
        if m._overlaps.get(q):  # on every call: overlapping guards can compile to a stored table
            raise AutomatonError(f"state {q} has overlapping guards")
        table = m._tables.get(q)  # None for a state without transitions: _steps raises
        hits = rows.get(table)
        if hits is None:
            if table is not None and (gap := _least_gap(table, m.algebra.arity)) is not None:
                raise _no_transition(q, gap if m.algebra.components else gap[0])
            hits = rows[table] = _steps(m, q, chars)
        return hits

    def edges(pair):
        hits = zip(chars, row(hyp, pair[0]), row(target, pair[1]))
        return [(a, (h[0], g[0]), h[1] != g[1]) for a, h, g in hits]
    return edges


class Oracle:
    """Composite teacher: output queries plus equivalence queries."""

    def __init__(self, target: SMealy, mode: str = "lexmin", seed: int | None = None):
        self.target = target
        self.output = OutputOracle(target)
        self.equiv = EquivOracle(target, mode=mode, seed=seed)
        self.output_query, self.equivalence_query = self.output.query, self.equiv.query


class ScriptedOracle:
    """Replays a fixed list of counterexamples, then answers ``true``.

    Every scripted counterexample must actually distinguish the hypothesis
    it is served for, and the final hypothesis must be correct; violations
    raise ``ValueError`` since they mean the script does not fit the run.
    """

    def __init__(self, target: SMealy, script):
        self.target = target
        self.output = OutputOracle(target)
        self.output_query = self.output.query
        self.script = [tuple(w) for w in script]
        self._next = 0

    def equivalence_query(self, hyp: SMealy):
        if self._next < len(self.script):
            cex = self.script[self._next]
            self._next += 1
            if hyp.run(cex) == self.target.run(cex):
                raise ValueError(
                    f"scripted counterexample {cex} does not distinguish the hypothesis")
            return cex
        if symbolic_equiv(hyp, self.target) is not None:
            raise ValueError("script exhausted but the hypothesis is still wrong")
        return None
