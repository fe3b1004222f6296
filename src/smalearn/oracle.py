"""Simulated teacher over a hidden target machine.

Output queries answer with the target's output for a word.  Equivalence
queries decide exact equality symbolically, but counterexamples are drawn
only from the target's *essential characters*: per state, the grid spanned
by the lower endpoints of its guard boxes (plus the axis minima).  Feeding
those characters to the partitioning function reproduces each state's guard
partition, which is verified at construction; it is that property that lets
a learner terminate without ever seeing other characters.  Both search
modes of one query read one product graph of hypothesis and target over
those characters, stepped on the two machines' compiled tables for the
pairs it reaches.  The lexmin mode walks it with ``first_difference``, the
breadth-first walk ``symbolic_equiv`` runs too; only the random mode, which
reads a pair's edges more than once, keeps them.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from operator import attrgetter

from .automata import (SMealy, _no_transition, _steps, first_difference, state_partitions,
                       symbolic_equiv)
from .automata import restrict  # noqa: F401  unused; the benchmark's tracing.py SPANS wraps it
from .partition import partitioner_for


class OracleAssumptionViolation(RuntimeError):
    """The essential-character model does not cover a hypothesis/target pair."""


def essential_characters(target: SMealy) -> list:
    """Characters sufficient to identify all of the target's partitions: per state, the
    grid of its guards' lower endpoints and the axis minima."""
    alg = target.algebra
    chars = {tuple(axis.min_char() for axis in alg._axes)}  # grid points, 1-tuples in 1-D
    for _q, trs in itertools.groupby(target.transitions, key=attrgetter("source")):
        columns = zip(*(box for tr in trs for box in alg._boxes(tr.guard)))  # comps per axis
        lows = ({axis.min_char(), *(lo for c in comps for lo, _hi in c.ivs)}
                for axis, comps in zip(alg._axes, columns))
        chars.update(itertools.product(*lows))
    return sorted(chars if alg.components else (a for a, in chars))


def check_partition_reconstruction(target: SMealy, chars):
    """Verify the partitioning function rebuilds every state's partition."""
    alg = target.algebra
    bottom = alg.bottom()
    for q, pairs in state_partitions(target, chars, alg, partitioner_for(alg)):
        rebuilt = dict(pairs)
        guards = {(tr.target, tr.output): tr.guard for tr in target.state_transitions(q)}
        if rebuilt != guards:  # name the first differing key in state_partitions' order
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
    answered word is cached with the target state it leads to, and a new
    word is run on the target's compiled tables from the state of its
    longest answered prefix.  A learner asks ``w·col`` after ``w``, so that
    costs about ``|col|`` steps.
    """

    def __init__(self, target: SMealy):
        self.target = target
        self._cache = {}  # answered word -> (state reached, output)
        self._chars = {}  # id(a) -> (a, its normal form); holding a keeps id(a) from reuse
        self.distinct_queries = 0
        self.total_queries = 0

    def query(self, word) -> str:
        if not word:
            raise ValueError("output query needs a non-empty word")
        word = tuple(word)
        chars = self._chars
        for a in word:  # before the lookup: an equal cached word may hold other characters
            if id(a) not in chars:
                chars[id(a)] = a, self.target.algebra.norm_char(a)
        hit = self._cache.get(word)
        if hit is None:
            hit = self._cache[word] = self._run(word)
            self.distinct_queries += 1
        self.total_queries += 1
        return hit[1]

    def _run(self, word):
        cache, chars = self._cache, self._chars
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
            q, out = hit
        return q, out


class EquivOracle:
    """Exact equivalence; counterexamples use essential characters only."""

    def __init__(self, target: SMealy, mode: str = "lexmin", seed: int | None = None):
        if mode not in ("lexmin", "random"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.target = target
        self.mode = mode
        self.rng = random.Random(seed)
        if target._oracle_setup is None:  # once per target object, kept once checked
            essential = essential_characters(target)
            check_partition_reconstruction(target, essential)
            target._oracle_setup = tuple(essential)
        self.essential = list(target._oracle_setup)
        self.queries = 0

    def query(self, hyp: SMealy):
        """None when equivalent; otherwise a counterexample word."""
        self.queries += 1
        if symbolic_equiv(hyp, self.target) is None:
            return None
        edges = _product_graph(hyp, self.target, self.essential)
        start = (hyp.initial, self.target.initial)
        cex = (first_difference(edges, start) if self.mode == "lexmin"
               else self._search_random(hyp, edges, start))
        if cex is None:
            raise OracleAssumptionViolation(
                "hypothesis differs from the target but agrees on all words "
                "over the essential characters")
        return cex

    def _search_random(self, hyp: SMealy, edges, start):
        """Random counterexample: minimal length, then fewest new characters.

        Among the minimal-length disagreeing words, those using the fewest
        characters that do not already occur in the hypothesis's guards are
        preferred, and the draw is seeded-uniform within that class.  A
        shortest word revealing several characters at once would skip
        refinement steps the learner is entitled to take one by one.  Words
        are counted only over the state pairs reachable at each depth.
        """
        edges = cache(edges)  # layers, counts and the draw read a pair's edges
        # layers[k]: the pairs reachable in exactly k steps; a pair can recur
        # at a later depth, so a layer is every successor of the one before
        layers = [[start]]
        seen = set(layers[0])
        while not any(differs for pair in layers[-1] for _a, _nxt, differs in edges(pair)):
            layer = dict.fromkeys(nxt for pair in layers[-1] for _a, nxt, _differs in edges(pair))
            if seen.issuperset(layer):
                return None
            seen.update(layer)
            layers.append(list(layer))
        length = len(layers)
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


def _product_graph(hyp: SMealy, target: SMealy, chars):
    """``edges(pair)``: ``(a, successor pair, outputs differ)`` per character of ``chars`` in
    order, stepped on both machines' compiled lookups on every call; nothing is kept."""
    def edges(pair):
        hits = zip(chars, _steps(hyp, pair[0], chars), _steps(target, pair[1], chars))
        return [(a, (h[0], g[0]), h[1] != g[1]) for a, h, g in hits]
    return edges


class Oracle:
    """Composite teacher: output queries plus equivalence queries."""

    def __init__(self, target: SMealy, mode: str = "lexmin", seed: int | None = None):
        violations = target.validate()
        if violations:
            raise ValueError("target automaton is invalid: "
                             + "; ".join(str(v) for v in violations))
        self.target = target
        self.output = OutputOracle(target)
        self.equiv = EquivOracle(target, mode=mode, seed=seed)

    @property
    def essential(self):
        return self.equiv.essential

    def output_query(self, word) -> str:
        return self.output.query(word)

    def equivalence_query(self, hyp: SMealy):
        return self.equiv.query(hyp)


class ScriptedOracle:
    """Replays a fixed list of counterexamples, then answers ``true``.

    Every scripted counterexample must actually distinguish the hypothesis
    it is served for, and the final hypothesis must be correct; violations
    raise ``ValueError`` since they mean the script does not fit the run.
    """

    def __init__(self, target: SMealy, script):
        self.target = target
        self.output = OutputOracle(target)
        self.script = [tuple(w) for w in script]
        self._next = 0

    def output_query(self, word) -> str:
        return self.output.query(word)

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
