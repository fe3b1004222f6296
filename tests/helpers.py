"""Shared fixtures for the test-suite: golden tables and random generators."""

import functools
import itertools
import math
import random
import sys
from collections import defaultdict, deque

from hypothesis import strategies as st

from smalearn.algebra import (
    INTERVAL_KINDS,
    Algebra,
    AlgebraError,
    Predicate,
    _cuts,
    _segment_holders,
    flat_boxes,
    member,
)
from smalearn.partition import _check_groups
from smalearn.automata import ConcreteMealy, SMealy, Violation, restrict, shortlex_key
from smalearn.bench import make_builtin
from smalearn.learner import LearningError
from smalearn.obstable import COHESIVE, Defect, ObservationTable
from smalearn.oracle import essential_characters

NAT = Algebra.naturals()


def ws(*chars):
    return tuple(chars)


# Reference learning trace for the four-state demo target: tables T1..T10 as
# (S, R, sigma_e, E, row -> cell values in column order).
E_, W0, W20, W10 = ws(), ws(0), ws(20), ws(10)
W00, W000, W020 = ws(0, 0), ws(0, 0, 0), ws(0, 20)
W0020, W0000, W00020 = ws(0, 0, 20), ws(0, 0, 0, 0), ws(0, 0, 0, 20)
W0010, W00100, W010, W00010 = ws(0, 0, 10), ws(0, 0, 10, 0), ws(0, 10), ws(0, 0, 0, 10)

GOLDEN_TABLES = {
    1: ([E_], [W0], (0,), (), {E_: "S", W0: "S"}),
    2: ([E_], [W0, W20], (0,), (), {E_: "S", W0: "S", W20: "S"}),
    3: ([E_], [W0, W20], (0, 20), (), {E_: "SB", W0: "SB", W20: "SB"}),
    4: ([E_], [W0, W20, W00, W000], (0, 20), (),
        {E_: "SB", W0: "SB", W20: "SB", W00: "PP", W000: "PP"}),
    5: ([E_], [W0, W20, W00, W000], (0, 20), (W00,),
        {E_: "SBS", W0: "SBP", W20: "SBS", W00: "PPP", W000: "PPS"}),
    6: ([E_, W0, W00, W000], [W20], (0, 20), (W00,),
        {E_: "SBS", W0: "SBP", W00: "PPP", W000: "PPS", W20: "SBS"}),
    7: ([E_, W0, W00, W000], [W20, W020, W0020, W0000, W00020], (0, 20), (W00,),
        {E_: "SBS", W0: "SBP", W00: "PPP", W000: "PPS", W20: "SBS",
         W020: "SBP", W0020: "SBP", W0000: "SBS", W00020: "SBS"}),
    8: ([E_, W0, W00, W000],
        [W20, W020, W0020, W0000, W00020, W0010, W00100], (0, 20), (W00,),
        {E_: "SBS", W0: "SBP", W00: "PPP", W000: "PPS", W20: "SBS", W020: "SBP",
         W0020: "SBP", W0000: "SBS", W00020: "SBS", W0010: "SBP", W00100: "PPP"}),
    9: ([E_, W0, W00, W000],
        [W20, W020, W0020, W0000, W00020, W0010, W00100], (0, 20, 10), (W00,),
        {E_: "SBSS", W0: "SBSP", W00: "PPPP", W000: "PPPS", W20: "SBSS",
         W020: "SBSP", W0020: "SBSP", W0000: "SBSS", W00020: "SBSS",
         W0010: "SBSP", W00100: "PPPP"}),
    10: ([E_, W0, W00, W000],
         [W20, W020, W0020, W0000, W00020, W0010, W00100, W10, W010, W00010],
         (0, 20, 10), (W00,),
         {E_: "SBSS", W0: "SBSP", W00: "PPPP", W000: "PPPS", W20: "SBSS",
          W020: "SBSP", W0020: "SBSP", W0000: "SBSS", W00020: "SBSS",
          W0010: "SBSP", W00100: "PPPP", W10: "SBSP", W010: "PPPP", W00010: "SBSS"}),
}

GOLDEN_COUNTEREXAMPLES = [(20,), (0, 0, 0), (0, 0, 10, 0)]

GOLDEN_REPAIRS = (
    ["not_output_closed"]
    + ["not_consistent"] + ["not_closed"] * 3 + ["not_evidence_closed"] * 4
    + ["not_output_closed"] + ["not_evidence_closed"] * 3
)


def as_snapshot(spec):
    s, r, sigma, e, rows = spec
    cols = [(a,) for a in sigma] + list(e)
    cells = {(w, col): v for w, values in rows.items() for col, v in zip(cols, values)}
    return {"S": tuple(s), "R": tuple(r), "sigma_e": tuple(sigma),
            "E": tuple(e), "cells": cells}


# -- random sampling helpers --------------------------------------------------


def nat_probe(pred, rng):
    """Random member of a 1-D natural predicate's denotation."""
    lo, hi = pred.ivs[rng.randrange(len(pred.ivs))]
    span = 6 if hi is None else hi - lo
    return lo + rng.randrange(min(span, 6))


def product_probe(alg, pred, rng):
    """Random member of a product predicate's denotation."""
    box = pred.boxes[rng.randrange(len(pred.boxes))]
    out = []
    for axis, comp in zip(alg.components, box):
        lo, hi = comp.ivs[rng.randrange(len(comp.ivs))]
        if axis.kind == "interval-nat":
            top = (lo + 6) if hi is None else hi
            if axis.bound is not None:
                top = min(top, axis.bound)
            out.append(lo + rng.randrange(top - lo))
        else:
            width = 4.0 if hi is None else (hi - lo)
            out.append(lo + rng.random() * width * 0.99)
    return tuple(out)


def random_nat_groups(rng, max_groups=4, max_chars=40):
    k = rng.randrange(1, max_groups + 1)
    pool = rng.sample(range(max_chars), rng.randrange(1, 10))
    groups = [set() for _ in range(k)]
    for a in pool:
        groups[rng.randrange(k)].add(a)
    if not any(groups):
        groups[0].add(rng.randrange(max_chars))
    return groups


def random_product_groups(rng, alg, max_samples=8, coord_top=12):
    k = rng.randrange(1, 4)
    groups = [set() for _ in range(k)]
    seen = set()
    for _ in range(rng.randrange(1, max_samples)):
        char = []
        for axis in alg.components:
            if axis.kind == "interval-nat":
                top = axis.bound if axis.bound is not None else coord_top
                char.append(rng.randrange(top))
            else:
                char.append(float(rng.randrange(coord_top)) + rng.choice((0.0, 0.5)))
        char = tuple(char)
        if char in seen:
            continue
        seen.add(char)
        groups[rng.randrange(k)].add(char)
    if not seen:
        groups[0].add(tuple(axis.min_char() for axis in alg.components))
    return groups


# -- hypothesis strategies for guards and machines -----------------------------

# Algebras for generated machines; small endpoint pools make guards share,
# overlap and miss each other's endpoints often.
GUARD_ALGEBRAS = {
    "interval-nat": Algebra.naturals(),
    "interval-nat-bounded": Algebra.naturals(bound=8),
    "interval-real": Algebra.reals(minimum=-5.0),
    "product-2": Algebra.product(Algebra.naturals(), Algebra.reals(minimum=-5.0)),
    "product-3": Algebra.product(Algebra.naturals(bound=3), Algebra.reals(), Algebra.naturals()),
}


def axis_pool(axis):
    """Endpoint pool of a 1-D interval algebra, starting at its minimum."""
    if axis.kind == "interval-nat":
        return list(range(12 if axis.bound is None else axis.bound))
    return [axis.minimum + d for d in (0.0, 2.5, 5.0, 5.5, 8.0, 12.25)]


@st.composite
def axis_unions(draw, axis):
    """A union of one to three intervals of a 1-D interval algebra."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(_endpoints(axis))
        hi = draw(_endpoints(axis, lo))
        parts.append(axis.interval(lo, hi))
    return axis.union(*parts)


@functools.lru_cache(maxsize=None)
def _endpoints(axis, above=None):
    """Lower endpoints of ``axis``, or with ``above`` the upper ones: None, then the
    pool's points above it (one strategy each, as building costs more than drawing)."""
    pool = axis_pool(axis)
    return st.sampled_from(pool if above is None else [None] + [x for x in pool if x > above])


@functools.lru_cache(maxsize=None)
def guards(alg):
    """Non-empty predicates of ``alg`` (one strategy per algebra, as building costs more
    than drawing)."""
    if alg.kind in INTERVAL_KINDS:
        return axis_unions(alg)
    box = st.tuples(*(axis_unions(axis) for axis in alg.components))
    return st.lists(box, min_size=1, max_size=3).map(alg.from_boxes)


@st.composite
def raw_boxes(draw, alg):
    """Unnormalized box lists of product ``alg``: overlapping, repeated, with
    empty components, or none at all."""
    comps = [st.one_of(axis_unions(axis), st.just(axis.bottom())) for axis in alg.components]
    boxes = draw(st.lists(st.tuples(*comps), max_size=4))
    if boxes:
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=2))
    return draw(st.permutations(boxes))


def _disjoint_cover(alg, preds):
    """Each predicate minus the earlier ones, plus the uncovered rest."""
    covered, out = alg.bottom(), []
    for p in preds:
        p = alg.meet(p, alg.complement(covered))
        if not p.is_false():
            out.append(p)
        covered = alg.join(covered, p)
    rest = alg.complement(covered)
    return out + ([] if rest.is_false() else [rest])


@st.composite
def sym_machines(draw, alg, valid=False):
    """Symbolic machines over ``alg``; with ``valid`` False, also ones with overlaps and gaps."""
    n = draw(st.integers(1, 3))
    transitions = []
    for q in range(n):
        preds = draw(st.lists(guards(alg), max_size=4))
        if valid or draw(st.booleans()):
            preds = _disjoint_cover(alg, preds)
        for p in preds:
            transitions.append((q, p, draw(st.integers(0, n - 1)), draw(st.sampled_from("xyz"))))
    return SMealy(alg, n, 0, [], transitions)


@st.composite
def mutants(draw, target):
    """``target`` with one transition given another successor or output."""
    trs = [(t.source, t.guard, t.target, t.output) for t in target.transitions]
    i = draw(st.integers(0, len(trs) - 1))
    trs[i] = trs[i][:2] + (draw(st.integers(0, target.n_states - 1)), draw(st.sampled_from("xyz")))
    return SMealy(target.algebra, target.n_states, target.initial, [], trs)


def endpoint_grid(alg, preds):
    """Every endpoint of ``preds`` and its successor, per axis, combined.

    Products give the grid of all per-axis values.
    """
    axes = alg.components if alg.kind == "product" else (alg,)
    values = [{axis.min_char()} for axis in axes]
    for p in preds:
        for box in flat_boxes(alg, p):
            for vals, (lo, hi) in zip(values, box):
                vals.update(x for x in (lo, hi) if x is not None)
    for axis, vals in zip(axes, values):
        for x in list(vals):
            try:
                vals.add(axis.next_above(x))
            except AlgebraError:  # the top of a bounded axis, or an endpoint at its bound
                pass
    grid = itertools.product(*(sorted(vals) for vals in values))
    return list(grid) if alg.kind == "product" else [a for (a,) in grid]


def domain_chars(alg):
    """Arbitrary characters of ``alg``'s domain."""
    axes = alg.components if alg.kind == "product" else (alg,)
    per_axis = []
    for axis in axes:
        if axis.kind == "interval-nat":
            per_axis.append(st.integers(0, 30 if axis.bound is None else axis.bound - 1))
        else:
            per_axis.append(st.floats(axis.minimum, 1e6, allow_nan=False))
    chars = st.tuples(*per_axis)
    return chars if alg.kind == "product" else chars.map(lambda t: t[0])


# -- reference defect search -------------------------------------------------


class RescanTable:
    """The defect search of an observation table as a full rescan, for differential tests.

    The four finders are the table's finders as they were before the table
    kept indexes, copied verbatim; rows, columns and the word set are
    recomputed from ``S``, ``R``, ``sigma_e``, ``E`` and ``cells`` on every
    call, so no index or cache of the table is read.
    """

    def __init__(self, table):
        self.table = table
        self.S, self.R, self.sigma_e, self.cells = table.S, table.R, table.sigma_e, table.cells

    def columns(self):
        return [(a,) for a in self.sigma_e] + self.table.E

    def row(self, word):
        return tuple(self.cells[(word, col)] for col in self.columns())

    def _word_set(self):
        return set(self.S) | set(self.R)

    def check(self) -> Defect:
        for finder in (self._find_inconsistency, self._find_unclosed,
                       self._find_evidence_gap, self._find_output_gap):
            defect = finder()
            if defect is not None:
                return defect
        return COHESIVE

    def _find_inconsistency(self):
        groups = {}
        words = self._word_set()
        for w in sorted(words, key=shortlex_key):
            if not w:
                continue
            prefix, a = w[:-1], w[-1]
            groups.setdefault((self.row(prefix), a), []).append(prefix)
        best = None
        for (_, a), members in groups.items():
            base = min(members, key=shortlex_key)
            base_row = self.row(base + (a,))
            for w2 in sorted(members, key=shortlex_key):
                if self.row(w2 + (a,)) == base_row:
                    continue
                e = next(col for col in sorted(self.columns(), key=shortlex_key)
                         if self.cells[(base + (a,), col)] != self.cells[(w2 + (a,), col)])
                cand = (base, w2, a, e)
                key = (shortlex_key(base), shortlex_key(w2), shortlex_key((a,)), shortlex_key(e))
                if best is None or key < best[0]:
                    best = (key, cand)
                break
        if best is None:
            return None
        return Defect("not_consistent", best[1])

    def _find_unclosed(self):
        s_rows = {self.row(s) for s in self.S}
        for r in sorted(self.R, key=shortlex_key):
            if self.row(r) not in s_rows:
                return Defect("not_closed", (r,))
        return None

    def _find_evidence_gap(self):
        words = self._word_set()
        best = None
        for s in self.S:
            for a in self.sigma_e:
                w = s + (a,)
                if w not in words and (best is None or shortlex_key(w) < shortlex_key(best[0])):
                    best = (w, s, a)
        if best is None:
            return None
        return Defect("not_evidence_closed", (best[1], best[2]))

    def _find_output_gap(self):
        known = set(self.sigma_e)
        for w in sorted(self._word_set(), key=shortlex_key):
            if w and w[-1] not in known:
                return Defect("not_output_closed", (w[:-1], w[-1]))
        return None


# -- reference hypothesis check --------------------------------------------------


def check_hypothesis_per_word(table: ObservationTable, evidence: ConcreteMealy, hyp: SMealy):
    """The learner's hypothesis check as a walk of every column from every word,
    for differential tests.

    This is ``smalearn.learner._check_hypothesis`` as it was before it
    computed one output tuple per evidence state, copied verbatim (under
    another name).  It reads cells, not the table's row cache.
    """
    if restrict(hyp, table.sigma_e) != evidence:
        raise LearningError("hypothesis restricted to sigma_e differs from the evidence")
    step = evidence.step
    for w in table.words():
        q = evidence.initial
        for a in w:  # each word is run once; every column continues from its state
            q, _ = step(q, a)
        for col in table.columns():
            p = q
            for a in col:
                p, out = step(p, a)
            if out != table.cell(w, col):
                raise LearningError(f"evidence machine contradicts cell ({w}, {col})")


# -- reference random equivalence search ---------------------------------------


class FullTableSearch:
    """The random equivalence search as a count over every state pair, for differential tests.

    ``_search_random`` and ``_min_mismatch_length`` are the oracle's as they
    were before it counted only the pairs reachable at each depth, copied
    verbatim: the minimal length comes from a first-reach walk, and the count
    table covers all hypothesis x target pairs at every length.  ``rng`` is
    the caller's, so its state can be compared with the oracle's.
    """

    def __init__(self, target: SMealy, essential, rng: random.Random):
        self.essential = list(essential)
        self._restricted = restrict(target, self.essential)
        self.rng = rng

    def search(self, hyp_sym: SMealy):
        """The served word, or None when no word over the essential characters differs."""
        return self._search_random(hyp_sym, restrict(hyp_sym, self.essential))

    def _search_random(self, hyp_sym: SMealy, hyp: ConcreteMealy):
        """Random counterexample: minimal length, then fewest new characters.

        Among the minimal-length disagreeing words, those using the fewest
        characters that do not already occur in the hypothesis's guards are
        preferred, and the draw is seeded-uniform within that class.  A
        shortest word revealing several characters at once would skip
        refinement steps the learner is entitled to take one by one.
        """
        tgt = self._restricted
        cap = hyp.n_states * tgt.n_states + 1
        length = self._min_mismatch_length(hyp, tgt, tgt.alphabet, cap)
        if length is None:
            return None
        known = set(essential_characters(hyp_sym)) & set(tgt.alphabet)

        # counts[t][pair][j]: length-t words from pair whose final output
        # disagrees and which use exactly j fresh (non-known) characters
        pairs = [(q1, q2) for q1 in range(hyp.n_states) for q2 in range(tgt.n_states)]
        counts = [None] * (length + 1)
        counts[1] = {pair: [0] * (length + 1) for pair in pairs}
        for pair in pairs:
            for a in tgt.alphabet:
                if hyp.step(pair[0], a)[1] != tgt.step(pair[1], a)[1]:
                    counts[1][pair][0 if a in known else 1] += 1
        for t in range(2, length + 1):
            counts[t] = {pair: [0] * (length + 1) for pair in pairs}
            for pair in pairs:
                row = counts[t][pair]
                for a in tgt.alphabet:
                    nxt = (hyp.step(pair[0], a)[0], tgt.step(pair[1], a)[0])
                    sub = counts[t - 1][nxt]
                    cost = 0 if a in known else 1
                    for j in range(length + 1 - cost):
                        row[j + cost] += sub[j]

        start = (hyp.initial, tgt.initial)
        fresh_used = next(j for j in range(length + 1) if counts[length][start][j])
        index = self.rng.randrange(counts[length][start][fresh_used])
        word = []
        pair = start
        for t in range(length, 0, -1):
            for a in tgt.alphabet:
                cost = 0 if a in known else 1
                if cost > fresh_used:
                    continue
                nxt = (hyp.step(pair[0], a)[0], tgt.step(pair[1], a)[0])
                if t == 1:
                    differs = hyp.step(pair[0], a)[1] != tgt.step(pair[1], a)[1]
                    weight = int(differs and cost == fresh_used)
                else:
                    weight = counts[t - 1][nxt][fresh_used - cost]
                if index < weight:
                    word.append(a)
                    pair = nxt
                    fresh_used -= cost
                    break
                index -= weight
            else:
                raise AssertionError("sampling walked off the count table")
        return tuple(word)

    @staticmethod
    def _min_mismatch_length(hyp, tgt, alphabet, cap):
        frontier = {(hyp.initial, tgt.initial)}
        seen = set(frontier)
        for length in range(1, cap + 1):
            nxt = set()
            for q1, q2 in frontier:
                for a in alphabet:
                    p1, o1 = hyp.step(q1, a)
                    p2, o2 = tgt.step(q2, a)
                    if o1 != o2:
                        return length
                    nxt.add((p1, p2))
            frontier = nxt - seen
            seen |= nxt
            if not frontier:
                return None
        return None


# -- reference 1-D Boolean operations and essential characters ------------------
#
# Interval predicates as ``Algebra`` built and combined them on sorted interval
# lists before they were built on the label map of ``_first_match_node``, one
# box on one axis.  ``norm_ivs``, ``_ivs_meet`` and ``_ivs_complement`` are
# ``Algebra._norm_ivs``, ``_ivs_meet`` and ``_ivs_complement`` copied verbatim
# but for ``self`` becoming ``alg``; ``ivs_interval``, ``ivs_union``,
# ``ivs_join``, ``ivs_meet`` and ``ivs_complement`` are the interval branches
# of the methods that called them.


def ivs_interval(alg: Algebra, lo, hi) -> Predicate:
    if alg.kind not in INTERVAL_KINDS:
        raise AlgebraError(f"interval undefined for kind {alg.kind}")
    lo = alg.norm_char(lo)
    if hi is not None:
        number = not isinstance(hi, bool) and isinstance(hi, (int, float))
        if alg.kind == "interval-nat":
            if not number or isinstance(hi, float) and not hi.is_integer():
                raise AlgebraError(f"upper endpoint is not a natural: {hi!r}")
            hi = int(hi)
        elif number and -sys.float_info.max <= hi <= sys.float_info.max:
            hi = float(hi)
        else:
            raise AlgebraError(f"upper endpoint is not a finite real: {hi!r}")
        if hi <= lo:
            raise AlgebraError(f"empty interval [{lo}, {hi})")
    return Predicate(kind=alg.kind, ivs=norm_ivs(alg, ((lo, hi),)))


def ivs_union(alg: Algebra, *preds: Predicate) -> Predicate:
    return Predicate(kind=alg.kind, ivs=norm_ivs(alg, [iv for p in preds for iv in p.ivs]))


def ivs_join(alg: Algebra, phi: Predicate, psi: Predicate) -> Predicate:
    return Predicate(kind=alg.kind, ivs=norm_ivs(alg, phi.ivs + psi.ivs))


def ivs_meet(alg: Algebra, phi: Predicate, psi: Predicate) -> Predicate:
    return Predicate(kind=alg.kind, ivs=_ivs_meet(phi.ivs, psi.ivs))


def ivs_complement(alg: Algebra, phi: Predicate) -> Predicate:
    return Predicate(kind=alg.kind, ivs=_ivs_complement(phi.ivs, alg.min_char()))


def norm_ivs(alg: Algebra, ivs) -> tuple:
    out = []
    for lo, hi in ivs:
        if alg.kind == "interval-nat" and alg.bound is not None:
            if lo >= alg.bound:
                continue
            if hi is not None and hi >= alg.bound:
                hi = None
        if alg.kind == "interval-real":
            if hi is not None and hi <= alg.minimum:
                continue
            lo = max(lo, alg.minimum)
        if hi is not None and hi <= lo:
            continue
        out.append((lo, hi))
    out.sort(key=lambda iv: iv[0])
    merged = []
    for lo, hi in out:
        if merged and (merged[-1][1] is None or lo <= merged[-1][1]):
            last_lo, last_hi = merged[-1]
            if last_hi is not None and (hi is None or hi > last_hi):
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _ivs_meet(a, b) -> tuple:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        his = [h for h in (a[i][1], b[j][1]) if h is not None]
        hi = min(his) if len(his) == 2 else (his[0] if his else None)
        if hi is None or lo < hi:
            out.append((lo, hi))
        if a[i][1] is None:
            j += 1
        elif b[j][1] is None:
            i += 1
        elif a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def _ivs_complement(ivs, minimum) -> tuple:
    out = []
    cursor = minimum
    for lo, hi in ivs:
        if lo > cursor:
            out.append((cursor, lo))
        if hi is None:
            return tuple(out)
        cursor = max(cursor, hi)
    out.append((cursor, None))
    return tuple(out)


def essential_characters_two_branch(target: SMealy) -> list:
    """``smalearn.oracle.essential_characters`` as it was with one branch for 1-D
    and one for product algebras, copied verbatim but for its name and docstring."""
    alg = target.algebra
    if alg.kind in INTERVAL_KINDS:
        chars = {alg.min_char()}
        for tr in target.transitions:
            chars.update(lo for lo, _hi in tr.guard.ivs)
        return sorted(chars)
    if alg.kind != "product":
        raise AlgebraError(f"no essential-character extraction for kind {alg.kind}")
    chars = {alg.min_char()}
    for q in range(target.n_states):
        axis_cuts = [{c.min_char()} for c in alg.components]
        for tr in target.state_transitions(q):
            for box in flat_boxes(alg, tr.guard):
                for cuts, (lo, _hi) in zip(axis_cuts, box):
                    cuts.add(lo)
        chars.update(itertools.product(*(sorted(c) for c in axis_cuts)))
    return sorted(chars)


# -- reference product Boolean operations ----------------------------------------
#
# Product predicates as ``Algebra`` built and combined them on decision lists
# before they were built on the label map of ``_first_match_node``.  A
# decision list is an ascending tuple of ``(cut, rest)`` pairs covering the
# first axis from its minimum, ``rest`` the canonical predicate over the
# remaining axes (1-D at the base).  ``_pred_to_dl``, ``_dl_to_pred``,
# ``_dl_compress``, ``_dl_op``, ``_dl_complement`` and ``_dl_at`` are copied
# verbatim but for three things: methods of the algebra become functions of
# ``alg`` (``_norm_ivs`` the copy below), the view each predicate kept of
# itself is gone, and operations over the remaining axes recurse into this
# reference.


def dl_from_boxes(alg: Algebra, boxes) -> Predicate:
    """``Algebra.from_boxes`` on decision lists."""
    boxes = tuple(b for b in map(tuple, boxes) if not any(c.is_false() for c in b))
    return _dl_to_pred(alg, _pred_to_dl(alg, Predicate(kind="product", boxes=boxes)))


def dl_meet(alg: Algebra, phi: Predicate, psi: Predicate) -> Predicate:
    """``Algebra.meet`` on decision lists (1-D algebras use their own)."""
    if alg.kind != "product":
        return alg.meet(phi, psi)
    return _dl_to_pred(alg, _dl_op(alg, _pred_to_dl(alg, phi), _pred_to_dl(alg, psi), "meet"))


def dl_join(alg: Algebra, phi: Predicate, psi: Predicate) -> Predicate:
    """``Algebra.join`` on decision lists (1-D algebras use their own)."""
    if alg.kind != "product":
        return alg.join(phi, psi)
    return _dl_to_pred(alg, _dl_op(alg, _pred_to_dl(alg, phi), _pred_to_dl(alg, psi), "join"))


def dl_complement(alg: Algebra, phi: Predicate) -> Predicate:
    """``Algebra.complement`` on decision lists (1-D algebras use their own)."""
    if alg.kind != "product":
        return alg.complement(phi)
    return _dl_to_pred(alg, _dl_complement(alg, _pred_to_dl(alg, phi)))


def _pred_to_dl(alg: Algebra, phi: Predicate):
    rest = alg._rest_algebra
    cuts = _cuts(alg.components[0], (box[0] for box in phi.boxes))
    entries = []
    for c, rest_boxes in zip(cuts, _segment_holders(cuts, phi.boxes)):
        entries.append((c, dl_from_boxes(rest, rest_boxes) if rest.kind == "product"
                        else rest.union(*(b[0] for b in rest_boxes))))
    return _dl_compress(entries)


def _dl_to_pred(alg: Algebra, dl) -> Predicate:
    axis0 = alg.components[0]
    groups = []  # (rest predicate, [segments]) in first-appearance order
    for i, (cut, rest) in enumerate(dl):
        hi = dl[i + 1][0] if i + 1 < len(dl) else None
        if rest.is_false():
            continue
        for g in groups:
            if g[0] == rest:
                g[1].append((cut, hi))
                break
        else:
            groups.append((rest, [(cut, hi)]))
    boxes = []
    for rest, segs in groups:
        comp0 = Predicate(kind=axis0.kind, ivs=norm_ivs(axis0, tuple(segs)))
        if rest.kind == "product":
            for sub in rest.boxes:
                boxes.append((comp0,) + sub)
        else:
            boxes.append((comp0, rest))
    return Predicate(kind="product", boxes=tuple(boxes))


def _dl_compress(entries):
    out = []
    for cut, rest in entries:
        if out and out[-1][1] == rest:
            continue
        out.append((cut, rest))
    return tuple(out)


def _dl_op(alg: Algebra, dl1, dl2, op: str):
    rest_alg = alg._rest_algebra
    cuts = sorted({c for c, _ in dl1} | {c for c, _ in dl2})
    entries = []
    for c in cuts:
        r1 = _dl_at(dl1, c)
        r2 = _dl_at(dl2, c)
        entries.append((c, dl_meet(rest_alg, r1, r2) if op == "meet"
                        else dl_join(rest_alg, r1, r2)))
    return _dl_compress(entries)


def _dl_complement(alg: Algebra, dl):
    rest_alg = alg._rest_algebra
    return _dl_compress([(c, dl_complement(rest_alg, r)) for c, r in dl])


def _dl_at(dl, c):
    value = dl[0][1]
    for cut, rest in dl:
        if cut > c:
            break
        value = rest
    return value


def norm_boxes_box_by_box(alg: Algebra, raw_boxes) -> Predicate:
    """Product normalization as a join of one box at a time, for differential tests.

    This and ``_box_to_dl`` are the normalization behind ``Algebra.from_boxes``
    (``_norm_boxes`` and ``_box_to_dl`` at arity >= 2) as it was before all
    boxes were cut in one pass, copied verbatim but for three things: the empty
    start is written out rather than computed by ``_pred_to_dl``, products over
    the remaining axes recurse into this reference, and the decision-list
    helpers are the ones above.
    """
    rest = alg._rest_algebra
    acc = ((alg.components[0].min_char(), rest.bottom()),)
    for box in raw_boxes:
        if any(c.is_false() for c in box):
            continue
        single = _box_to_dl(alg, box)
        acc = _dl_op(alg, acc, single, "join")
    return _dl_to_pred(alg, acc)


def _box_to_dl(alg: Algebra, box):
    axis0 = alg.components[0]
    rest = alg._rest_algebra
    if rest.kind == "product":
        rest_pred = norm_boxes_box_by_box(rest, (tuple(box[1:]),))
    else:
        rest_pred = box[1]
    cuts = {axis0.min_char()}
    for lo, hi in box[0].ivs:
        cuts.add(lo)
        if hi is not None:
            cuts.add(hi)
    entries = []
    for c in sorted(cuts):
        entries.append((c, rest_pred if member(box[0], c) else rest.bottom()))
    return _dl_compress(entries)


def union_by_join(alg: Algebra, *preds: Predicate) -> Predicate:
    """Union as a fold over ``join``, for differential tests.

    This is ``Algebra.union`` as it was before interval and product
    predicates were normalized once, copied verbatim but for ``self``
    becoming ``alg``.
    """
    out = alg.bottom()
    for p in preds:
        out = alg.join(out, p)
    return out


# -- reference all-pairs guard work --------------------------------------------


def symbolic_equiv_pairwise(m1: SMealy, m2: SMealy):
    """Exact equivalence as a meet of every transition pair, for differential tests.

    This is ``smalearn.automata.symbolic_equiv`` as it was before 1-D guards
    were merged from sorted intervals, copied verbatim (under another name).
    """
    if m1.algebra != m2.algebra:
        raise AlgebraError("equivalence across different algebras")
    alg = m1.algebra
    start = (m1.initial, m2.initial)
    seen = {start: ()}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        prefix = seen[(q1, q2)]
        for t1 in m1.state_transitions(q1):
            for t2 in m2.state_transitions(q2):
                both = alg.meet(t1.guard, t2.guard)
                if alg.is_empty(both):
                    continue
                a = alg.witness(both)
                if t1.output != t2.output:
                    return prefix + (a,)
                nxt = (t1.target, t2.target)
                if nxt not in seen:
                    seen[nxt] = prefix + (a,)
                    queue.append(nxt)
    return None


def validate_pairwise(m: SMealy):
    """Determinism and completeness violations from a meet of every guard pair.

    This is ``SMealy.validate`` as it was before 1-D guards were swept in
    sorted order, copied verbatim but for ``self`` becoming ``m`` and the
    per-state list read through ``state_transitions``.
    """
    violations = []
    alg = m.algebra
    for q in range(m.n_states):
        trs = m.state_transitions(q)
        for i, t1 in enumerate(trs):
            for t2 in trs[i + 1:]:
                if (t1.target, t1.output) == (t2.target, t2.output):
                    continue
                if not alg.is_empty(alg.meet(t1.guard, t2.guard)):
                    violations.append(Violation(q, "overlap", (t1.guard, t2.guard)))
        covered = alg.union(*(t.guard for t in trs)) if trs else alg.bottom()
        uncovered = alg.complement(covered)
        if not alg.is_empty(uncovered):
            violations.append(Violation(q, "incomplete", (uncovered,)))
    return violations


def first_match_node_by_member(axes, items, values):
    """First-match table from a membership test of every item at every cut.

    This is ``smalearn.algebra._first_match_node`` as it was before intervals
    were assigned to ranges of segments, copied verbatim but for its name.
    """
    if not axes:
        return values[items[0][0]] if items else None
    out_cuts, out_vals = [], []
    for c in _cuts(axes[0], (box[0] for _, box in items)):
        node = first_match_node_by_member(
            axes[1:], [(i, box[1:]) for i, box in items if member(box[0], c)], values)
        if not out_vals or out_vals[-1] != node:
            out_cuts.append(c)
            out_vals.append(node)
    return tuple(out_cuts), tuple(out_vals)


# -- reference product partition -------------------------------------------------


def partition_product_by_cones(algebra: Algebra, groups) -> list[Predicate]:
    """Dominance-cone capture with Boolean-algebra operations, for differential tests.

    This is ``smalearn.partition.partition_product`` as it was before it
    captured on a label map, copied verbatim but for its name and docstring.
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


# -- reference state partitions over the full key layout ---------------------------


_EMPTY = frozenset()


def state_partitions_full_layout(machine, chars, algebra: Algebra, partition, memo=None):
    """Per state, normalized ``chars`` grouped by the (successor, output) they reach, partitioned.

    This is ``smalearn.automata.state_partitions`` as it was when it passed
    ``partition`` every (successor, output) key of ``range(n_states) x outputs``,
    empty groups included, copied verbatim but for its name and docstring.
    """
    keys = [(t, o) for t in range(machine.n_states) for o in machine.outputs]
    memo = {} if memo is None else memo
    bottom = algebra.bottom()
    for q in range(machine.n_states):
        groups = defaultdict(set)
        for a in chars:
            groups[machine.step(q, a)].add(a)
        old = memo.get(q)
        if old is not None and _grows_inside_full_layout(*old, groups):
            preds = old[1]
            if len(preds) < len(keys):  # new states or outputs add empty groups
                preds = {key: preds.get(key, bottom) for key in keys}
        else:
            preds = dict(zip(keys, partition(algebra, [groups.get(key, _EMPTY) for key in keys])))
        memo[q] = (groups, preds)
        yield q, preds.items()


def _grows_inside_full_layout(old_groups, old_preds, groups) -> bool:
    """Whether ``groups`` only add samples, each inside its key's predicate in ``old_preds``."""
    for key, before in old_groups.items():
        if not before <= groups.get(key, _EMPTY):
            return False
    for key, group in groups.items():
        added = group - old_groups.get(key, _EMPTY)
        if added:
            pred = old_preds.get(key)
            if pred is None or not all(member(pred, a) for a in added):
                return False
    return True


def sep_pred_full_layout(evidence: ConcreteMealy, algebra: Algebra, partition, memo=None) -> SMealy:
    """``smalearn.learner.sep_pred`` on ``state_partitions_full_layout``: bottoms dropped."""
    transitions = []
    for q, pairs in state_partitions_full_layout(evidence, evidence.alphabet, algebra, partition,
                                                 memo):
        for (target, output), pred in pairs:
            if not pred.is_false():
                transitions.append((q, pred, target, output))
    return SMealy(algebra, evidence.n_states, evidence.initial, evidence.outputs, transitions)


# -- one-field mutations of machine files ------------------------------------------


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=10)
DELETE = object()
# values at the edge of what some field accepts; DELETE removes the field
EDGE_VALUES = st.sampled_from([DELETE, None, True, -1, 0, 2 ** 63, 10 ** 400, -10 ** 400, 0.5,
                               math.nan, math.inf, "0", [], {}, {"na": 0}, {"na": 10 ** 400}])


def json_leaves(v, path=()):
    """Paths to the scalars inside a JSON value."""
    if not isinstance(v, (dict, list)):
        yield path
        return
    for k, x in (v.items() if isinstance(v, dict) else enumerate(v)):
        yield from json_leaves(x, path + (k,))


def with_field(v, path, new):
    """A copy of ``v`` with the field at ``path`` set to ``new``, or removed for DELETE."""
    v = dict(v) if isinstance(v, dict) else list(v)
    if len(path) > 1:
        v[path[0]] = with_field(v[path[0]], path[1:], new)
    elif new is DELETE:
        del v[path[0]]
    else:
        v[path[0]] = new
    return v


MACHINE_FILES = [make_builtin(name).to_json() for name in ("mh", "worked-example")]


@st.composite
def one_field_mutants(draw):
    data = draw(st.sampled_from(MACHINE_FILES))
    path = draw(st.sampled_from(list(json_leaves(data))))
    return with_field(data, path, draw(st.one_of(EDGE_VALUES, JSON_VALUES)))
