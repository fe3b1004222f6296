"""Observation table for active Mealy-machine learning.

The table stores output-query answers for prefix words (``S`` and ``R``)
against single-character columns (``sigma_e``) and longer suffix columns
(``E``).  Four defect kinds block hypothesis construction and each has a
repair operation; repairs are driven by :func:`check` which reports the
highest-priority defect with a deterministic (shortlex-minimal) witness.

Priority order is consistency, closedness, evidence-closedness, then
output-closedness.  Consistency is checked before closedness so that a
counterexample whose prefixes expose both defects grows the suffix set
before rows move; this matches the reference learning traces.

Each answer is stored once, in its word's row: a tuple of cells in column
order.  A new column splices its cell into every row at its index; the
``(word, column) -> output`` view ``cells`` is built from the rows.

The table keeps the indexes its defect search reads, and updates them as it
changes instead of rebuilding them on every :func:`check`:

* ``S ∪ R`` as a list in shortlex order, extended when rows are added;
* the columns, in table order and as a column -> index dict, rebuilt when a
  column is added;
* the set of ``S`` rows, extended by ``make_closed``;
* the inconsistency groups: prefixes ``p`` of words ``p·a`` grouped by
  ``(row(p), a)``, each group in shortlex order with its cached
  inconsistency witness.  A new row marks only its own group for
  re-examination;
* the unclosed heap: ``(shortlex_key(r), r)`` for the ``R`` words whose
  row is not an ``S`` row.  A new ``R`` word is pushed when its row is not
  among the ``S`` rows;
* the evidence-gap heap: ``(shortlex_key(s·a), s, a)`` for ``s`` in ``S``
  and ``a`` in ``sigma_e``.  A new ``S`` word pushes one entry per
  ``sigma_e`` character, and a new ``sigma_e`` character one entry per
  ``S`` word.

Both heaps are lazy: an entry stays until it reaches the top and is popped
there once it is dead, that is once ``row(r)`` is an ``S`` row (which also
covers ``r`` moved to ``S``) or ``s·a`` is in ``S ∪ R``.  Between two
columns, rows do not change and the ``S``-row set and the word set only
grow, so a dead entry never comes back to life, and the live top is the
shortlex-least witness a full rescan would find.

A new column changes every row, so it drops the ``S``-row set, the
unclosed heap and the groups; the next :func:`check` rebuilds them.  The
evidence-gap heap does not read rows and is never rebuilt.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from types import MappingProxyType

from .algebra import Algebra
from .automata import shortlex_key


@dataclass(frozen=True)
class Defect:
    kind: str  # cohesive | not_consistent | not_closed | not_evidence_closed | not_output_closed
    witness: tuple = ()

    def __str__(self):
        return f"{self.kind}{self.witness if self.witness else ''}"


COHESIVE = Defect("cohesive")


def prefixes(word):
    return [tuple(word[:i]) for i in range(1, len(word) + 1)]


class ObservationTable:
    """Mutable table owned by a single learner."""

    def __init__(self, algebra: Algebra, ask, a0):
        """``ask`` answers output queries: word -> output symbol."""
        self.algebra = algebra
        self.ask = ask
        a0 = algebra.norm_char(a0)
        self.S = [()]
        self.R = [(a0,)]
        self.sigma_e = [a0]
        self.E = []
        self.gamma = []  # output symbols in first-seen order
        self._rows = {}  # S ∪ R -> its cells in column order
        self._sorted_words = [(), (a0,)]  # S ∪ R in shortlex order
        self._columns = [(a0,)]
        self._index = {(a0,): 0}  # column -> its index in a row
        self._s_rows = None  # rows of S; None until the next check after a column
        self._unclosed = None  # heap of (shortlex key, r), rebuilt with _s_rows
        self._gaps = []  # heap of (shortlex key of s·a, s, a); ε·a0 is in R from the start
        self._groups = None  # (row(p), a) -> prefixes p of words p·a, shortlex order
        self._witnesses = {}  # group -> (sort key, witness), inconsistent groups only
        self._dirty = set()  # groups to re-examine
        self._fill_rows(self.words())

    # -- storage -----------------------------------------------------------

    def columns(self):
        """Single-character columns, then ``E``; the table's own list, not a copy."""
        return self._columns

    def words(self):
        return self.S + self.R

    # Every cell of the table is filled after each operation, so a fill only
    # asks for the cells a new row or a new column brings, in the order a
    # full rescan of words x columns would ask for them.

    def _ask(self, w, col):
        out = self.ask(w + col)
        if not isinstance(out, str):
            raise TypeError(f"output query {w + col} answered {out!r}, not a string")
        if out not in self.gamma:
            self.gamma.append(out)
        return out

    def _fill_rows(self, new_words):
        for w in new_words:  # from a list: tuple() of a generator resizes, fragmenting the heap
            self._rows[w] = tuple([self._ask(w, col) for col in self._columns])

    def _add_column(self, col):
        self._columns = [(a,) for a in self.sigma_e] + self.E
        self._index = {c: i for i, c in enumerate(self._columns)}
        self._s_rows = self._unclosed = self._groups = None
        i = self._index[col]  # a new sigma_e column goes in before E
        for w in self.words():
            row = self._rows[w]
            self._rows[w] = row[:i] + (self._ask(w, col),) + row[i:]

    def cell(self, word, col):
        return self._rows[word][self._index[col]]

    def row(self, word):
        return self._rows[word]

    @property
    def cells(self):
        """Read-only ``(word, column) -> output`` view, built from every row on
        each access: read it once, not once per cell."""
        return MappingProxyType(self.snapshot()["cells"])

    # -- defect detection ----------------------------------------------------

    def check(self) -> Defect:
        for finder in (self._find_inconsistency, self._find_unclosed,
                       self._find_evidence_gap, self._find_output_gap):
            defect = finder()
            if defect is not None:
                return defect
        return COHESIVE

    def _find_inconsistency(self):
        """The shortlex-least witness over all groups of prefixes sharing a row and a character."""
        if self._groups is None:
            self._groups = {}
            for w in self._sorted_words[1:]:  # every word but the empty one
                self._groups.setdefault((self.row(w[:-1]), w[-1]), []).append(w[:-1])
            self._witnesses = {}
            self._dirty = set(self._groups)
        for group in self._dirty:
            found = self._group_witness(group)
            if found is None:
                self._witnesses.pop(group, None)
            else:
                self._witnesses[group] = found
        self._dirty.clear()
        if not self._witnesses:
            return None
        return Defect("not_consistent", min(self._witnesses.values())[1])

    def _group_witness(self, group):
        """``(sort key, witness)`` of the group's first prefix whose successor row
        differs from its base's, or None when the group is consistent."""
        (_, a), members = group, self._groups[group]
        base = members[0]
        base_row = self.row(base + (a,))
        for w2 in members[1:]:
            if (row2 := self.row(w2 + (a,))) == base_row:
                continue
            e = min((col for col, x, y in zip(self._columns, base_row, row2) if x != y),
                    key=shortlex_key)
            key = (shortlex_key(base), shortlex_key(w2), shortlex_key((a,)), shortlex_key(e))
            return key, (base, w2, a, e)
        return None

    def _find_unclosed(self):
        s_rows = self._s_rows
        if s_rows is None:
            s_rows = self._s_rows = {self.row(s) for s in self.S}
            self._unclosed = [(shortlex_key(r), r) for r in self.R if self.row(r) not in s_rows]
            heapify(self._unclosed)
        heap = self._unclosed
        while heap and self.row(heap[0][1]) in s_rows:
            heappop(heap)
        return Defect("not_closed", (heap[0][1],)) if heap else None

    def _find_evidence_gap(self):
        heap, words = self._gaps, self._rows
        while heap and heap[0][1] + (heap[0][2],) in words:
            heappop(heap)
        return Defect("not_evidence_closed", heap[0][1:]) if heap else None

    def _find_output_gap(self):
        known = set(self.sigma_e)
        for w in self._sorted_words:
            if w and w[-1] not in known:
                return Defect("not_output_closed", (w[:-1], w[-1]))
        return None

    # -- repairs -------------------------------------------------------------

    def repair(self, defect: Defect):
        handler = {
            "not_consistent": self.make_consistent,
            "not_closed": self.make_closed,
            "not_evidence_closed": self.make_evidence_closed,
            "not_output_closed": self.make_output_closed,
        }.get(defect.kind)
        if handler is None:
            raise ValueError(f"cannot repair {defect}")
        handler(defect)

    def make_closed(self, defect: Defect):
        (r,) = defect.witness
        if r not in self.R:
            raise ValueError(f"{r} is not an R-row")
        self.R.remove(r)
        self.S.append(r)
        if self._s_rows is not None:
            self._s_rows.add(self.row(r))
        for a in self.sigma_e:
            heappush(self._gaps, (shortlex_key(r + (a,)), r, a))

    def make_consistent(self, defect: Defect):
        _, _, a, e = defect.witness
        column = (a,) + e
        if column in self.E:
            raise ValueError(f"column {column} already present")
        self.E.append(column)
        self._add_column(column)

    def make_evidence_closed(self, defect: Defect):
        s, a = defect.witness
        self._add_rows(s + (a,))

    def make_output_closed(self, defect: Defect):
        _, a = defect.witness
        if a in self.sigma_e:
            raise ValueError(f"{a} already in sigma_e")
        self.sigma_e.append(a)
        for s in self.S:
            heappush(self._gaps, (shortlex_key(s + (a,)), s, a))
        self._add_column((a,))

    def add_counterexample(self, cex):
        cex = tuple(self.algebra.norm_char(a) for a in cex)
        if not cex:
            raise ValueError("counterexample must be non-empty")
        self._add_rows(cex)

    def _add_rows(self, word):
        """Add the missing prefixes of ``word`` to R, shortest first, fill and index them."""
        new = [p for p in prefixes(word) if p not in self._rows]
        self.R.extend(new)
        self._fill_rows(new)
        for w in new:
            insort(self._sorted_words, w, key=shortlex_key)
            if self._s_rows is not None and self.row(w) not in self._s_rows:
                heappush(self._unclosed, (shortlex_key(w), w))
            if self._groups is not None:
                group = (self.row(w[:-1]), w[-1])
                insort(self._groups.setdefault(group, []), w[:-1], key=shortlex_key)
                self._dirty.add(group)

    # -- inspection ----------------------------------------------------------

    def structural_violations(self) -> list[str]:
        """Structural-invariant breaches; empty when the table is well formed."""
        out = []
        words = set(self.S) | set(self.R)
        if () not in self.S:
            out.append("empty word missing from S")
        if set(self.S) & set(self.R):
            out.append("S and R overlap")
        if not self.sigma_e:
            out.append("sigma_e is empty")
        for w in words:
            if w and w[:-1] not in words:
                out.append(f"prefix of {w} missing")
        cols = set(self.columns())
        for e in self.E:
            for i in range(1, len(e)):
                if e[i:] not in cols:
                    out.append(f"suffix {e[i:]} of column {e} missing")
        for w in words:
            if len(self._rows.get(w, ())) != len(self._columns):
                out.append(f"row {w} unfilled")
        return out

    def snapshot(self) -> dict:
        return {
            "S": tuple(self.S),
            "R": tuple(self.R),
            "sigma_e": tuple(self.sigma_e),
            "E": tuple(self.E),
            "cells": {(w, col): out for w in self.words()
                      for col, out in zip(self._columns, self._rows[w])},
        }
