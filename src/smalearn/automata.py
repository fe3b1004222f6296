"""Symbolic and concrete Mealy machines.

``SMealy`` is a deterministic, complete Mealy machine whose transitions carry
predicates; ``ConcreteMealy`` is a Mealy machine over an explicit finite
alphabet, one (successor, output) row per state, the form ``state_groups``
groups for the learner's evidence and the teacher's target.  The module also
provides exact equivalence checking via product exploration, restriction of a
symbolic machine to a finite alphabet, and JSON / DOT serialization.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    Algebra,
    AlgebraError,
    Predicate,
    format_char,
    format_predicate,
    read_labels,
)


class AutomatonError(ValueError):
    """Malformed automaton or operation on an invalid automaton."""


def shortlex_key(word):
    """Sort key ordering words by length, then pointwise by the domain order."""
    return (len(word), tuple(word))


@dataclass(frozen=True)
class Transition:
    source: int
    guard: Predicate
    target: int
    output: str


@dataclass(frozen=True)
class Violation:
    state: int
    kind: str  # "overlap" | "incomplete"
    detail: tuple  # (guard, guard) for overlaps, (uncovered predicate,) otherwise
    last: int | None = None  # states state..last, all without transitions

    def __str__(self):
        if self.kind == "overlap":
            a, b = self.detail
            return (f"state {self.state}: guards {format_predicate(a)} and "
                    f"{format_predicate(b)} overlap")
        states = f"state {self.state}" if self.last is None else f"states {self.state}-{self.last}"
        return f"{states}: uncovered region {format_predicate(self.detail[0])}"


class SMealy:
    """Symbolic Mealy machine with canonically ordered, merged transitions."""

    def __init__(self, algebra: Algebra, n_states: int, initial: int, outputs, transitions):
        if n_states < 1:
            raise AutomatonError("at least one state required")
        if n_states > sys.maxsize:  # no state number beyond an index-sized integer
            raise AutomatonError(f"cannot hold {n_states} states")
        if not 0 <= initial < n_states:
            raise AutomatonError(f"initial state {initial} out of range")

        merged = {}  # (source, target, output) -> its guards, keys in first-seen order
        for source, guard, target, output in transitions:
            if not 0 <= source < n_states or not 0 <= target < n_states:
                raise AutomatonError(f"transition state out of range: {source}->{target}")
            if guard.is_false():
                raise AutomatonError(f"bottom guard on transition {source}->{target}")
            if not isinstance(output, str):
                raise AutomatonError(f"output of transition {source}->{target} must be a string, "
                                     f"got {output!r}")
            merged.setdefault((source, target, output), []).append(guard)

        # declared outputs first, then the others in transition order
        outputs = [_string(o, f"outputs entry {j}") for j, o in enumerate(outputs)]
        outputs = tuple(dict.fromkeys([*outputs, *(o for _, _, o in merged)]))

        trans = [Transition(s, gs[0] if len(gs) == 1 else algebra.union(*gs), t, o)
                 for (s, t, o), gs in merged.items()]
        trans.sort(key=lambda tr: (tr.source, _char_key(algebra.witness(tr.guard))))
        states = {}
        for tr in trans:
            states.setdefault(tr.source, []).append(tr)
        self._by_state = {q: tuple(trs) for q, trs in states.items()}  # given guards may overlap
        for q, trs in self._by_state.items():
            labels = tuple([(tr.target, tr.output) for tr in trs])
            states[q] = (labels, *algebra.first_match([tr.guard for tr in trs], labels))
        self._install(algebra, n_states, initial, outputs, states)

    def _install(self, algebra, n_states, initial, outputs, states):
        """Set and return the machine; ``states`` maps each state with transitions, ascending,
        to its labels by witness, their ``first_match`` table and overlaps; guards are read
        off the tables on first use (``_by_state``)."""
        self.algebra, self.n_states, self.initial = algebra, n_states, initial
        self.outputs = outputs
        # per state with transitions: its labels, table, overlapping pairs and lookup
        self._labels, self._tables, self._overlaps = (
            {q: state[k] for q, state in states.items()} for k in range(3))
        self._find = {q: algebra.lookup(table) for q, table in self._tables.items()}
        self._oracle_setup = None  # the essential characters, once EquivOracle checks them
        return self

    @cached_property
    def _by_state(self):  # per state with transitions, its transitions read off its table
        return {q: tuple([Transition(q, guard, *label) for label, guard in
                          read_labels(self.algebra, table, self._labels[q]).items()])
                for q, table in self._tables.items()}

    @cached_property
    def transitions(self):
        return tuple([tr for trs in self._by_state.values() for tr in trs])

    def __eq__(self, other):
        return (isinstance(other, SMealy)
                and self.algebra == other.algebra
                and self.n_states == other.n_states
                and self.initial == other.initial
                and self.outputs == other.outputs
                and self.transitions == other.transitions)

    def __repr__(self):
        n = sum(map(len, self._labels.values()))  # no guard is read for this
        return f"SMealy(states={self.n_states}, transitions={n}, outputs={list(self.outputs)})"

    def state_transitions(self, q: int):
        return self._by_state.get(q, ())

    def step(self, q: int, a):
        """(successor, output) of the first stored transition of ``q`` whose guard holds ``a``."""
        a = self.algebra.norm_char(a)
        try:
            hit = self._find[q](a)
        except KeyError:  # a state without transitions; lookups raise no KeyError
            hit = None
        if hit is None:
            raise _no_transition(q, a)
        return hit

    def run(self, word) -> str:
        word = tuple(word)
        if not word:
            raise AutomatonError("output of the empty word is undefined")
        q = self.initial
        for a in word:
            q, out = self.step(q, a)
        return out

    def validate(self) -> list[Violation]:
        """Determinism and completeness violations, empty when valid, by ascending state: each
        state's overlapping guard pairs (recorded at compilation), then its uncovered region
        (the cells of its compiled table that no guard holds); one violation per run of
        states without transitions (``last`` set if it is longer)."""
        violations, alg = [], self.algebra
        everything, unreported = alg.complement(alg.bottom()), 0  # the least state not reported
        for q in [*sorted(self._by_state), self.n_states]:  # n_states closes the last run
            if unreported < q:
                last = q - 1 if q - 1 > unreported else None
                violations.append(Violation(unreported, "incomplete", (everything,), last))
            unreported, trs = q + 1, self._by_state.get(q, ())
            violations.extend(Violation(q, "overlap", (trs[i].guard, trs[j].guard))
                              for i, j in self._overlaps.get(q, ()))
            if not trs:
                continue
            uncovered = read_labels(alg, self._tables[q], (None,)).get(None, alg.bottom())
            if not alg.is_empty(uncovered):
                violations.append(Violation(q, "incomplete", (uncovered,)))
        return violations

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "algebra": self.algebra.to_json(),
            "states": self.n_states,
            "initial": self.initial,
            "outputs": list(self.outputs),
            "transitions": [
                {"from": t.source, "guard": self.algebra.pred_to_json(t.guard),
                 "to": t.target, "out": t.output}
                for t in self.transitions
            ],
        }

    @staticmethod
    def from_json(data) -> "SMealy":
        try:
            algebra = Algebra.from_json(data["algebra"])
            n, initial = data["states"], data["initial"]
            outputs = data.get("outputs", [])
            raw = data["transitions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise AutomatonError(f"malformed automaton data: {exc}") from exc
        n = _state_number(n, "states")
        initial = _state_number(initial, "initial")
        if n < 1:
            raise AutomatonError("at least one state required")
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range")
        if not isinstance(outputs, list) or not isinstance(raw, list):
            raise AutomatonError("outputs and transitions must be lists")
        for j, output in enumerate(outputs):
            _string(output, f"outputs entry {j}")

        def renum(q):  # the initial state is always state 0 in memory
            if q == initial:
                return 0
            if q == 0:
                return initial
            return q

        transitions = []
        for i, t in enumerate(raw):
            try:
                source, target, output = t["from"], t["to"], t["out"]
                guard = algebra.pred_from_json(t["guard"])
            except AlgebraError:  # a ValueError too, and already names the bad guard
                raise
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise AutomatonError(f"malformed transition {i}: {exc!r}") from exc
            _string(output, f"transition {i} 'out'")
            source = _state_number(source, f"transition {i} 'from'")
            target = _state_number(target, f"transition {i} 'to'")
            if not 0 <= source < n or not 0 <= target < n:
                raise AutomatonError(f"transition state out of range: {source}->{target}")
            transitions.append((renum(source), guard, renum(target), output))
        return SMealy(algebra, n, 0, outputs, transitions)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SMealy":
        with open(path) as fh:
            return SMealy.from_json(json.load(fh))

    def to_dot(self) -> str:
        lines = ["digraph sma {", "  rankdir=LR;", '  __start [shape=point label=""];',
                 f"  __start -> q{self.initial};"]
        for q in range(self.n_states):
            lines.append(f'  q{q} [shape=circle label="q{q}"];')
        for t in self.transitions:
            label = f"{format_predicate(t.guard)} | {t.output}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')  # as a DOT string
            lines.append(f'  q{t.source} -> q{t.target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _state_number(v, what):
    """A state count or state number from a file: a JSON integer, not a boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise AutomatonError(f"{what} must be an integer, got {v!r}")
    return v


def _string(v, what):
    """``v`` if it is a string; an output is never another value's text."""
    if not isinstance(v, str):
        raise AutomatonError(f"{what} must be a string, got {v!r}")
    return v


def _no_transition(q, a):
    return AutomatonError(f"no transition from state {q} on {format_char(a)}")


def _char_key(a):
    return a if isinstance(a, tuple) else (a,)


class ConcreteMealy:
    """Total Mealy machine over an explicit finite alphabet: ``alphabet`` holds normalized
    characters, strictly ascending, and ``rows[q]`` lists state ``q``'s (successor, output)
    per character of ``alphabet``."""

    def __init__(self, alphabet, rows, initial: int, outputs):
        self.alphabet, self.rows, self.initial = tuple(alphabet), [list(r) for r in rows], initial
        self.n_states, keys = len(self.rows), [_char_key(a) for a in self.alphabet]
        if not keys:
            raise AutomatonError("alphabet must be non-empty")
        if any(k >= nxt for k, nxt in zip(keys, keys[1:])):
            raise AutomatonError("alphabet must be strictly ascending")
        if not 0 <= initial < self.n_states:
            raise AutomatonError("bad state count or initial state")
        outs = dict.fromkeys(outputs)  # declared first, then the rows' in order
        for q, row in enumerate(self.rows):
            if len(row) != len(keys):
                raise AutomatonError(f"state {q} has {len(row)} transitions, not {len(keys)}")
            for a, (succ, out) in zip(self.alphabet, row):
                if not 0 <= succ < self.n_states:
                    raise AutomatonError(f"({q}, {format_char(a)}) to {succ}: state out of range")
                outs.setdefault(out)
        self.outputs = tuple(outs)
        self._index = {a: i for i, a in enumerate(self.alphabet)}  # character -> row position

    def __eq__(self, other):
        return (isinstance(other, ConcreteMealy)
                and self.alphabet == other.alphabet
                and self.initial == other.initial
                and self.rows == other.rows)

    def step(self, q, a):
        i = self._index.get(a)
        if i is None or not 0 <= q < self.n_states:
            raise AutomatonError(f"no transition ({q}, {format_char(a)})")
        return self.rows[q][i]

    run = SMealy.run  # the same walk, over this class's step


def restrict(m: SMealy, sigma) -> ConcreteMealy:
    """Concrete machine agreeing with ``m`` on all words over ``sigma``."""
    chars = sorted({m.algebra.norm_char(a) for a in sigma}, key=_char_key)
    return ConcreteMealy(chars, [_steps(m, q, chars) for q in range(m.n_states)], m.initial,
                         m.outputs)


def _steps(m: SMealy, q: int, chars) -> list:
    """``m.step(q, a)`` per character ``a`` of ``chars``, which are normalized already."""
    find = m._find.get(q)
    hits = [find(a) for a in chars] if find else [None] * len(chars)
    if None in hits:
        raise _no_transition(q, chars[hits.index(None)])
    return hits


def state_groups(machine: ConcreteMealy):
    """Per state in order, the dict from each (successor, output) to the set of characters
    of the alphabet that reach it."""
    for row in machine.rows:
        groups = defaultdict(set)
        for a, hit in zip(machine.alphabet, row):
            groups[hit].add(a)
        yield groups


def first_difference(edges, start):
    """The word by which a breadth-first walk of state pairs from ``start`` first meets an edge
    whose outputs differ, or None.  ``edges(pair)`` lists ``(character, successor pair,
    outputs differ)``; pairs are expanded in FIFO order, each under the word that first
    reached it, so with each pair's edges in character order the word is shortlex-least."""
    seen = {start: ()}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        prefix = seen[pair]
        for a, nxt, differs in edges(pair):
            if differs:
                return prefix + (a,)
            if nxt not in seen:
                seen[nxt] = prefix + (a,)
                queue.append(nxt)
    return None


def symbolic_equiv(m1: SMealy, m2: SMealy):
    """None if the machines agree on every non-empty word, else a witness word.

    Both machines must be deterministic and complete on reached states, or
    ``AutomatonError`` is raised.  The product is walked by ``first_difference``:
    state pairs in FIFO order, transition pairs in canonical stored order, and
    each frontier character is the minimum of the meet of the two guards, so
    the witness is deterministic.  Guards are not met, nor read: merging the two states'
    compiled tables (see ``first_match``) gives each meeting pair with that minimum, and
    its labels' ranks in ``_labels`` are the stored transition order."""
    if m1.algebra != m2.algebra:
        raise AlgebraError("equivalence across different algebras")
    alg = m1.algebra
    char = (lambda corner: corner) if alg.kind == "product" else (lambda corner: corner[0])

    def edges(pair):
        """``(minimum, successor pair, outputs differ)`` per meeting transition pair."""
        q1, q2 = pair
        for m, q in ((m1, q1), (m2, q2)):
            if m._overlaps.get(q):
                raise AutomatonError(f"state {q} has overlapping guards")
            if q not in m._tables:
                raise _no_transition(q, alg.min_char())
        first = {}
        _meeting_cells(m1._tables[q1], m2._tables[q2], alg.arity, (), first)
        for (v1, v2), corner in first.items():  # by ascending corner: the least uncovered one
            if v1 is None or v2 is None:
                raise _no_transition(q1 if v1 is None else q2, char(corner))
        # a leaf value names one transition: equal (target, output) ones are merged
        rank1, rank2 = ({label: i for i, label in enumerate(m._labels[q])}
                        for m, q in ((m1, q1), (m2, q2)))
        for ((s1, o1), (s2, o2)), corner in sorted(
                first.items(), key=lambda kv: (rank1[kv[0][0]], rank2[kv[0][1]])):
            yield char(corner), (s1, s2), o1 != o2

    return first_difference(edges, (m1.initial, m2.initial))


def _meeting_cells(node1, node2, depth, corner, first):
    """Merge two compiled tables over ``depth`` axes, one level per axis over the ascending
    union of both cut lists, so cells come in lexicographic order of their lower corners.
    ``first`` maps each pair of leaf values to the lower corner (``corner`` plus one cut per
    level) of the first cell where both hold; None stands for a cell that no guard holds."""
    (cuts1, vals1), (cuts2, vals2) = node1, node2
    last1, last2 = len(cuts1) - 1, len(cuts2) - 1
    i = j = 0
    while True:
        v1, v2 = vals1[i], vals2[j]
        c = max(cuts1[i], cuts2[j])
        if depth > 1:
            _meeting_cells(v1, v2, depth - 1, corner + (c,), first)
        elif (v1, v2) not in first:
            first[(v1, v2)] = corner + (c,)
        if i < last1 and (j == last2 or cuts1[i + 1] <= cuts2[j + 1]):
            if j < last2 and cuts2[j + 1] == cuts1[i + 1]:
                j += 1  # both tables cut here
            i += 1
        elif j < last2:
            j += 1
        else:
            return
