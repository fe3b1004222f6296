"""Effective Boolean algebras over ordered domains.

Three algebra kinds are supported:

* ``interval-nat``: half-open intervals ``[lo, hi)`` over the naturals,
  optionally restricted to ``{0, ..., bound-1}``.
* ``interval-real``: half-open intervals over finite 64-bit floats, with a
  configurable domain minimum.
* ``product``: finite unions of boxes over a tuple of at least two 1-D
  interval algebras.

Predicates are immutable and kept in a canonical normal form, so two
predicates with equal denotations compare structurally equal.  ``hi = None``
encodes an unbounded upper endpoint throughout.  An interval predicate is
treated as one box on one axis, so interval and product predicates are
built, combined and compiled on one label map (``_first_match_node`` and
``read_labels``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class AlgebraError(ValueError):
    """Kind, dimension or domain mismatch between algebra values."""


INTERVAL_KINDS = ("interval-nat", "interval-real")


@dataclass(frozen=True)
class Predicate:
    """Canonical predicate value.

    Exactly one payload is populated, depending on ``kind``:
    ``ivs`` for 1-D interval algebras (sorted, disjoint, non-touching
    half-open intervals) and ``boxes`` for product algebras (disjoint boxes,
    each box a tuple of per-axis 1-D predicates).
    """

    kind: str
    ivs: tuple = ()
    boxes: tuple = ()

    def is_false(self) -> bool:
        return not self.ivs and not self.boxes

    def __repr__(self):
        return f"<{format_predicate(self)}>"


def format_char(a) -> str:
    if isinstance(a, tuple):
        return "(" + ",".join(format_char(c) for c in a) + ")"
    if isinstance(a, float) and a.is_integer() and abs(a) < 1e15:
        return str(int(a))
    return str(a)


def format_predicate(p: Predicate) -> str:
    if p.is_false():
        return "false"
    if p.kind in INTERVAL_KINDS:
        parts = []
        for lo, hi in p.ivs:
            parts.append(f"[{format_char(lo)},{'inf' if hi is None else format_char(hi)})")
        return "U".join(parts)
    boxes = []
    for box in p.boxes:
        boxes.append("x".join(format_predicate(c) for c in box))
    return " U ".join(boxes)


@dataclass(frozen=True)
class Algebra:
    """Descriptor of one effective Boolean algebra, and its operations."""

    kind: str
    components: tuple = ()
    bound: int | None = None
    minimum: float = 0.0

    # -- construction ------------------------------------------------------

    @staticmethod
    def naturals(bound: int | None = None) -> "Algebra":
        return Algebra(kind="interval-nat", bound=bound)

    @staticmethod
    def reals(minimum: float = 0.0) -> "Algebra":
        return Algebra(kind="interval-real", minimum=float(minimum))

    @staticmethod
    def product(*components: "Algebra") -> "Algebra":
        if len(components) < 2:
            raise AlgebraError("product arity must be >= 2")
        for c in components:
            if c.kind not in INTERVAL_KINDS:
                raise AlgebraError(f"unsupported product component kind: {c.kind}")
        return Algebra(kind="product", components=tuple(components))

    @property
    def arity(self) -> int:
        return len(self.components) if self.kind == "product" else 1

    # -- characters --------------------------------------------------------

    def min_char(self):
        if self.kind == "interval-nat":
            return 0
        if self.kind == "interval-real":
            return self.minimum
        return tuple(c.min_char() for c in self.components)

    def norm_char(self, a):
        """Validate ``a`` and coerce it into the domain's canonical type."""
        if self.kind == "interval-nat":
            if isinstance(a, bool) or not isinstance(a, int):
                if isinstance(a, float) and a.is_integer():
                    a = int(a)
                else:
                    raise AlgebraError(f"not a natural: {a!r}")
            if a < 0 or (self.bound is not None and a >= self.bound):
                raise AlgebraError(f"natural out of domain: {a!r}")
            return a
        if self.kind == "interval-real":
            if isinstance(a, bool) or not isinstance(a, (int, float)):
                raise AlgebraError(f"not a real: {a!r}")
            if not -sys.float_info.max <= a <= sys.float_info.max:  # also ints beyond a float
                raise AlgebraError(f"real characters must be finite: {a!r}")
            a = float(a)
            if a < self.minimum:
                raise AlgebraError(f"below domain minimum {self.minimum}: {a!r}")
            return a
        if not isinstance(a, tuple) or len(a) != self.arity:
            raise AlgebraError(f"expected {self.arity}-tuple, got {a!r}")
        return tuple([c.norm_char(x) for c, x in zip(self.components, a)])

    def next_above(self, a):
        """Smallest domain value strictly above ``a`` (per axis for products)."""
        if self.kind == "interval-nat":
            a = self.norm_char(a)
            nxt = a + 1
            if self.bound is not None and nxt >= self.bound:
                raise AlgebraError(f"no successor of {a} in bounded domain")
            return nxt
        if self.kind == "interval-real":
            a = self.norm_char(a)
            nxt = math.nextafter(a, math.inf)
            if not math.isfinite(nxt):
                raise AlgebraError(f"successor of {a} overflows")
            return nxt
        raise AlgebraError(f"next_above undefined for kind {self.kind}")

    # -- predicate constructors --------------------------------------------

    def bottom(self) -> Predicate:
        return Predicate(kind=self.kind)

    def top(self) -> Predicate:
        if self.kind in INTERVAL_KINDS:
            return Predicate(kind=self.kind, ivs=((self.min_char(), None),))
        return Predicate(kind="product", boxes=((tuple(c.top() for c in self.components)),))

    def interval(self, lo, hi) -> Predicate:
        """Half-open interval ``[lo, hi)``; ``hi=None`` means unbounded.

        ``hi`` follows ``norm_char``'s type rules but may lie outside the
        domain, e.g. at its bound: NaN, the infinities and integers that
        overflow a float are not finite reals.
        """
        if self.kind not in INTERVAL_KINDS:
            raise AlgebraError(f"interval undefined for kind {self.kind}")
        lo = self.norm_char(lo)
        if hi is not None:
            number = not isinstance(hi, bool) and isinstance(hi, (int, float))
            if self.kind == "interval-nat":
                if not number or isinstance(hi, float) and not hi.is_integer():
                    raise AlgebraError(f"upper endpoint is not a natural: {hi!r}")
                hi = int(hi)
            elif number and -sys.float_info.max <= hi <= sys.float_info.max:
                hi = float(hi)
            else:
                raise AlgebraError(f"upper endpoint is not a finite real: {hi!r}")
            if hi <= lo:
                raise AlgebraError(f"empty interval [{lo}, {hi})")
            if self.bound is not None and hi >= self.bound:
                hi = None
        return Predicate(kind=self.kind, ivs=((lo, hi),))

    def union(self, *preds: Predicate) -> Predicate:
        """Join of ``preds``, normalized once."""
        for p in preds:
            self._check(p)
        return self._cells([box for p in preds for box in self._boxes(p)], True)

    def box(self, *comps) -> Predicate:
        """Product box from per-axis 1-D predicates or (lo, hi) pairs."""
        if self.kind != "product":
            raise AlgebraError("box undefined for non-product algebra")
        if len(comps) != self.arity:
            raise AlgebraError(f"expected {self.arity} components, got {len(comps)}")
        preds = []
        for c, comp in zip(self.components, comps):
            if isinstance(comp, Predicate):
                preds.append(comp)
            else:
                lo, hi = comp
                preds.append(c.interval(lo, hi))
        return self.from_boxes((preds,))

    def from_boxes(self, boxes) -> Predicate:
        if self.kind != "product":
            raise AlgebraError("from_boxes undefined for non-product algebra")
        return self._cells(boxes, True)

    # -- semantics ---------------------------------------------------------

    def denotes(self, phi: Predicate, a) -> bool:
        """True iff ``a`` is in the denotation of ``phi``."""
        self._check(phi)
        return member(phi, self.norm_char(a))

    def first_match(self, guards, values):
        """Compile ``guards`` into ``(find, table, overlaps)``.

        ``find(a)`` returns ``values[i]`` for the first ``i`` whose guard holds
        the normalized character ``a``, or None, so overlapping or incomplete
        guard lists keep first-match semantics; ``overlaps`` lists every pair
        ``(i, j)``, ``i < j``, of guards that meet, ascending.  The guards
        become a ``table`` of cut lists (``_first_match_node``) searched with
        ``bisect_right``.
        """
        for phi in guards:
            self._check(phi)
        overlaps = set()
        rows = [box + (i,) for i, phi in enumerate(guards) for box in self._boxes(phi)]
        table = cuts, vals = _first_match_node(self._axes, rows, values, overlaps)
        if self.kind != "product":
            find = lambda a: vals[bisect_right(cuts, a) - 1]
        else:
            def find(a):
                node = table
                for x in a:
                    cuts, vals = node
                    node = vals[bisect_right(cuts, x) - 1]
                return node
        return find, table, tuple(sorted(overlaps)) if overlaps else ()

    def meet(self, phi: Predicate, psi: Predicate) -> Predicate:
        self._check(phi)
        self._check(psi)
        return self._cells([box for p in (phi, psi)
                            for box in self._boxes(self._cells(self._boxes(p), None))], None)

    def join(self, phi: Predicate, psi: Predicate) -> Predicate:
        self._check(phi)
        self._check(psi)
        return self._cells(self._boxes(phi) + self._boxes(psi), True)

    def complement(self, phi: Predicate) -> Predicate:
        self._check(phi)
        return self._cells(self._boxes(phi), None)

    def is_empty(self, phi: Predicate) -> bool:
        self._check(phi)
        return phi.is_false()

    def witness(self, phi: Predicate):
        """Minimum element of the denotation (lexicographic-minimum corner)."""
        self._check(phi)
        if phi.is_false():
            raise AlgebraError("witness of the empty predicate")
        if self.kind in INTERVAL_KINDS:
            return phi.ivs[0][0]
        first = phi.boxes[0]
        return tuple(c.witness(comp) for c, comp in zip(self.components, first))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        if self.kind == "interval-nat":
            d = {"kind": self.kind}
            if self.bound is not None:
                d["bound"] = self.bound
            return d
        if self.kind == "interval-real":
            return {"kind": self.kind, "min": self.minimum}
        return {"kind": self.kind, "components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(d) -> "Algebra":
        if not isinstance(d, dict):
            raise AlgebraError(f"algebra descriptor must be an object, got {d!r}")
        kind = d.get("kind")
        if kind == "interval-nat":
            bound = d.get("bound")
            if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int)
                                      or bound < 1):
                raise AlgebraError(
                    f"algebra descriptor 'bound' must be null or an integer >= 1, got {bound!r}")
            return Algebra.naturals(bound=bound)
        if kind == "interval-real":
            minimum = d.get("min", 0.0)
            # the range test also rejects NaN, and integers that overflow a float
            if (isinstance(minimum, bool) or not isinstance(minimum, (int, float))
                    or not -sys.float_info.max <= minimum <= sys.float_info.max):
                raise AlgebraError(
                    f"algebra descriptor 'min' must be a finite number, got {minimum!r}")
            return Algebra.reals(minimum=minimum)
        if kind == "product":
            components = d.get("components")
            if not isinstance(components, list):
                raise AlgebraError(
                    f"algebra descriptor 'components' must be a list, got {components!r}")
            return Algebra.product(*(Algebra.from_json(c) for c in components))
        raise AlgebraError(f"unknown algebra kind: {kind!r}")

    def char_from_json(self, v):
        """Parse a character; ``{"na": x}`` means the successor of ``x``."""
        if isinstance(v, dict) and set(v) == {"na"}:
            return self.next_above(self.char_from_json(v["na"]))
        if self.kind == "product":
            if not isinstance(v, (list, tuple)) or len(v) != self.arity:
                raise AlgebraError(f"expected a list of {self.arity} components, got {v!r}")
            return tuple(c.char_from_json(x) for c, x in zip(self.components, v))
        return self.norm_char(v)

    def pred_to_json(self, phi: Predicate):
        """Union-of-boxes guard form: per-axis [lo, hi] with hi=null for inf."""
        self._check(phi)
        return [[[lo, hi] for lo, hi in flat] for flat in flat_boxes(self, phi)]

    def pred_from_json(self, data) -> Predicate:
        def axis_iv(axis, pair):
            lo, hi = axis.char_from_json(pair[0]), pair[1]
            # hi may sit just outside the domain (e.g. at the bound); interval() checks its type
            if isinstance(hi, dict) and set(hi) == {"na"}:
                hi = axis.char_from_json(hi)
            return axis.interval(lo, hi)

        boxes = []
        for box in data:
            if len(box) != self.arity:
                raise AlgebraError(f"box arity {len(box)} != {self.arity}")
            boxes.append(tuple(axis_iv(axis, pair) for axis, pair in zip(self._axes, box)))
        return self._cells(boxes, True)

    # -- internals ---------------------------------------------------------

    def _check(self, phi: Predicate):
        if phi.kind != self.kind:
            raise AlgebraError(f"predicate kind {phi.kind} does not match algebra {self.kind}")

    # Interval and product predicates are boxes over ``_axes`` (an interval
    # predicate is one box on one axis), built on the label map of
    # ``_first_match_node`` (one cut list per axis, from the axis minimum) and
    # read back by ``read_labels``: ``from_boxes``, ``union`` and ``join`` read
    # the cells their boxes cover, ``complement`` the cells they leave
    # uncovered, and ``meet`` is the complement of the join of the two
    # complements.

    @cached_property
    def _rest_algebra(self) -> "Algebra":
        if self.arity == 2:
            return self.components[1]
        return Algebra(kind="product", components=self.components[1:])

    @cached_property
    def _axes(self) -> tuple:
        return self.components or (self,)

    def _boxes(self, phi: Predicate) -> tuple:
        """``phi`` as boxes over ``_axes``, one 1-D predicate per axis."""
        return phi.boxes if self.components else ((phi,),)

    def _cells(self, boxes, label) -> Predicate:
        """The cells of the label map of ``boxes`` that carry ``label``: True where a
        box holds them, None where none does."""
        node = _first_match_node(self._axes, [tuple(box) + (0,) for box in boxes],
                                 (True,), set())
        return read_labels(self, node, (label,)).get(label, self.bottom())


def member(phi: Predicate, a) -> bool:
    """True iff ``a``, already normalized by ``norm_char``, is in ``phi``."""
    if phi.kind in INTERVAL_KINDS:
        return any(lo <= a and (hi is None or a < hi) for lo, hi in phi.ivs)
    return any(all(member(comp, x) for comp, x in zip(box, a)) for box in phi.boxes)


def _first_match_node(axes, rows, values, overlaps):
    """First-match table over ``axes`` for rows ``box + (guard index,)`` in guard order.

    Each box holds one 1-D predicate per axis.  The table is ``(cuts, entries)``:
    the cuts are the axis minimum and every endpoint of the rows' first
    components, ascending, so each row holds all of a segment or none of it;
    a segment's entry is the table of its rows over the remaining axes, and
    at the last axis the value of the first row (None for none).  Adjacent
    equal entries are merged.  Index pairs that share a cell go into ``overlaps``.
    """
    if not axes:
        if len(rows) > 1:
            overlaps.update(combinations(sorted({i for i, in rows}), 2))
        return values[rows[0][0]] if rows else None
    cuts = _cuts(axes[0], (row[0] for row in rows))
    out_cuts, out_vals = [], []
    for c, held in zip(cuts, _segment_holders(cuts, rows)):
        node = _first_match_node(axes[1:], held, values, overlaps)
        if not out_vals or out_vals[-1] != node:
            out_cuts.append(c)
            out_vals.append(node)
    return tuple(out_cuts), tuple(out_vals)


def _segment_holders(cuts, rows):
    """Per segment of ``cuts``, ``row[1:]`` for each row whose first component, a 1-D
    predicate, holds it, in row order: each interval ``[lo, hi)`` holds the segments
    from cut ``lo`` up to cut ``hi`` (all the rest if unbounded)."""
    holders = [[] for _ in cuts]
    for row in rows:
        tail = row[1:]
        for lo, hi in row[0].ivs:
            end = len(cuts) if hi is None else bisect_left(cuts, hi)
            for k in range(bisect_left(cuts, lo), end):
                holders[k].append(tail)
    return holders


def _cuts(axis: Algebra, comps) -> list:
    """The minimum of ``axis`` and every endpoint of its 1-D predicates ``comps``, ascending."""
    cuts = {axis.min_char()}
    for comp in comps:
        for lo, hi in comp.ivs:
            cuts.add(lo)
            if hi is not None:
                cuts.add(hi)
    return sorted(cuts)


def read_labels(alg: Algebra, node, wanted) -> dict:
    """Label -> predicate over ``alg`` of the cells of label map ``node`` that carry it,
    for each label in ``wanted`` that some cell carries.

    ``node`` is ``(cuts, entries)`` with ascending cuts from the axis minimum:
    segment ``j`` runs from ``cuts[j]`` up to the next cut (the last one is
    unbounded), and its entry is the map over the remaining axes, or a label
    at the last axis.  Each predicate comes out canonical: per axis, equal
    adjacent sections merge, and the segments of one section form one box
    component, in order of first appearance.
    """
    cuts, entries = node
    if alg.kind != "product":
        return {label: Predicate(kind=alg.kind, ivs=tuple(ivs))
                for label, ivs in _claims(cuts, entries).items() if label in wanted}
    rest, axis_kind = alg._rest_algebra, alg.components[0].kind
    below = [read_labels(rest, sub, wanted) for sub in entries]
    preds = {}
    for label in dict.fromkeys(label for found in below for label in found):
        boxes = []
        for section, ivs in _claims(cuts, [found.get(label) for found in below]).items():
            if section is None:  # segments where the label carries no cell
                continue
            comp = Predicate(kind=axis_kind, ivs=tuple(ivs))
            if rest.kind == "product":
                boxes.extend((comp,) + box for box in section.boxes)
            else:
                boxes.append((comp, section))
        preds[label] = Predicate(kind="product", boxes=tuple(boxes))
    return preds


def _claims(cuts, entries) -> dict:
    """Entry -> the intervals of the segments of ``cuts`` that carry it, ascending, with
    adjacent segments merged; entries in order of first appearance."""
    claims = {}
    for j, entry in enumerate(entries):
        lo, hi = cuts[j], cuts[j + 1] if j + 1 < len(cuts) else None
        own = claims.setdefault(entry, [])
        if own and own[-1][1] == lo:
            own[-1] = (own[-1][0], hi)
        else:
            own.append((lo, hi))
    return claims


def _flatten_box(box):
    """Expand a box with union components into single-interval boxes."""
    if not box:
        return [()]
    tails = _flatten_box(box[1:])
    out = []
    for lo, hi in box[0].ivs:
        for tail in tails:
            out.append(((lo, hi),) + tail)
    return out


def flat_boxes(algebra: Algebra, phi: Predicate):
    """Single-interval-per-axis decomposition of a canonical predicate."""
    return [flat for box in algebra._boxes(phi) for flat in _flatten_box(box)]
