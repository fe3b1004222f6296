"""In-memory spans around smalearn's public functions, installed from outside.

``instrument(tracer)`` replaces the public functions of ``automata``,
``obstable``, ``learner``, ``partition`` and ``algebra`` with wrappers that
record one span per call, and puts the originals back on exit.  Names are
patched where they are looked up, so module-level aliases (``restrict`` in
``learner`` and ``oracle``; ``symbolic_equiv``, ``essential_characters`` and
``check_partition_reconstruction`` in ``oracle``) are replaced too.
``Algebra.denotes`` and ``SMealy.step`` run millions of times per learn and
are left alone; ``automata.run.steps`` counts their work instead.

Spans are recorded only below a root span opened by the harness
(``learner.learn`` around a call of ``learn``, ``oracle.setup`` around the
construction of an ``Oracle``), so checks the harness makes itself are not
traced; its calibration slices inside a learn get spans of their own
(``calibration``) so that their time can be taken out.  Each span keeps its name, start, end and parent; the learn id is
kept on roots and inherited by their descendants.  Times are integer
nanoseconds, so self times (duration minus the children's durations) are
exact and never negative.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from smalearn import algebra, automata, learner, obstable, oracle, partition

# (span name, objects whose attribute is replaced, attribute name)
SPANS = [
    ("obstable.check", [obstable.ObservationTable], "check"),
    ("obstable.repair", [obstable.ObservationTable], "repair"),
    ("obstable.add_counterexample", [obstable.ObservationTable], "add_counterexample"),
    ("obstable.snapshot", [obstable.ObservationTable], "snapshot"),
    ("automata.run", [automata.SMealy], "run"),
    ("automata.restrict", [automata, learner, oracle], "restrict"),
    ("automata.symbolic_equiv", [automata, oracle], "symbolic_equiv"),
    ("learner.build_evidence", [learner], "build_evidence"),
    ("learner.sep_pred", [learner], "sep_pred"),
    ("learner.check_hypothesis", [learner], "_check_hypothesis"),
    ("oracle.essential_characters", [oracle], "essential_characters"),
    ("oracle.check_partition_reconstruction", [oracle], "check_partition_reconstruction"),
    ("partition", [partition], "partition_intervals"),
    ("partition", [partition], "partition_product"),
    ("partition", [partition], "partition_equality"),
    ("algebra.meet", [algebra.Algebra], "meet"),
    ("algebra.join", [algebra.Algebra], "join"),
    ("algebra.complement", [algebra.Algebra], "complement"),
    ("algebra.is_empty", [algebra.Algebra], "is_empty"),
    ("algebra.witness", [algebra.Algebra], "witness"),
]

LEARN = "learner.learn"
SETUP = "oracle.setup"
CALIBRATION = "calibration"  # the harness's own slices inside a learn; not the program's


class Tracer:
    """Span store for one process; spans are appended in start order."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.root_learn = {}  # root span index -> learn id
        self.counters = defaultdict(int)  # (learn id, counter name) -> count
        self.tables = {}  # learn id -> the learn's ObservationTable
        self.learn_id = -1
        self._stack = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def root(self, name: str, learn_id: int):
        """Open a root span; spans are recorded only while one is open."""
        if self._stack:
            raise RuntimeError(f"root span {name} opened inside another span")
        self.learn_id = learn_id
        i = self._open(self.name_id(name), -1)
        self.root_learn[i] = learn_id
        try:
            yield
        finally:
            self._close(i)

    def count(self, counter: str, n: int = 1):
        if self._stack:
            self.counters[(self.learn_id, counter)] += n

    def _open(self, nid, parent):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------------

    def roots(self) -> array:
        """Index of the root span above every span (a root is its own)."""
        out = array("q", bytes(8 * len(self.start)))
        parent = self.parent
        for i in range(len(out)):
            p = parent[i]
            out[i] = i if p < 0 else out[p]
        return out

    def self_ns(self) -> array:
        """Duration minus the durations of direct children, per span."""
        n = len(self.start)
        out = array("q", (self.end[i] - self.start[i] for i in range(n)))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def nesting_errors(self, limit: int = 5) -> list[str]:
        """Spans that do not lie inside their parent or are never closed."""
        errors = []
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.end[i] < self.start[i]:
                errors.append(f"span {i} ({self.names[self.name[i]]}) ends before it starts")
            elif p >= 0 and not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                errors.append(f"span {i} ({self.names[self.name[i]]}) leaves parent {p}")
            elif p >= i:
                errors.append(f"span {i} has parent {p} recorded after it")
            if len(errors) >= limit:
                break
        return errors

    def totals(self, pass_of_learn):
        """(calls, self ns, duration ns) per (pass, root name, span name)."""
        roots = self.roots()
        self_ns = self.self_ns()
        names, name, start, end = self.names, self.name, self.start, self.end
        root_key = {r: (pass_of_learn(learn), names[name[r]])
                    for r, learn in self.root_learn.items()}
        out = defaultdict(lambda: [0, 0, 0])
        for i in range(len(start)):
            acc = out[root_key[roots[i]] + (names[name[i]],)]
            acc[0] += 1
            acc[1] += self_ns[i]
            acc[2] += end[i] - start[i]
        return out

    def write(self, path):
        """All spans as tab-separated text, one per line, times in ns."""
        roots = self.roots()
        self_ns = self.self_ns()
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            fh.write("id\tparent\tlearn\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.root_learn[roots[i]]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i] - t0}\t"
                         f"{self.end[i] - t0}\t{self_ns[i]}\n")


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on smalearn's public functions for the block."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        wrapped = {}
        for name, owners, attr in SPANS:
            original = owners[0].__dict__[attr]
            wrapped[attr] = tracer.wrap(name, original)
            for owner in owners:
                patch(owner, attr, wrapped[attr])

        span_run, span_repair = wrapped["run"], wrapped["repair"]

        def run(self, word):
            tracer.count("automata.run.steps", len(word))
            return span_run(self, word)

        def repair(self, defect):
            tracer.count(f"obstable.repair.{defect.kind}.calls")
            return span_repair(self, defect)

        table_init = obstable.ObservationTable.__init__

        def init(self, *args, **kwargs):
            if tracer._stack:
                tracer.tables[tracer.learn_id] = self
            table_init(self, *args, **kwargs)

        patch(automata.SMealy, "run", run)
        patch(obstable.ObservationTable, "repair", repair)
        patch(obstable.ObservationTable, "__init__", init)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
