"""Behaviour lock: query counts, table sizes and counterexample digests of fixed learns.

Each case in ``behaviour_lock.json`` names a target, the teacher's mode and
seed, and optionally the equivalence query at which the learn is stopped.
Its record must match exactly, so a change that moves any of these numbers
shows up here.  ``cex_digest`` hashes the counterexamples in the order they
were served, as the benchmark harness does.  Running this file as a script
prints the records of the current code in the file's format.

``SERIALIZATION_DIGESTS`` locks the JSON form of builtin and learned
machines, guards in their box order included.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from smalearn import learner, oracle
from smalearn.bench import RandomSpec, make_builtin, random_sma
from smalearn.oracle import Oracle

LOCK = Path(__file__).with_name("behaviour_lock.json")
CASES = json.loads(LOCK.read_text())


class Stopped(Exception):
    """The learn reached the equivalence query it is stopped at."""


class Recorder:
    """Teacher wrapper that keeps the counterexamples and stops at query ``stop_at``."""

    def __init__(self, oracle, stop_at):
        self.oracle, self.output, self.stop_at = oracle, oracle.output, stop_at
        self.eq = 0
        self.counterexamples = []

    def output_query(self, word):
        return self.oracle.output_query(word)

    def equivalence_query(self, hyp):
        self.eq += 1
        if self.eq == self.stop_at:
            raise Stopped
        cex = self.oracle.equivalence_query(hyp)
        if cex is not None:
            self.counterexamples.append(tuple(cex))
        return cex


def build_target(spec):
    if isinstance(spec, str):
        return make_builtin(spec)
    n, k, seed = spec["random"]
    return random_sma(RandomSpec(n=n, k=k, seed=seed))


def record(case) -> dict:
    target = build_target(case["target"])
    teacher = Recorder(Oracle(target, mode=case["mode"], seed=case.get("oracle_seed")),
                       case.get("stop_at"))
    tables = []

    class KeptTable(learner.ObservationTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    with mock.patch.object(learner, "ObservationTable", KeptTable):
        try:
            learner.learn(teacher, target.algebra)
        except Stopped:
            pass
    table, = tables
    return {"eq": teacher.eq, "oq": teacher.output.distinct_queries,
            "oq_total": teacher.output.total_queries, "R": len(table.R), "E": len(table.E),
            "sigma_e": len(table.sigma_e),
            "cex_digest": hashlib.sha256(repr(teacher.counterexamples).encode()).hexdigest()[:16]}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_behaviour_matches_lock(case):
    assert record(case) == case["expect"]


@pytest.mark.parametrize("name", ["mh-lexmin", "mh-random-1", "atgs-lexmin-stop-25"])
def test_each_compiled_table_is_stepped_once_per_equivalence_oracle(name, monkeypatch):
    """The equivalence teacher steps a state's compiled table once for its whole life, not
    once per state pair or query, and serves the locked counterexamples."""
    case, stepped = next(c for c in CASES if c["name"] == name), []
    steps = oracle._steps
    monkeypatch.setattr(oracle, "_steps",
                        lambda m, q, chars: stepped.append(m._tables[q]) or steps(m, q, chars))
    assert record(case) == case["expect"]
    assert stepped and len(stepped) == len(set(stepped))


def test_the_row_memo_stays_off_the_target():
    """The rows live in one Oracle: the target gains no attribute, and a second Oracle on it
    starts empty and serves the same counterexamples and rng states, in order."""
    target = make_builtin("mh")

    def served(teacher):
        log = []

        def equivalence_query(hyp):
            log.append((teacher.equivalence_query(hyp), teacher.equiv.rng.getstate()))
            return log[-1][0]
        proxy = SimpleNamespace(output_query=teacher.output_query,
                                equivalence_query=equivalence_query)
        learner.learn(proxy, target.algebra)
        return log

    first = Oracle(target, mode="random", seed=1)
    keys, setup = list(vars(target)), target._oracle_setup
    log = served(first)
    assert list(vars(target)) == keys and target._oracle_setup is setup
    assert len(log) > 2 and first.equiv._rows
    second = Oracle(target, mode="random", seed=1)
    assert second.equiv._rows == {}
    assert served(second) == log


# (builtin name or random spec, teacher mode or None for the builtin itself,
# oracle seed) -> sha256(json.dumps(machine.to_json(), sort_keys=True))[:16]
SERIALIZATION_DIGESTS = [
    ("mh", None, None, "611abb6cf6442639"),
    ("atgs", None, None, "92aa2ed7d414699b"),
    ("worked-example", None, None, "2eeba16b676ff44a"),
    ("lower:5,10", None, None, "9177e8927814e85f"),
    ("mh", "lexmin", None, "d5b961ce74cde16a"),
    ("mh", "random", 1, "d5b961ce74cde16a"),
    ("mh", "random", 2, "7b0bea0760d66222"),
    ("mh", "random", 3, "d5b961ce74cde16a"),
    ({"random": [10, 10, 1]}, "random", 1, "9b027c2543799f32"),
]


@pytest.mark.parametrize("spec,mode,seed,digest", SERIALIZATION_DIGESTS,
                         ids=lambda v: json.dumps(v) if isinstance(v, dict) else str(v))
def test_serialization_matches_lock(spec, mode, seed, digest):
    machine = build_target(spec)
    if mode is not None:
        machine, _ = learner.learn(Oracle(machine, mode=mode, seed=seed), machine.algebra)
    text = json.dumps(machine.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


if __name__ == "__main__":
    for case in CASES:
        case["expect"] = record(case)
    json.dump(CASES, sys.stdout, indent=1)
    print()
