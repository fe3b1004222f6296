import csv
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from helpers import one_field_mutants
from hypothesis import given, settings

from smalearn.automata import SMealy
from smalearn.bench import make_worked_example
from smalearn.cli import STATS_COLUMNS, main
from smalearn.learner import learn
from smalearn.oracle import Oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_builtin_writes_stats_and_output(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    out = tmp_path / "learned.json"
    dot = tmp_path / "learned.dot"
    code, stdout, _ = run_cli(capsys, "learn", "--bench", "worked-example",
                              "--oracle", "lexmin", "--stats", str(stats),
                              "--out", str(out), "--dot", str(dot))
    assert code == 0
    assert "worked-example" in stdout

    with open(stats) as fh:
        rows = list(csv.DictReader(fh))
    assert [*rows[0]] == STATS_COLUMNS
    assert len(rows) == 1
    assert int(rows[0]["eq_queries"]) <= 4 + 3  # n + essential characters
    assert int(rows[0]["states"]) == 4

    learned = SMealy.load(out)
    assert learned == make_worked_example()
    assert dot.read_text().startswith("digraph")


def test_learn_lower_bound_eq_queries(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code, _, _ = run_cli(capsys, "learn", "--bench", "lower:3,3",
                         "--oracle", "lexmin", "--stats", str(stats))
    assert code == 0
    with open(stats) as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[0]["eq_queries"]) == 6


def test_learn_missing_target_is_io_error(capsys):
    code, _, err = run_cli(capsys, "learn", "--target", "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_learn_random_oracle_requires_seed(capsys):
    code, _, err = run_cli(capsys, "learn", "--bench", "worked-example",
                           "--oracle", "random")
    assert code == 2
    assert "--seed" in err


def test_random_roundtrip_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "random", "--states", "10",
                             "--essential", "10", "--seed", "1", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    stats = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "learn", "--target", str(a), "--oracle",
                         "random", "--seed", "5", "--stats", str(stats))
    assert code == 0

    learned = tmp_path / "learned.json"
    code, _, _ = run_cli(capsys, "learn", "--target", str(a), "--out", str(learned))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "equiv", str(a), str(learned))
    assert code == 0
    assert stdout.strip() == "equal"


def test_random_rejects_bad_spec(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "random", "--states", "0", "--essential", "5",
                         "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_equiv_same_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    make_worked_example().save(path)
    code, stdout, _ = run_cli(capsys, "equiv", str(path), str(path))
    assert code == 0
    assert stdout.strip() == "equal"


def test_equiv_reports_verified_witness(tmp_path, capsys):
    target = make_worked_example()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    target.save(a)
    hyp = SMealy(target.algebra, 1, 0, [], [
        (0, target.algebra.interval(0, 20), 0, "S"),
        (0, target.algebra.interval(20, None), 0, "B"),
    ])
    hyp.save(b)
    code, stdout, _ = run_cli(capsys, "equiv", str(a), str(b))
    assert code == 3
    witness = tuple(json.loads(stdout))
    assert target.run(witness) != hyp.run(witness)


def test_equiv_unreadable_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    make_worked_example().save(path)
    code, _, _ = run_cli(capsys, "equiv", str(path), str(tmp_path / "nope.json"))
    assert code == 1


def test_export_builtin(tmp_path, capsys):
    out = tmp_path / "mh.json"
    code, _, _ = run_cli(capsys, "export", "--bench", "mh", "--out", str(out))
    assert code == 0
    m = SMealy.load(out)
    assert m.n_states == 5
    assert m.validate() == []


def test_export_without_destination_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, "export", "--bench", "mh")
    assert code == 2
    assert stdout == ""
    assert err.strip().splitlines() == ["smalearn: export needs --out or --dot"]
    assert list(tmp_path.iterdir()) == []


def test_learn_trace_goes_to_stderr(capsys):
    code, stdout, err = run_cli(capsys, "learn", "--bench", "worked-example", "--trace")
    assert code == 0
    assert "counterexample" in err
    assert "counterexample" not in stdout
    # each repair line gives the kind and table sizes of the same learn's repair event, in order
    target, trace = make_worked_example(), []
    learn(Oracle(target, mode="lexmin"), target.algebra, trace=trace)
    repairs = [(e["kind"], *(str(e["sizes"][k]) for k in ("S", "R", "sigma_e", "E")))
               for e in trace if e["event"] == "repair"]
    shown = re.findall(
        r"^smalearn: repair (\w+) \|S\|=(\d+) \|R\|=(\d+) \|sigmaE\|=(\d+) \|E\|=(\d+)$",
        err, re.MULTILINE)
    assert repairs and shown == repairs
    assert len(shown) == err.count("smalearn: repair ")


# The full stderr of ``smalearn learn --bench ... --trace``, one list entry per line.
TRACE_WORKED_EXAMPLE = [
    'smalearn: hypothesis states=1',
    'smalearn: counterexample 20',
    'smalearn: repair not_output_closed |S|=1 |R|=2 |sigmaE|=2 |E|=0',
    'smalearn: hypothesis states=1',
    'smalearn: counterexample 0·0·0',
    'smalearn: repair not_consistent |S|=1 |R|=4 |sigmaE|=2 |E|=1',
    'smalearn: repair not_closed |S|=2 |R|=3 |sigmaE|=2 |E|=1',
    'smalearn: repair not_closed |S|=3 |R|=2 |sigmaE|=2 |E|=1',
    'smalearn: repair not_closed |S|=4 |R|=1 |sigmaE|=2 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=2 |sigmaE|=2 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=3 |sigmaE|=2 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=4 |sigmaE|=2 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=5 |sigmaE|=2 |E|=1',
    'smalearn: hypothesis states=4',
    'smalearn: counterexample 0·0·10·0',
    'smalearn: repair not_output_closed |S|=4 |R|=7 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=8 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=9 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=4 |R|=10 |sigmaE|=3 |E|=1',
    'smalearn: hypothesis states=4',
]
TRACE_LOWER_3_3 = [
    'smalearn: hypothesis states=1',
    'smalearn: counterexample 10',
    'smalearn: repair not_output_closed |S|=1 |R|=2 |sigmaE|=2 |E|=0',
    'smalearn: hypothesis states=1',
    'smalearn: counterexample 20',
    'smalearn: repair not_output_closed |S|=1 |R|=3 |sigmaE|=3 |E|=0',
    'smalearn: hypothesis states=1',
    'smalearn: counterexample 0·0·10',
    'smalearn: repair not_consistent |S|=1 |R|=5 |sigmaE|=3 |E|=1',
    'smalearn: repair not_closed |S|=2 |R|=4 |sigmaE|=3 |E|=1',
    'smalearn: repair not_closed |S|=3 |R|=3 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=3 |R|=4 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=3 |R|=5 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=3 |R|=6 |sigmaE|=3 |E|=1',
    'smalearn: repair not_evidence_closed |S|=3 |R|=7 |sigmaE|=3 |E|=1',
    'smalearn: hypothesis states=3',
    'smalearn: counterexample 0·0·0·0·20',
    'smalearn: repair not_consistent |S|=3 |R|=9 |sigmaE|=3 |E|=2',
    'smalearn: repair not_closed |S|=4 |R|=8 |sigmaE|=3 |E|=2',
    'smalearn: repair not_closed |S|=5 |R|=7 |sigmaE|=3 |E|=2',
    'smalearn: repair not_evidence_closed |S|=5 |R|=8 |sigmaE|=3 |E|=2',
    'smalearn: repair not_evidence_closed |S|=5 |R|=9 |sigmaE|=3 |E|=2',
    'smalearn: repair not_evidence_closed |S|=5 |R|=10 |sigmaE|=3 |E|=2',
    'smalearn: repair not_evidence_closed |S|=5 |R|=11 |sigmaE|=3 |E|=2',
    'smalearn: hypothesis states=5',
    'smalearn: counterexample 0·0·0·0·0·0·0·10',
    'smalearn: repair not_consistent |S|=5 |R|=14 |sigmaE|=3 |E|=3',
    'smalearn: repair not_closed |S|=6 |R|=13 |sigmaE|=3 |E|=3',
    'smalearn: repair not_evidence_closed |S|=6 |R|=14 |sigmaE|=3 |E|=3',
    'smalearn: repair not_evidence_closed |S|=6 |R|=15 |sigmaE|=3 |E|=3',
    'smalearn: hypothesis states=6',
]


@pytest.mark.parametrize("bench,lines", [("worked-example", TRACE_WORKED_EXAMPLE),
                                         ("lower:3,3", TRACE_LOWER_3_3)],
                         ids=["worked-example", "lower-3-3"])
def test_learn_trace_text_is_locked(capsys, bench, lines):
    code, _, err = run_cli(capsys, "learn", "--bench", bench, "--trace")
    assert code == 0
    assert err.splitlines() == lines


def test_learn_with_init_override(capsys):
    code, _, _ = run_cli(capsys, "learn", "--bench", "worked-example", "--init", "20")
    assert code == 0


@pytest.mark.parametrize("init", ["5", "true", "null", "[1]", "[1,2,3]", '{"a":1}'])
def test_init_not_a_product_character_is_one_line_exit_2(capsys, init):
    code, stdout, err = run_cli(capsys, "learn", "--bench", "mh", "--init", init)
    assert code == 2
    assert stdout == ""
    [line] = err.strip().splitlines()
    shown = repr(json.loads(init))
    assert line == f"smalearn: bad --init value: expected a list of 4 components, got {shown}"


def test_init_not_a_real_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "real.json"
    path.write_text(machine_json({"kind": "interval-real"}))
    for init, shown in [("null", "None"), ('"1.5"', "'1.5'"), ("true", "True")]:
        code, stdout, err = run_cli(capsys, "learn", "--target", str(path), "--init", init)
        assert code == 2
        assert err.strip().splitlines() == [f"smalearn: bad --init value: not a real: {shown}"]
    code, _, _ = run_cli(capsys, "learn", "--target", str(path), "--init", "2")
    assert code == 0


def test_reps_write_multiple_rows(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code, _, _ = run_cli(capsys, "learn", "--bench", "worked-example",
                         "--oracle", "random", "--seed", "7", "--reps", "3",
                         "--stats", str(stats))
    assert code == 0
    with open(stats) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [int(r["seed"]) for r in rows] == [7, 8, 9]


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_reps_below_one_rejected(tmp_path, capsys, reps):
    out = tmp_path / "learned.json"
    code, stdout, err = run_cli(capsys, "learn", "--bench", "worked-example",
                                "--reps", reps, "--out", str(out))
    assert code == 2
    assert err.strip().splitlines() == [f"smalearn: --reps must be at least 1, got {reps}"]
    assert stdout == ""
    assert not out.exists()


def machine_json(algebra, intervals=([0, None],), states=1):
    """State 0 with one self-loop per 1-D interval, all answering ``a``."""
    return json.dumps({"algebra": algebra, "states": states, "initial": 0, "outputs": ["a"],
                       "transitions": [{"from": 0, "guard": [[iv]], "to": 0, "out": "a"}
                                       for iv in intervals]})


BAD_FILES = {
    "non-utf8": b'\xff\xfe{"states": 1}',
    "algebra-number": machine_json(5).encode(),
    "component-number": machine_json({"kind": "product", "components": [5]}).encode(),
    "product-one-axis": machine_json({"kind": "product",
                                      "components": [{"kind": "interval-nat"}]}).encode(),
    "real-min-nan": machine_json({"kind": "interval-real", "min": float("nan")}).encode(),
    "real-min-minus-inf": machine_json({"kind": "interval-real", "min": float("-inf")}).encode(),
    "nat-bound-fraction": machine_json({"kind": "interval-nat", "bound": 2.5}).encode(),
    "nat-bound-bool": machine_json({"kind": "interval-nat", "bound": True}).encode(),
    "nat-upper-string": machine_json({"kind": "interval-nat"}, ([0, "5"], [5, None])).encode(),
    "real-upper-nan": machine_json({"kind": "interval-real"},
                                   ([0, float("nan")], [5, None])).encode(),
    "real-lower-beyond-float": machine_json({"kind": "interval-real"}, ([10 ** 400, None],)).encode(),
    "states-huge": machine_json({"kind": "interval-nat"}, states=10 ** 30).encode(),
    "equality-kind": machine_json({"kind": "equality"}).encode(),  # a retired algebra kind
    "product-no-components": machine_json({"kind": "product"}).encode(),
    "nat-box-two-axes": json.dumps({  # read as [0,5) and [5,inf), it would equal itself
        "algebra": {"kind": "interval-nat"}, "states": 1, "initial": 0, "outputs": ["a"],
        "transitions": [{"from": 0, "guard": [[[0, 5], [7, 9]], [[5, None]]], "to": 0,
                         "out": "a"}]}).encode(),
    "nested-too-deep": b"[" * 100000 + b"]" * 100000,
    "out-null": json.dumps({  # read as the output "None", it would equal a machine saying so
        "algebra": {"kind": "interval-nat"}, "states": 1, "initial": 0, "outputs": ["a"],
        "transitions": [{"from": 0, "guard": [[[0, None]]], "to": 0, "out": None}]}).encode(),
}


def learn_or_equiv(command, path, good):
    if command == "learn":
        return ["learn", "--target", str(path)]
    return ["equiv", str(path if command == "equiv-itself" else good), str(path)]


@pytest.mark.parametrize("command", ["learn", "equiv", "equiv-itself"])
@pytest.mark.parametrize("content", sorted(BAD_FILES))
def test_unparsable_file_is_one_line_exit_1(tmp_path, capsys, command, content):
    good, path = tmp_path / "good.json", tmp_path / "bad.json"
    make_worked_example().save(good)
    path.write_bytes(BAD_FILES[content])
    code, stdout, err = run_cli(capsys, *learn_or_equiv(command, path, good))
    assert code == 1
    assert stdout == ""
    [line] = err.strip().splitlines()
    assert line.startswith(f"smalearn: cannot parse {path}: ")


def test_init_nested_too_deep_is_one_line_exit_2(capsys):
    init = "[" * 5000 + "]" * 5000
    code, stdout, err = run_cli(capsys, "learn", "--bench", "worked-example", "--init", init)
    assert code == 2
    assert stdout == ""
    [line] = err.strip().splitlines()
    assert line.startswith("smalearn: bad --init value: maximum recursion depth exceeded")


@pytest.mark.parametrize("command", ["learn", "equiv"])
def test_huge_state_count_is_one_violation_exit_2(tmp_path, capsys, command):
    good, path = tmp_path / "good.json", tmp_path / "huge.json"
    make_worked_example().save(good)
    path.write_text(machine_json({"kind": "interval-nat"}, states=10 ** 12))
    code, stdout, err = run_cli(capsys, *learn_or_equiv(command, path, good))
    assert code == 2
    assert stdout == ""
    [line] = err.strip().splitlines()
    assert line.endswith("states 1-999999999999: uncovered region [0,inf)")


@pytest.mark.parametrize("command", ["learn", "equiv"])
def test_unreadable_file_is_one_line_exit_1(tmp_path, capsys, command):
    good, path = tmp_path / "good.json", tmp_path / "missing.json"
    make_worked_example().save(good)
    code, stdout, err = run_cli(capsys, *learn_or_equiv(command, path, good))
    assert code == 1
    assert stdout == ""
    [line] = err.strip().splitlines()
    assert line.startswith(f"smalearn: cannot read {path}: ")


@settings(max_examples=150, deadline=None)
@given(data=one_field_mutants())
def test_mutated_machine_files_exit_with_a_code_and_one_line_diagnostics(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "machine.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        for argv in (["equiv", path, path], ["learn", "--target", path]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert all(line.startswith("smalearn:") for line in err.getvalue().splitlines()), \
                err.getvalue()
