import pytest
from helpers import RescanTable

from smalearn.algebra import Algebra
from smalearn.automata import SMealy
from smalearn.bench import make_worked_example
from smalearn.obstable import Defect, ObservationTable

NAT = Algebra.naturals()


def make_table(a0=0):
    target = make_worked_example()
    return ObservationTable(NAT, target.run, a0)


def test_new_table_initial_cells():
    t = make_table(0)
    assert t.S == [()]
    assert t.R == [(0,)]
    assert t.sigma_e == [0]
    assert t.E == []
    assert t.cell((), (0,)) == "S"
    assert t.cell((0,), (0,)) == "S"
    assert t.structural_violations() == []


def test_new_table_other_start():
    t = make_table(20)
    assert t.cell((), (20,)) == "B"
    assert t.structural_violations() == []


def test_initial_table_cohesive():
    assert make_table(0).check().kind == "cohesive"


def test_output_closed_defect_after_counterexample():
    t = make_table(0)
    t.add_counterexample((20,))
    d = t.check()
    assert d.kind == "not_output_closed"
    assert d.witness == ((), 20)
    t.repair(d)
    assert t.sigma_e == [0, 20]
    assert t.cell((), (20,)) == "B"
    assert t.check().kind == "cohesive"


def test_consistency_checked_before_closedness():
    t = make_table(0)
    t.add_counterexample((20,))
    t.repair(t.check())
    t.add_counterexample((0, 0, 0))
    d = t.check()
    assert d.kind == "not_consistent"
    assert d.witness == ((), (0,), 0, (0,))
    t.repair(d)
    assert t.E == [(0, 0)]
    assert t.cell((), (0, 0)) == "S"
    assert t.cell((0,), (0, 0)) == "P"


def test_make_closed_moves_shortlex_smallest():
    t = make_table(0)
    t.add_counterexample((20,))
    t.repair(t.check())
    t.add_counterexample((0, 0, 0))
    t.repair(t.check())  # consistency
    d = t.check()
    assert d.kind == "not_closed"
    assert d.witness == ((0,),)  # 0, 0·0 and 0·0·0 all qualify; shortest wins
    t.repair(d)
    assert t.S == [(), (0,)]
    assert (0,) not in t.R


@pytest.mark.parametrize("word", [(), (20,), (0, 0, 5)], ids=["in-S", "not-in-table", "longest"])
def test_make_closed_rejects_words_outside_r(word):
    t = make_table(0)
    t.add_counterexample((0, 0, 0))
    with pytest.raises(ValueError, match="is not an R-row"):
        t.make_closed(Defect("not_closed", (word,)))
    assert t.S == [()] and t.R == [(0,), (0, 0), (0, 0, 0)]


def test_counterexample_prefixes_inserted_shortest_first():
    t = make_table(0)
    t.add_counterexample((0, 0, 0))
    assert t.R == [(0,), (0, 0), (0, 0, 0)]
    before = list(t.R)
    t.add_counterexample((0, 0))  # entirely present already
    assert t.R == before
    with pytest.raises(ValueError):
        t.add_counterexample(())


def test_evidence_closure_adds_missing_word():
    t = make_table(0)
    t.add_counterexample((20,))
    t.repair(t.check())
    t.add_counterexample((0, 0, 0))
    while t.check().kind in ("not_consistent", "not_closed"):
        t.repair(t.check())
    d = t.check()
    assert d.kind == "not_evidence_closed"
    assert d.witness == ((0,), 20)
    t.repair(d)
    assert (0, 20) in t.R
    assert t.structural_violations() == []


def test_new_row_moves_cached_inconsistency_witness():
    # outputs x, x, y in turn whatever the input, so rows repeat with period 3
    top = NAT.top()
    counter = SMealy(NAT, 3, 0, [], [(0, top, 1, "x"), (1, top, 2, "x"), (2, top, 0, "y")])
    t = ObservationTable(NAT, counter.run, 0)
    t.add_counterexample((3, 3, 3, 3, 0))
    assert t.check() == Defect("not_consistent", ((), (3,), 3, (0,)))
    # (0,) joins the group of (), 0 ahead of (3, 3, 3, 3), whose witness was cached
    t.add_counterexample((0, 0))
    assert t.check() == Defect("not_consistent", ((), (0,), 0, (0,)))
    assert t.check() == RescanTable(t).check()


def test_repair_requires_matching_defect():
    t = make_table(0)
    with pytest.raises(ValueError):
        t.repair(t.check())  # cohesive


def test_structural_invariants_after_every_repair():
    t = make_table(0)
    for cex in [(20,), (0, 0, 0), (0, 0, 10, 0)]:
        t.add_counterexample(cex)
        assert t.structural_violations() == []
        while (d := t.check()).kind != "cohesive":
            t.repair(d)
            assert t.structural_violations() == []
    # after cohesion every character used anywhere is in sigma_e
    chars = {a for w in t.words() + t.E for a in w}
    assert chars <= set(t.sigma_e)
    # reduced: distinct S rows
    rows = [t.row(s) for s in t.S]
    assert len(set(rows)) == len(rows)


def test_cells_match_target_outputs():
    target = make_worked_example()
    t = make_table(0)
    for cex in [(20,), (0, 0, 0)]:
        t.add_counterexample(cex)
        while (d := t.check()).kind != "cohesive":
            t.repair(d)
    for w in t.words():
        for col in t.columns():
            assert t.cell(w, col) == target.run(w + col)


def test_cells_is_a_read_only_view_of_the_rows():
    t = make_table(0)
    for cex in [(20,), (0, 0, 0)]:
        t.add_counterexample(cex)
        while (d := t.check()).kind != "cohesive":
            t.repair(d)
    cells = t.cells
    with pytest.raises(TypeError):
        cells[((), (0,))] = "X"
    with pytest.raises(AttributeError):
        t.cells = {}
    assert len(cells) == len(t.words()) * len(t.columns())
    assert cells == t.snapshot()["cells"]
    assert all(cells[(w, col)] == t.cell(w, col) for w in t.words() for col in t.columns())


@pytest.mark.parametrize("answer", [1, None, b"S", ("S",)], ids=repr)
def test_output_query_answers_must_be_strings(answer):
    """An answer is never stored as its text: ``1`` is not the output ``"1"``."""
    with pytest.raises(TypeError, match=r"^output query \(0,\) answered .*, not a string$"):
        ObservationTable(NAT, lambda w: answer, 0)
