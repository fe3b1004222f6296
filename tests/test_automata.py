import itertools
import json
import math
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from helpers import (
    GUARD_ALGEBRAS,
    INCOMPLETE_WORKED_EXAMPLES,
    JSON_VALUES,
    domain_chars,
    endpoint_grid,
    first_match_node_by_member,
    mutants,
    one_field_mutants,
    sym_machines,
    symbolic_equiv_pairwise,
    validate_pairwise,
    worked_example_without,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from smalearn.algebra import Algebra, AlgebraError, _first_match_node
from smalearn.automata import (
    AutomatonError,
    ConcreteMealy,
    SMealy,
    restrict,
    symbolic_equiv,
)
from smalearn.bench import make_builtin, make_worked_example
from smalearn.oracle import essential_characters

NAT = Algebra.naturals()


@pytest.fixture(scope="module")
def target():
    return make_worked_example()


def one_state(*transitions, outputs=()):
    return SMealy(NAT, 1, 0, outputs, [(0, g, 0, o) for g, o in transitions])


def hyp_after_two_rounds():
    return one_state((NAT.interval(0, 20), "S"), (NAT.interval(20, None), "B"))


def test_validate_target(target):
    assert target.validate() == []
    assert target.n_states == 4
    assert len(target.transitions) == 7


def test_same_target_output_transitions_merge():
    m = one_state((NAT.interval(0, 10), "x"), (NAT.interval(5, None), "x"))
    assert m.validate() == []
    assert len(m.transitions) == 1
    assert m.transitions[0].guard == NAT.top()


def test_validate_incomplete():
    m = one_state((NAT.interval(0, 10), "x"))
    violations = m.validate()
    assert len(violations) == 1
    assert violations[0].kind == "incomplete"
    assert violations[0].detail[0] == NAT.interval(10, None)


def test_validate_overlap():
    m = SMealy(NAT, 2, 0, [], [
        (0, NAT.interval(0, 10), 0, "x"),
        (0, NAT.interval(5, None), 1, "x"),
        (1, NAT.interval(0, None), 1, "y"),
    ])
    kinds = {v.kind for v in m.validate()}
    assert "overlap" in kinds


def test_step_examples(target):
    assert target.step(0, 20) == (0, "B")
    assert target.step(2, 10) == (1, "P")
    assert target.step(3, 0) == (0, "P")


def test_run_examples(target):
    assert target.run((0, 0, 0)) == "P"
    assert target.run((0,)) == "S"
    assert target.run((0, 0, 10, 0)) == "S"
    with pytest.raises(AutomatonError):
        target.run(())


def test_symbolic_equiv_reflexive(target):
    assert symbolic_equiv(target, target) is None
    assert symbolic_equiv(make_worked_example(), target) is None


def test_symbolic_equiv_mismatch_is_verified(target):
    hyp = hyp_after_two_rounds()
    w = symbolic_equiv(target, hyp)
    assert w is not None
    assert target.run(w) != hyp.run(w)


def test_restrict_agrees_exhaustively(target):
    conc = restrict(target, {0, 10, 20})
    assert conc.n_states == 4
    for length in range(1, 6):
        for word in itertools.product((0, 10, 20), repeat=length):
            assert conc.run(word) == target.run(word)
    assert conc.run((0, 0, 0)) == "P"


def test_restrict_single_char():
    m = one_state((NAT.top(), "z"))
    conc = restrict(m, {7})
    assert conc.n_states == 1
    assert conc.run((7, 7)) == "z"
    with pytest.raises(AutomatonError):
        restrict(m, set())


def test_restrict_reports_missing_transition():
    m = one_state((NAT.interval(0, 10), "x"))
    with pytest.raises(AutomatonError, match=r"^no transition from state 0 on 12$"):
        restrict(m, {3, 12})


def test_run_matches_restriction_on_samples(target):
    rng = random.Random(5)
    for _ in range(50):
        word = tuple(rng.choice((0, 5, 10, 15, 20, 25)) for _ in range(rng.randrange(1, 7)))
        conc = restrict(target, set(word))
        assert target.run(word) == conc.run(word)


def random_nat_sma(rng, max_states=3, boundaries=(10, 20)):
    n = rng.randrange(1, max_states + 1)
    cuts = sorted(rng.sample(boundaries, rng.randrange(0, len(boundaries) + 1)))
    blocks = []
    lo = 0
    for c in cuts:
        blocks.append(NAT.interval(lo, c))
        lo = c
    blocks.append(NAT.interval(lo, None))
    trans = []
    for q in range(n):
        for b in blocks:
            trans.append((q, b, rng.randrange(n), rng.choice("xyz")))
    return SMealy(NAT, n, 0, [], trans)


def test_symbolic_equiv_agrees_with_bounded_enumeration():
    rng = random.Random(77)
    machines = [random_nat_sma(rng) for _ in range(8)]
    alphabet = (0, 10, 20, 25)

    def brute_mismatch(m1, m2, max_len=7):
        def go(q1, q2, depth):
            for a in alphabet:
                p1, o1 = m1.step(q1, a)
                p2, o2 = m2.step(q2, a)
                if o1 != o2:
                    return True
                if depth > 1 and go(p1, p2, depth - 1):
                    return True
            return False

        return go(m1.initial, m2.initial, max_len)

    for m1 in machines:
        for m2 in machines:
            w = symbolic_equiv(m1, m2)
            if w is None:
                assert not brute_mismatch(m1, m2)
            else:
                assert m1.run(w) != m2.run(w)


def test_json_roundtrip(target):
    again = SMealy.from_json(target.to_json())
    assert again == target


def test_json_renumbers_initial():
    data = {
        "algebra": {"kind": "interval-nat"},
        "states": 2,
        "initial": 1,
        "outputs": ["a", "b"],
        "transitions": [
            {"from": 1, "guard": [[[0, None]]], "to": 0, "out": "a"},
            {"from": 0, "guard": [[[0, None]]], "to": 1, "out": "b"},
        ],
    }
    m = SMealy.from_json(data)
    assert m.initial == 0
    assert m.run((3,)) == "a"
    assert m.run((3, 4)) == "b"


def test_file_roundtrip(tmp_path, target):
    path = tmp_path / "m.json"
    target.save(path)
    assert SMealy.load(path) == target


def test_dot_export(target):
    dot = target.to_dot()
    assert dot.startswith("digraph")
    assert "q0 -> q1" in dot
    assert "| S" in dot


def test_dot_labels_escape_quotes_and_backslashes():
    dot = one_state((NAT.interval(0, 5), 'a"b'), (NAT.interval(5, None), "x\\")).to_dot()
    assert '[label="[0,5) | a\\"b"];' in dot
    assert '[label="[5,inf) | x\\\\"];' in dot
    for line in dot.splitlines():  # with escape pairs dropped, every string is closed
        assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line


def test_bottom_guard_rejected():
    with pytest.raises(AutomatonError):
        one_state((NAT.bottom(), "x"))


def test_concrete_requires_totality():
    with pytest.raises(AutomatonError):
        ConcreteMealy((0, 1), [[(0, "x")]], 0, [])


@pytest.mark.parametrize("alphabet,rows,initial,message", [
    ((), [], 0, "alphabet must be non-empty"),
    ((5, 0), [[(0, "x"), (0, "y")]], 0, "alphabet must be strictly ascending"),
    ((0, 0), [[(0, "x"), (0, "y")]], 0, "alphabet must be strictly ascending"),
    ((0, 5), [[(0, "x"), (0, "y")], [(0, "x")]], 0, "state 1 has 1 transitions, not 2"),
    ((0, 5), [[(0, "x"), (1, "y")]], 0, r"\(0, 5\) to 1: state out of range"),
    ((0, 5), [[(0, "x"), (0, "y")]], 1, "bad state count or initial state"),
], ids=["empty-alphabet", "unsorted", "duplicate", "ragged", "successor", "initial"])
def test_concrete_rejects_malformed_rows(alphabet, rows, initial, message):
    with pytest.raises(AutomatonError, match=f"^{message}$"):
        ConcreteMealy(alphabet, rows, initial, [])


def test_concrete_rows_step_run_and_outputs():
    m = ConcreteMealy((0, 5), [[(1, "b"), (0, "a")], [(1, "c"), (0, "b")]], 0, ["a"])
    assert m.n_states == 2 and m.outputs == ("a", "b", "c")  # declared, then the rows' in order
    assert m.step(1, 5) == (0, "b") and m.run((0, 0, 5)) == "b"
    for q, a in ((0, 3), (2, 0), (-1, 0)):
        with pytest.raises(AutomatonError, match=rf"^no transition \({q}, {a}\)$"):
            m.step(q, a)
    assert m == ConcreteMealy([0, 5], (((1, "b"), (0, "a")), ((1, "c"), (0, "b"))), 0, [])
    assert m != ConcreteMealy((0, 5), m.rows, 1, ["a"])


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_steps_like_the_machine(kind, data):
    """Every state of a restriction steps each character as the symbolic machine does."""
    alg = GUARD_ALGEBRAS[kind]
    m = data.draw(sym_machines(alg, valid=True))
    grid = endpoint_grid(alg, [t.guard for t in m.transitions])
    chars = data.draw(st.lists(st.one_of(st.sampled_from(grid), domain_chars(alg)),
                               min_size=1, max_size=8))
    conc = restrict(m, chars)
    assert conc.alphabet == tuple(sorted({alg.norm_char(a) for a in chars}))
    assert (conc.n_states, conc.initial, conc.outputs) == (m.n_states, m.initial, m.outputs)
    for q in range(m.n_states):
        for a in chars:
            assert conc.step(q, alg.norm_char(a)) == m.step(q, a)


def two_state_data(**changes):
    data = {
        "algebra": {"kind": "interval-nat"},
        "states": 2,
        "initial": 0,
        "outputs": ["a", "b"],
        "transitions": [
            {"from": 0, "guard": [[[0, None]]], "to": 1, "out": "a"},
            {"from": 1, "guard": [[[0, None]]], "to": 0, "out": "b"},
        ],
    }
    data.update(changes)
    return data


def assert_one_line_error(data, match):
    with pytest.raises(AutomatonError, match=match) as info:
        SMealy.from_json(data)
    assert "\n" not in str(info.value)


def test_json_initial_out_of_range_reported_as_initial():
    assert_one_line_error(two_state_data(initial=5), r"^initial state 5 out of range$")


def test_json_transition_endpoint_out_of_range():
    data = two_state_data(initial=1)
    data["transitions"][0]["to"] = 7
    assert_one_line_error(data, r"^transition state out of range: 0->7$")


def test_json_transition_without_output():
    data = two_state_data()
    del data["transitions"][1]["out"]
    assert_one_line_error(data, r"malformed transition 1: .*'out'")


def test_json_guard_of_bare_numbers():
    data = two_state_data()
    data["transitions"][0]["guard"] = [[1]]
    assert_one_line_error(data, r"malformed transition 0")


@pytest.mark.parametrize("out,outputs,message", [
    (None, ["a", "b"], r"^transition 1 'out' must be a string, got None$"),
    ([1, {"x": 2}], ["a", "b"], r"^transition 1 'out' must be a string, got \[1, \{'x': 2\}\]$"),
    (5, ["a", "b"], r"^transition 1 'out' must be a string, got 5$"),
    ("b", [None, 3.5], r"^outputs entry 0 must be a string, got None$"),
    ("b", ["a", 3.5], r"^outputs entry 1 must be a string, got 3.5$"),
], ids=["out-null", "out-list", "out-number", "outputs-null", "outputs-number"])
def test_json_outputs_must_be_strings(out, outputs, message):
    data = two_state_data(outputs=outputs)
    data["transitions"][1]["out"] = out
    assert_one_line_error(data, message)


@pytest.mark.parametrize("outputs,out,message", [
    ([], None, r"^output of transition 0->0 must be a string, got None$"),
    ([], 1, r"^output of transition 0->0 must be a string, got 1$"),
    (["a", None], "a", r"^outputs entry 1 must be a string, got None$"),
], ids=["out-none", "out-int", "declared-none"])
def test_machine_outputs_must_be_strings(outputs, out, message):
    """Outputs are never another value's text: ``None`` is not the output ``"None"``."""
    with pytest.raises(AutomatonError, match=message):
        SMealy(NAT, 1, 0, outputs, [(0, NAT.top(), 0, out)])


@pytest.mark.parametrize("key", ["outputs", "transitions"])
def test_json_non_list_fields(key):
    assert_one_line_error(two_state_data(**{key: 5}), r"^outputs and transitions must be lists$")


@pytest.mark.parametrize("field,value", [
    ("states", 2.7), ("states", True), ("states", "2"),
    ("initial", 0.0), ("initial", False),
    ("from", 1.5), ("from", True), ("to", 1.5), ("to", None),
])
def test_json_state_numbers_must_be_integers(field, value):
    data = two_state_data()
    if field in ("from", "to"):
        data["transitions"][1][field] = value
    else:
        data[field] = value
    assert_one_line_error(data, "must be an integer, got " + re.escape(repr(value)))


NOT_AN_OBJECT = "must be an object"
BAD_MIN = "'min' must be a finite number"
BAD_BOUND = "'bound' must be null or an integer >= 1"
NO_COMPONENTS = "'components' must be a list"


@pytest.mark.parametrize("descriptor,message", [
    pytest.param(5, NOT_AN_OBJECT, id="5"),
    pytest.param([], NOT_AN_OBJECT, id="descriptor1"),
    pytest.param("interval-nat", NOT_AN_OBJECT, id="interval-nat"),
    pytest.param({"kind": "product", "components": [5]}, NOT_AN_OBJECT, id="descriptor3"),
    pytest.param({"kind": "product", "components": [{"kind": "interval-nat"}, ["interval-real"]]},
                 NOT_AN_OBJECT, id="descriptor4"),
    pytest.param({"kind": "interval-real", "min": math.nan}, BAD_MIN, id="min-nan"),
    pytest.param({"kind": "interval-real", "min": -math.inf}, BAD_MIN, id="min-minus-inf"),
    pytest.param({"kind": "interval-real", "min": math.inf}, BAD_MIN, id="min-inf"),
    pytest.param({"kind": "interval-real", "min": 10**400}, BAD_MIN, id="min-overflows-float"),
    pytest.param({"kind": "interval-real", "min": True}, BAD_MIN, id="min-bool"),
    pytest.param({"kind": "interval-real", "min": "0"}, BAD_MIN, id="min-string"),
    pytest.param({"kind": "interval-real", "min": None}, BAD_MIN, id="min-null"),
    pytest.param({"kind": "interval-nat", "bound": 2.5}, BAD_BOUND, id="bound-fraction"),
    pytest.param({"kind": "interval-nat", "bound": 2.0}, BAD_BOUND, id="bound-float"),
    pytest.param({"kind": "interval-nat", "bound": True}, BAD_BOUND, id="bound-bool"),
    pytest.param({"kind": "interval-nat", "bound": "x"}, BAD_BOUND, id="bound-string"),
    pytest.param({"kind": "interval-nat", "bound": 0}, BAD_BOUND, id="bound-zero"),
    pytest.param({"kind": "product", "components": [{"kind": "interval-nat", "bound": -1}]},
                 BAD_BOUND, id="bound-negative-in-product"),
    pytest.param({"kind": "product"}, NO_COMPONENTS, id="components-missing"),
    pytest.param({"kind": "product", "components": 5}, NO_COMPONENTS, id="components-number"),
    pytest.param({"kind": "product", "components": None}, NO_COMPONENTS, id="components-null"),
])
def test_algebra_descriptor_must_be_an_object(descriptor, message):
    with pytest.raises(AlgebraError, match="^algebra descriptor " + re.escape(message)):
        Algebra.from_json(descriptor)
    assert_one_line_error(two_state_data(algebra=descriptor), re.escape(message))


def test_algebra_descriptor_accepts_integer_min_and_bound():
    assert Algebra.from_json({"kind": "interval-real", "min": -5}) == Algebra.reals(-5.0)
    assert Algebra.from_json({"kind": "interval-nat", "bound": 1}) == Algebra.naturals(bound=1)
    assert Algebra.from_json({"kind": "interval-nat", "bound": None}) == Algebra.naturals()


def upper_endpoint_data(kind, upper):
    """Guards [0, upper) and [5, inf) of one state, read from JSON text with ``upper`` in it."""
    return json.loads(
        f'{{"algebra": {{"kind": "{kind}"}}, "states": 1, "initial": 0, "outputs": ["a"], '
        f'"transitions": [{{"from": 0, "guard": [[[0, {upper}]]], "to": 0, "out": "a"}}, '
        f'{{"from": 0, "guard": [[[5, null]]], "to": 0, "out": "a"}}]}}')


@pytest.mark.parametrize("kind,upper", [
    ("interval-nat", '"5"'), ("interval-nat", "true"), ("interval-nat", "false"),
    ("interval-nat", "5.5"), ("interval-nat", "NaN"), ("interval-nat", "Infinity"),
    ("interval-nat", "[5]"),
    ("interval-real", '"nan"'), ("interval-real", '"5"'), ("interval-real", "true"),
    ("interval-real", "NaN"), ("interval-real", "Infinity"), ("interval-real", "-Infinity"),
    ("interval-real", "1e400"),
])
def test_json_upper_endpoint_needs_the_axis_type(kind, upper):
    with pytest.raises(AlgebraError, match="^upper endpoint is not a"):
        SMealy.from_json(upper_endpoint_data(kind, upper))


@pytest.mark.parametrize("kind,upper,want", [
    ("interval-nat", "5", 5), ("interval-nat", "5.0", 5), ("interval-nat", '{"na": 4}', 5),
    ("interval-real", "5", 5.0), ("interval-real", "2.5", 2.5),
])
def test_json_upper_endpoint_of_the_axis_type_loads(kind, upper, want):
    m = SMealy.from_json(upper_endpoint_data(kind, upper))
    assert m.transitions[0].guard == m.algebra.union(m.algebra.interval(0, want),
                                                     m.algebra.interval(5, None))


def test_json_upper_endpoint_may_lie_at_the_bound():
    data = upper_endpoint_data("interval-nat", "8")
    data["algebra"]["bound"] = 8
    assert SMealy.from_json(data).transitions[0].guard == Algebra.naturals(bound=8).top()


@pytest.mark.parametrize("guard", [[[[10 ** 400, None]]], [[[-10 ** 400, None]]],
                                   [[[0, {"na": 10 ** 400}]]]])
def test_json_real_endpoint_beyond_a_float_is_rejected(guard):
    data = upper_endpoint_data("interval-real", "null")
    data["transitions"][0]["guard"] = guard
    with pytest.raises(AlgebraError, match="^real characters must be finite"):
        SMealy.from_json(data)


@settings(max_examples=500, deadline=None)
@given(data=st.one_of(JSON_VALUES, one_field_mutants()))
def test_any_json_value_loads_or_raises_a_domain_error(data):
    try:
        SMealy.from_json(data)
    except (AutomatonError, AlgebraError):
        pass


# -- compiled guards: step against a linear first-match scan ------------------


def reference_step(m, q, a):
    """The first stored transition of ``q`` whose guard denotes ``a``."""
    hit = next(((tr.target, tr.output) for tr in m.state_transitions(q)
                if m.algebra.denotes(tr.guard, a)), None)
    if hit is None:
        raise AutomatonError(f"no transition from state {q}")
    return hit


def assert_steps_match(m, chars):
    for q in range(m.n_states):
        for a in chars:
            try:
                expected = reference_step(m, q, a)
            except AutomatonError:
                with pytest.raises(AutomatonError, match=f"^no transition from state {q} on "):
                    m.step(q, a)
            else:
                assert m.step(q, a) == expected, (q, a)


BUILTINS = {name: make_builtin(name) for name in ("atgs", "mh", "worked-example")}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_step_matches_first_match_scan_on_builtins(name):
    m = BUILTINS[name]
    chars = endpoint_grid(m.algebra, [tr.guard for tr in m.transitions])
    assert set(essential_characters(m)) <= set(chars)
    assert_steps_match(m, chars)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILTINS)), st.data())
def test_step_matches_first_match_scan_on_builtin_points(name, data):
    m = BUILTINS[name]
    assert_steps_match(m, data.draw(st.lists(domain_chars(m.algebra), min_size=1, max_size=20)))


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_step_matches_first_match_scan_on_generated_machines(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    m = data.draw(sym_machines(alg))
    extra = data.draw(st.lists(domain_chars(alg), max_size=10))
    assert_steps_match(m, endpoint_grid(alg, [tr.guard for tr in m.transitions]) + extra)


INTERVAL_GUARDS = ["interval-nat", "interval-nat-bounded", "interval-real"]
ORDERED_GUARDS = sorted(GUARD_ALGEBRAS)


@pytest.mark.parametrize("kind", INTERVAL_GUARDS + ["product-2", "product-3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_symbolic_equiv_matches_pairwise_reference(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    m1 = data.draw(sym_machines(alg, valid=True))
    m2 = data.draw(st.one_of(sym_machines(alg, valid=True), mutants(m1)))
    assert symbolic_equiv(m1, m2) == symbolic_equiv_pairwise(m1, m2)
    assert symbolic_equiv(m2, m1) == symbolic_equiv_pairwise(m2, m1)


def test_symbolic_equiv_takes_transition_pairs_in_stored_order():
    # the pair (x-guard, z-guard) meets at 5, after (y-guard, x-guard) at 2, but comes first
    m1 = one_state((NAT.union(NAT.interval(0, 2), NAT.interval(5, None)), "x"),
                   (NAT.interval(2, 5), "y"))
    m2 = one_state((NAT.interval(0, 5), "x"), (NAT.interval(5, None), "z"))
    assert symbolic_equiv(m1, m2) == symbolic_equiv_pairwise(m1, m2) == (5,)


def test_symbolic_equiv_rejects_overlapping_interval_guards():
    overlapping = one_state((NAT.interval(0, 10), "S"), (NAT.interval(5, None), "B"))
    assert [v.kind for v in overlapping.validate()] == ["overlap"]
    for m1, m2 in ((overlapping, one_state((NAT.top(), "S"))),
                   (one_state((NAT.top(), "S")), overlapping)):
        with pytest.raises(AutomatonError, match=r"^state 0 has overlapping guards$"):
            symbolic_equiv(m1, m2)


def test_symbolic_equiv_rejects_overlapping_product_guards():
    alg = GUARD_ALGEBRAS["product-2"]
    overlapping = SMealy(alg, 1, 0, [], [(0, alg.box((0, 5), (-5.0, None)), 0, "S"),
                                         (0, alg.box((3, None), (0.0, None)), 0, "B"),
                                         (0, alg.box((0, 3), (-5.0, 0.0)), 0, "B")])
    assert [v.kind for v in overlapping.validate()] == ["overlap", "incomplete"]
    whole = SMealy(alg, 1, 0, [], [(0, alg.top(), 0, "S")])
    for m1, m2 in ((overlapping, whole), (whole, overlapping)):
        with pytest.raises(AutomatonError, match=r"^state 0 has overlapping guards$"):
            symbolic_equiv(m1, m2)


@pytest.mark.parametrize("name", sorted(INCOMPLETE_WORKED_EXAMPLES))
def test_symbolic_equiv_rejects_a_reached_incomplete_state(target, name):
    state, lo, word, message = INCOMPLETE_WORKED_EXAMPLES[name]
    incomplete = worked_example_without(state, lo)
    assert [(v.state, v.kind) for v in incomplete.validate()] == [(state, "incomplete")]
    target.run(word)
    with pytest.raises(AutomatonError, match=f"^{message}$"):
        incomplete.run(word)
    for m1, m2 in ((incomplete, target), (target, incomplete)):
        with pytest.raises(AutomatonError, match=f"^{message}$"):
            symbolic_equiv(m1, m2)


def test_symbolic_equiv_rejects_an_uncovered_product_cell():
    alg = GUARD_ALGEBRAS["product-2"]
    whole = SMealy(alg, 1, 0, [], [(0, alg.top(), 0, "S")])
    holed = SMealy(alg, 1, 0, [], [(0, alg.box((0, None), (-5.0, 0.0)), 0, "S"),
                                   (0, alg.box((3, None), (0.0, None)), 0, "S")])
    assert [v.kind for v in holed.validate()] == ["incomplete"]
    for m1, m2 in ((holed, whole), (whole, holed)):
        with pytest.raises(AutomatonError, match=r"^no transition from state 0 on \(0,0\)$"):
            symbolic_equiv(m1, m2)


def test_symbolic_equiv_ignores_unreached_incomplete_states(target):
    trs = [(t.source, t.guard, t.target, t.output) for t in target.transitions]
    # state 4 covers only [0, 10) and state 5 has no transitions; neither is reachable
    extra = SMealy(NAT, 6, 0, target.outputs, trs + [(4, NAT.interval(0, 10), 5, "S")])
    assert [(v.state, v.kind) for v in extra.validate()] == [(4, "incomplete"), (5, "incomplete")]
    assert symbolic_equiv(extra, target) is None
    assert symbolic_equiv(target, extra) is None


@pytest.mark.parametrize("kind", ORDERED_GUARDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_match_tables_match_membership_reference(kind, data):
    alg = GUARD_ALGEBRAS[kind]
    m = data.draw(sym_machines(alg))
    axes = alg.components if alg.kind == "product" else (alg,)
    for q in range(m.n_states):
        trs = m.state_transitions(q)
        items = [(i, box) for i, tr in enumerate(trs)
                 for box in (tr.guard.boxes if alg.kind == "product" else [(tr.guard,)])]
        values = [(tr.target, tr.output) for tr in trs]
        rows = [tuple(box) + (i,) for i, box in items]
        assert _first_match_node(axes, rows, values, set()) == \
            first_match_node_by_member(axes, items, values)


def state_by_state(violations):
    """``violations`` with each run of states without transitions listed state by state."""
    return [replace(v, state=q, last=None) for v in violations
            for q in range(v.state, (v.state if v.last is None else v.last) + 1)]


@pytest.mark.parametrize("kind", sorted(GUARD_ALGEBRAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_matches_pairwise_reference(kind, data):
    m = data.draw(sym_machines(GUARD_ALGEBRAS[kind]))
    assert state_by_state(m.validate()) == validate_pairwise(m)


@pytest.mark.parametrize("kind", ORDERED_GUARDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_roundtrip_of_generated_machines(kind, data):
    m = data.draw(sym_machines(GUARD_ALGEBRAS[kind], valid=data.draw(st.booleans())))
    assert SMealy.from_json(json.loads(json.dumps(m.to_json()))) == m


@pytest.mark.parametrize("kind,bad", [
    ("interval-nat", -1), ("interval-nat", 2.5), ("interval-nat", True),
    ("interval-nat-bounded", 8), ("interval-real", -5.5), ("interval-real", float("inf")),
    ("product-2", (0, -6.0)), ("product-2", (-1, 0.0)), ("product-2", (0,)),
    ("product-3", (3, 0.0, 0)),
])
def test_out_of_domain_character_raises_algebra_error(kind, bad):
    alg = GUARD_ALGEBRAS[kind]
    m = SMealy(alg, 1, 0, [], [(0, alg.top(), 0, "x")])
    with pytest.raises(AlgebraError):
        m.step(0, bad)
    with pytest.raises(AlgebraError):
        restrict(m, [bad])
    with pytest.raises(AlgebraError):
        alg.denotes(alg.top(), bad)


def unused_states_data(states):
    top = NAT.pred_to_json(NAT.top())
    return {"algebra": NAT.to_json(), "states": states, "initial": 0, "outputs": ["o"],
            "transitions": [{"from": 0, "guard": top, "to": 0, "out": "o"}]}


def test_states_without_transitions_cost_no_table_each():
    tracemalloc.start()
    try:
        m = SMealy.from_json(unused_states_data(10 ** 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"loading took {peak / 2 ** 20:.2f} MiB"
    assert m.n_states == 10 ** 6
    assert m.step(0, 5) == (0, "o")
    assert m.state_transitions(999_999) == ()
    with pytest.raises(AutomatonError, match=r"^no transition from state 999999 on 5$"):
        m.step(999_999, 5)
    with pytest.raises(AutomatonError, match=r"^no transition from state 1 on 0$"):
        restrict(m, [0, 5])


def test_states_without_transitions_reported_incomplete():
    m = SMealy.from_json(unused_states_data(3))
    assert [(v.state, v.kind, v.detail, v.last) for v in m.validate()] == \
        [(1, "incomplete", (NAT.top(),), 2)]
    gaps = SMealy(NAT, 6, 0, [], [(2, NAT.top(), 0, "o"), (4, NAT.interval(0, 3), 0, "o")])
    assert [str(v) for v in gaps.validate()] == [
        "states 0-1: uncovered region [0,inf)", "state 3: uncovered region [0,inf)",
        "state 4: uncovered region [3,inf)", "state 5: uncovered region [0,inf)"]
    huge = SMealy.from_json(unused_states_data(10 ** 12))  # no work per state
    assert [str(v) for v in huge.validate()] == ["states 1-999999999999: uncovered region [0,inf)"]
