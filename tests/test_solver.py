import itertools
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import chain_poset

from eqpower.errors import InputFormatError, UnboundVariableError
from eqpower.fixtures import triangle_graph
from eqpower import solver
from eqpower.power import PowerElement, power_system_from_json_dict
from eqpower.solver import (
    AtomClassifier,
    Const,
    EquationSystem,
    RelationAtom,
    Var,
    _with_slots,
    check_equation,
    const_values,
    equation_from_json_dict,
    equation_to_json_dict,
    equivalent,
    evaluate,
    map_constants,
    minimal_inconsistent_subset,
    solve,
    system_from_json_dict,
    system_to_json_dict,
)
from eqpower.structures import EQUALITY, FiniteStructure, Signature

from support import (
    brute_minimal_core,
    brute_solutions,
    fixture_structures,
    oracle_atom_solutions,
    quaternary_structure,
    random_relational_structure,
)


def E(*args):
    return RelationAtom("E", args)


x, y = Var("x"), Var("y")


def test_map_constants_keeps_the_shape():
    eq = E(x, Const("a"), y)
    assert map_constants(eq, {"a": "b"}.get) == E(x, Const("b"), y)
    assert const_values(eq) == ("a",)

    eq2 = RelationAtom(EQUALITY, (Const("a"), x))
    assert map_constants(eq2, {"a": "c"}.get) == RelationAtom(EQUALITY, (Const("c"), x))


def test_system_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        EquationSystem(("x", "x"), ())


@pytest.mark.parametrize("decode", [system_from_json_dict, power_system_from_json_dict])
def test_system_json_rejects_duplicate_variables(decode):
    with pytest.raises(InputFormatError, match="distinct"):
        decode({"variables": ["x", "y", "x"], "equations": []})


def test_evaluate():
    g = triangle_graph()
    assert evaluate(g, E(x, y), {"x": "a", "y": "b"})
    assert not evaluate(g, E(x, y), {"x": "a", "y": "a"})
    assert evaluate(g, RelationAtom(EQUALITY, (x, Const("a"))), {"x": "a"})
    assert evaluate(g, E(Const("a"), Const("b")), {})


def test_check_equation_errors():
    g = triangle_graph()
    with pytest.raises(KeyError):
        check_equation(g, ("x",), RelationAtom("F", (x,)))
    with pytest.raises(ValueError):
        check_equation(g, ("x",), RelationAtom("E", (x,)))
    with pytest.raises(UnboundVariableError):
        check_equation(g, ("x",), E(x, y))
    with pytest.raises(ValueError):
        check_equation(g, ("x",), E(x, Const("zz")))


def test_solve_pinned():
    g = triangle_graph()
    result = solve(g, EquationSystem(("x",), (E(x, Const("a")),)))
    assert result.points == {("b",), ("c",)}
    assert result.sorted_points() == (("b",), ("c",))

    both = solve(g, EquationSystem(("x",), (E(x, Const("a")), E(x, Const("b")))))
    assert both.points == {("c",)}

    empty_system = solve(g, EquationSystem(("x", "y"), ()))
    assert len(empty_system.points) == 9

    none = solve(g, EquationSystem(("x",), (E(x, Const("a")), RelationAtom(EQUALITY, (x, Const("a"))))))
    assert none.is_empty


def test_solve_matches_brute_force():
    g = triangle_graph()
    p = chain_poset(3)
    systems = [
        (g, EquationSystem(("x", "y"), (E(x, y), E(y, Const("a"))))),
        (g, EquationSystem(("x", "y"), (RelationAtom(EQUALITY, (x, y)),))),
        (g, EquationSystem(("x",), (E(Const("a"), Const("b")), E(x, Const("c"))))),
        (p, EquationSystem(("x", "y"), (RelationAtom("leq", (x, y)), RelationAtom("leq", (y, Const("c2")))))),
    ]
    for structure, system in systems:
        assert solve(structure, system).points == brute_solutions(structure, system)


@pytest.mark.parametrize("name", sorted(fixture_structures()))
def test_equalities_match_brute_force_on_every_fixture(name):
    """solve reads equality off the diagonal table; brute_solutions compares labels by value."""
    _, structure = fixture_structures()[name]
    labels = [Const(u) for u in structure.universe]
    pairs = [(x, y), (x, x)] + [(x, c) for c in labels] + [(c, d) for c in labels for d in labels]
    for lhs, rhs in pairs:
        system = EquationSystem(("x", "y"), (RelationAtom(EQUALITY, (lhs, rhs)),))
        assert solve(structure, system).points == brute_solutions(structure, system)


def test_equivalent():
    g = triangle_graph()
    a = EquationSystem(("x",), (E(x, Const("a")), E(x, Const("a"))))
    b = EquationSystem(("x",), (E(x, Const("a")),))
    assert equivalent(g, a, b)
    c = EquationSystem(("x",), (E(x, Const("b")),))
    assert not equivalent(g, b, c)
    with pytest.raises(ValueError):
        equivalent(g, b, EquationSystem(("y",), (E(y, Const("a")),)))


def test_classifier_memoizes():
    g = triangle_graph()
    clf = AtomClassifier(g, ("x",))
    first = clf.solutions(E(x, Const("a")))
    assert first == {("b",), ("c",)}
    assert clf.solutions(RelationAtom(EQUALITY, (x, Const("a")))) == {("a",)}
    assert clf.solutions(E(x, Const("a"))) is first
    assert clf.system_solutions([E(x, Const("a")), E(x, Const("b"))]) == {("c",)}


def test_cylinders_match_the_division_formula():
    """The doubling build gives every cylinder that full // (2^(k * block) - 1) times one block gave, k <= 5, n <= 8."""
    for k in range(1, 6):
        structure = FiniteStructure(Signature(()), [f"u{i}" for i in range(k)])
        for n in range(9):
            clf = AtomClassifier(structure, tuple(f"x{i}" for i in range(n)))
            full = (1 << k**n) - 1
            for p in range(n):
                block = k ** (n - 1 - p)
                repunit = full // ((1 << k * block) - 1)
                assert clf._cylinders[p] == [((1 << block) - 1 << u * block) * repunit for u in range(k)], (k, n, p)


@st.composite
def row_memo_lookups(draw):
    """A structure with binary E and ternary T, and lookups (atom, row) over atoms of shared and distinct shapes.

    The atoms are E(x, c), E(c, x), E(y, c), x = c and T(x, c, c), each
    with label constants and again with stream constants; the tables are
    drawn, so E need not be symmetric.
    """
    labels = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    label = st.sampled_from(labels)
    tables = {"E": draw(st.sets(st.tuples(label, label))), "T": draw(st.sets(st.tuples(label, label, label)))}
    structure = FiniteStructure(Signature((("E", 2), ("T", 3))), labels, tables)
    a, stream = Const(labels[0]), Const(PowerElement((labels[-1],), (labels[0],)))
    shapes = [
        lambda c: E(x, c),
        lambda c: E(c, x),
        lambda c: E(y, c),
        lambda c: RelationAtom(EQUALITY, (x, c)),
        lambda c: RelationAtom("T", (x, c, c)),
    ]
    atoms = [shape(c) for shape in shapes for c in (a, stream)]
    rows = {1: st.tuples(label), 2: st.tuples(label, label)}
    lookups = draw(
        st.lists(st.sampled_from(atoms).flatmap(lambda atom: st.tuples(st.just(atom), rows[len(const_values(atom))])))
    )
    return structure, lookups


@settings(max_examples=200, deadline=None)
@given(row_memo_lookups())
def test_row_memo_is_the_mask_of_the_atom_with_the_row_whoever_filled_it(case):
    """rows(atom)[row] is mask(atom with the row in its slots), whichever atom of the shape filled the entry."""
    structure, lookups = case
    clf = AtomClassifier(structure, ("x", "y"))
    for atom, row in lookups:
        projected = _with_slots(atom, row)
        assert clf.rows(atom)[row] == AtomClassifier(structure, ("x", "y")).mask(projected), (atom, row)
        assert clf.rows(atom)[row] == clf.mask(projected)


def test_row_memo_is_one_dict_per_shape():
    """Atoms that differ only in their constants share one memo; the symbol and the variable pattern split it."""
    g = triangle_graph()
    clf = AtomClassifier(g, ("x", "y"))
    memo = clf.rows(E(x, Const("a")))
    assert clf.rows(E(x, Const(PowerElement(("b",), ("c",))))) is memo
    others = [E(Const("a"), x), E(y, Const("a")), RelationAtom(EQUALITY, (x, Const("a"))), E(x, y)]
    assert all(clf.rows(atom) is not memo for atom in others)
    assert memo[("b",)] == clf.mask(E(x, Const("b")))
    with pytest.raises(ValueError, match="not a universe element"):
        memo[("z",)]


def test_minimal_inconsistent_subset():
    g = triangle_graph()
    consistent = EquationSystem(("x",), (E(x, Const("a")),))
    assert minimal_inconsistent_subset(g, consistent) is None

    system = EquationSystem(
        ("x",), (E(x, Const("a")), RelationAtom(EQUALITY, (x, Const("a"))), E(x, Const("b")))
    )
    core = minimal_inconsistent_subset(g, system)
    assert core.equations == (E(x, Const("a")), RelationAtom(EQUALITY, (x, Const("a"))))
    # deletion-minimal: the core is inconsistent, every remove-one subset is not
    assert solve(g, core).is_empty
    for i in range(len(core.equations)):
        rest = EquationSystem(core.variables, core.equations[:i] + core.equations[i + 1 :])
        assert not solve(g, rest).is_empty


def test_minimal_core_keeps_one_copy_of_a_repeated_equation():
    g = triangle_graph()
    x_is_a = RelationAtom(EQUALITY, (x, Const("a")))
    system = EquationSystem(("x",), (x_is_a, x_is_a, E(x, Const("a"))))
    core = minimal_inconsistent_subset(g, system)
    assert core.equations == (x_is_a, E(x, Const("a")))


# --- masks against the brute-force oracles ------------------------------------


@st.composite
def structures_and_atoms(draw, min_atoms=1, max_atoms=1):
    """A random structure over symbols of arity 1..3, a variable list, and atoms over both."""
    k = draw(st.integers(1, 4))
    labels = [f"u{i}" for i in range(k)]
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    symbols = tuple((f"R{i}", a) for i, a in enumerate(arities))
    tables = {
        name: draw(st.sets(st.tuples(*[st.sampled_from(labels)] * arity), max_size=k**arity))
        for name, arity in symbols
    }
    structure = FiniteStructure(Signature(symbols), labels, tables)
    variables = tuple(f"x{i}" for i in range(draw(st.integers(0, 4))))
    consts = st.builds(Const, st.sampled_from(labels))
    args = st.one_of(consts, st.builds(Var, st.sampled_from(variables))) if variables else consts
    relation = st.sampled_from(symbols).flatmap(
        lambda sym: st.tuples(*[args] * sym[1]).map(lambda a, name=sym[0]: RelationAtom(name, a))
    )
    equality = st.tuples(args, args).map(lambda pair: RelationAtom(EQUALITY, pair))
    atoms = draw(st.lists(st.one_of(relation, equality), min_size=min_atoms, max_size=max_atoms))
    return structure, variables, atoms


@settings(max_examples=200, deadline=None)
@given(structures_and_atoms())
def test_atom_solutions_match_oracle(case):
    structure, variables, (atom,) = case
    clf = AtomClassifier(structure, variables)
    assert clf.solutions(atom) == oracle_atom_solutions(structure, variables, atom)


@settings(max_examples=150, deadline=None)
@given(structures_and_atoms(min_atoms=0, max_atoms=6))
def test_systems_and_cores_match_oracle(case):
    structure, variables, atoms = case
    system = EquationSystem(variables, tuple(atoms))
    expected = brute_solutions(structure, system)
    assert AtomClassifier(structure, variables).system_solutions(atoms) == expected
    assert solve(structure, system).points == expected
    assert minimal_inconsistent_subset(structure, system) == brute_minimal_core(structure, system)


def test_mask_shapes_match_oracle():
    """Repeated variables, x = x, constant-only atoms and variable equality on a fixed structure."""
    labels = ["p", "q", "r"]
    structure = FiniteStructure(
        Signature((("U", 1), ("R", 2), ("T", 3))),
        labels,
        {
            "U": [("q",)],
            "R": [("p", "p"), ("p", "q"), ("r", "r"), ("q", "p")],
            "T": [("p", "q", "p"), ("q", "q", "r"), ("r", "p", "r"), ("p", "p", "p")],
        },
    )
    z = Var("z")
    p, q = Const("p"), Const("q")
    atoms = [
        RelationAtom("R", (x, x)),
        RelationAtom("T", (x, y, x)),
        RelationAtom("T", (z, z, z)),
        RelationAtom("T", (x, p, y)),
        RelationAtom("R", (p, q)),
        RelationAtom("R", (q, q)),
        RelationAtom("U", (y,)),
        RelationAtom(EQUALITY, (x, x)),
        RelationAtom(EQUALITY, (x, y)),
        RelationAtom(EQUALITY, (z, x)),
        RelationAtom(EQUALITY, (p, p)),
        RelationAtom(EQUALITY, (p, q)),
        RelationAtom(EQUALITY, (q, y)),
    ]
    for variables in [("x", "y", "z"), ("z", "y", "x", "w")]:
        clf = AtomClassifier(structure, variables)
        for atom in atoms:
            assert clf.solutions(atom) == oracle_atom_solutions(structure, variables, atom), atom
    # no variables: one empty assignment, kept or not
    clf = AtomClassifier(structure, ())
    assert clf.solutions(RelationAtom("R", (p, q))) == {()}
    assert clf.solutions(RelationAtom(EQUALITY, (p, q))) == frozenset()


def _row_plan_structures() -> dict[str, FiniteStructure]:
    rng = random.Random(20)
    return {**{f"random{i}": random_relational_structure(rng) for i in range(10)}, "quaternary": quaternary_structure()}


@pytest.mark.parametrize("name", sorted(_row_plan_structures()))
def test_row_plan_matches_oracle_on_every_shape_and_row(name):
    """Every atom shape over x, y, z, and every row of labels for its constant slots, through mask and rows.

    A place holds x, y, z or a constant slot, so the shapes have 0 to 4
    variable places, repeated variables and constant-only atoms, on every
    symbol and on equality.  The classifier's variables are y, x, z and an
    unused w.  mask fills one classifier's memo atom by atom; rows fills
    another's in the reverse order of the rows, through the first atom of
    the shape.
    """
    structure = _row_plan_structures()[name]
    variables = ("y", "x", "z", "w")
    by_mask, by_rows = AtomClassifier(structure, variables), AtomClassifier(structure, variables)
    for symbol, arity in structure.signature.symbols + ((EQUALITY, 2),):
        for places in itertools.product(("x", "y", "z", None), repeat=arity):
            template = RelationAtom(symbol, tuple(Var(v) if v else Const("") for v in places))
            slot_rows = list(itertools.product(structure.universe, repeat=places.count(None)))
            atoms = [_with_slots(template, row) for row in slot_rows]
            for atom in atoms:
                assert by_mask.decode(by_mask.mask(atom)) == oracle_atom_solutions(structure, variables, atom), atom
            memo = by_rows.rows(atoms[0])
            for row, atom in reversed(list(zip(slot_rows, atoms))):
                assert by_rows.decode(memo[row]) == by_mask.decode(by_mask.mask(atom)), atom
            assert set(memo) == set(slot_rows)


# each atom over the triangle with variables (x,) is refused by check_equation, with this exception type
REFUSED_ATOMS = {
    "unknown symbol": (RelationAtom("F", (x, Const("a"))), KeyError),
    "wrong arity": (RelationAtom("E", (x, Const("a"), Const("b"))), ValueError),
    "undeclared variable": (E(y, Const("a")), UnboundVariableError),
    "unknown label": (E(x, Const("z")), ValueError),
    "non-string constant": (E(Const(1), x), ValueError),
    "undeclared variable, then unknown label": (E(y, Const("z")), UnboundVariableError),
    "unknown label, then undeclared variable": (E(Const("z"), y), ValueError),
}


@pytest.mark.parametrize("atom, error", REFUSED_ATOMS.values(), ids=REFUSED_ATOMS)
def test_row_plan_raises_check_equations_error(atom, error):
    """mask(atom) and rows(template)[row] raise what check_equation raises on the atom: type and text."""
    g = triangle_graph()
    with pytest.raises(error) as expected:
        check_equation(g, ("x",), atom)
    template = map_constants(atom, lambda _: "a")
    for classify in (lambda clf: clf.mask(atom), lambda clf: clf.rows(template)[const_values(atom)]):
        with pytest.raises(error) as raised:
            classify(AtomClassifier(g, ("x",)))
        assert (type(raised.value), raised.value.args) == (type(expected.value), expected.value.args)


def test_row_plans_share_one_table_per_symbol_argument_count_and_slots():
    """Shapes that differ only in the variables they name share one table plan; other slots or arities do not.

    R is not symmetric, so R(x, c) and R(a, x) need different slot
    pickers, and each mask must be the oracle's.  Seven shapes on three
    (symbol, number of arguments, slot positions) keys read three index
    tables.  R(a) after R(a, x) has the same symbol and slot positions but
    one argument, and still raises check_equation's error.
    """
    a, c = Const("a"), Const("c")
    structure = FiniteStructure(Signature((("R", 2),)), ["a", "b", "c"], {"R": [("a", "b"), ("b", "c"), ("a", "c")]})
    clf = AtomClassifier(structure, ("x", "y"))
    atoms = [
        RelationAtom("R", args)
        for args in ((x, c), (y, c), (a, x), (a, y), (x, y), (y, x), (x, x), (x, Const("b")), (Const("b"), y))
    ]
    with mock.patch.object(structure, "index_table", wraps=structure.index_table) as tables:
        for atom in atoms:
            assert clf.decode(clf.mask(atom)) == oracle_atom_solutions(structure, ("x", "y"), atom), atom
        assert len(clf._rows) == 7 and tables.call_count == 3
        with pytest.raises(ValueError) as raised:
            clf.mask(RelationAtom("R", (a,)))
    assert (raised.type, str(raised.value)) == (ValueError, "'R' expects 2 arguments, got 1")


def test_classifier_refuses_a_space_past_its_cylinder_budget(monkeypatch):
    """The estimate n * k * k^n / 8 bytes is checked before any cylinder is built; the budget admits it exactly."""
    g = triangle_graph()
    with pytest.raises(ValueError) as err:
        AtomClassifier(g, tuple(f"x{i}" for i in range(40)))
    assert str(err.value).startswith("40 variables over 3 elements give 3^40 = 12,157,665,459,056,928,801 assignments;")
    assert str(err.value).endswith("MB, over the 1,024 MB limit")
    refused = "give 3^18 = 387,420,489 assignments; their cylinder masks would take about 2,494 MB"
    with pytest.raises(ValueError, match=re.escape(refused)):
        AtomClassifier(g, tuple(f"x{i}" for i in range(18)))
    variables = tuple(f"x{i}" for i in range(5))
    monkeypatch.setattr(solver, "CYLINDER_BUDGET_BYTES", 5 * 3 * 3**5 // 8)
    assert AtomClassifier(g, variables).space_size == 3**5
    monkeypatch.setattr(solver, "CYLINDER_BUDGET_BYTES", 5 * 3 * 3**5 // 8 - 1)
    with pytest.raises(ValueError, match="3\\^5 = 243 assignments"):
        AtomClassifier(g, variables)


def test_equation_json_round_trip():
    for eq in [E(x, Const("a")), RelationAtom(EQUALITY, (x, y)), RelationAtom(EQUALITY, (Const("a"), Const("b")))]:
        doc = json.loads(json.dumps(equation_to_json_dict(eq)))
        assert equation_from_json_dict(doc) == eq


def test_system_json_round_trip():
    system = EquationSystem(("x", "y"), (E(x, y), RelationAtom(EQUALITY, (x, Const("a")))))
    doc = json.loads(json.dumps(system_to_json_dict(system)))
    assert system_from_json_dict(doc) == system


@pytest.mark.parametrize(
    "doc",
    [
        "nope",
        {"rel": "E"},
        {"rel": "E", "args": [{"var": "x"}], "extra": 1},
        {"rel": 3, "args": []},
        {"eq": [{"var": "x"}]},
        {"rel": "E", "args": [{"var": "x"}, {"const": 5}]},
        {"rel": "E", "args": [{"bad": "x"}, {"const": "a"}]},
        {"rel": "=", "args": [{"var": "x"}, {"const": "a"}]},
    ],
)
def test_equation_json_rejects_malformed(doc):
    with pytest.raises(InputFormatError):
        equation_from_json_dict(doc)
