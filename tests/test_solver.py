import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import chain_poset

from eqpower.errors import InputFormatError, UnboundVariableError
from eqpower.fixtures import triangle_graph
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

from support import brute_minimal_core, brute_solutions, fixture_structures, oracle_atom_solutions


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
