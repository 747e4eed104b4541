import itertools
import json
import math
import random
import re

import pytest
from support import (
    adjacency,
    antichain_poset,
    chain_poset,
    cycle_graph,
    free_matroid,
    graph_distances,
    has_triangle,
    path_graph,
    rank_one_matroid,
    reference_matroid_violations,
    star_bipartite_graph,
    structure_to_json_dict,
)

from eqpower.errors import InputFormatError, SignatureMismatchError
from eqpower.fixtures import triangle_graph
from eqpower.structures import (
    EQUALITY,
    FiniteStructure,
    Signature,
    ValidationReport,
    graph_from_edges,
    graph_signature,
    matroid_signature,
    poset_signature,
    structure_from_json_dict,
    validate,
)


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(ValueError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(ValueError):
        Signature((("E", 0),))


def test_equality_is_every_structures_undeclared_diagonal():
    with pytest.raises(ValueError, match="reserved for equality"):
        Signature(((EQUALITY, 2),))
    g = triangle_graph()
    assert g.signature.arity(EQUALITY) == 2 and not g.signature.has(EQUALITY)
    assert g.tuples(EQUALITY) == (("a", "a"), ("b", "b"), ("c", "c"))
    assert g.holds(EQUALITY, ("b", "b")) and not g.holds(EQUALITY, ("a", "b"))
    with pytest.raises(ValueError, match="not in the signature"):
        FiniteStructure(graph_signature(), ["a"], {EQUALITY: [("a", "a")]})


def test_signature_lookup():
    sig = matroid_signature(3)
    assert sig.names() == ("P1", "P2", "P3")
    assert sig.arity("P2") == 2
    assert sig.has("P3") and not sig.has("P4")
    with pytest.raises(KeyError):
        sig.arity("Q")


def test_structure_construction_errors():
    sig = graph_signature()
    with pytest.raises(ValueError):
        FiniteStructure(sig, [])
    with pytest.raises(ValueError):
        FiniteStructure(sig, ["a", "a"])
    with pytest.raises(ValueError):
        FiniteStructure(sig, ["a"], {"F": [("a", "a")]})
    with pytest.raises(ValueError, match=re.escape("'E' expects 2-tuples, got ('a',)")):
        FiniteStructure(sig, ["a"], {"E": [("a",)]})
    with pytest.raises(ValueError, match=re.escape("'E' tuple ('a', 'z') mentions unknown element 'z'")):
        FiniteStructure(sig, ["a"], {"E": [("a", "z")]})
    # entries are read as strings before they are looked up
    with pytest.raises(ValueError, match=re.escape("'E' tuple ('a', '1') mentions unknown element '1'")):
        FiniteStructure(sig, ["a"], {"E": [("a", 1)]})
    assert FiniteStructure(sig, [1, 2], {"E": [(1, 2), ("2", "1")]}).tuples("E") == (("1", "2"), ("2", "1"))


def test_structure_tables_and_equality():
    g = triangle_graph()
    assert g.size == 3
    assert g.holds("E", ("a", "b")) and g.holds("E", ("b", "a"))
    assert not g.holds("E", ("a", "a"))
    assert g.tuples("E") == (("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"))
    same = graph_from_edges(("a", "b", "c"), (("c", "a"), ("b", "c"), ("a", "b")))
    assert g == same and hash(g) == hash(same)
    assert g != path_graph(3)


def test_holds_names_an_unknown_label_like_index():
    g = triangle_graph()
    for row in (("z0", "a"), ("a", "z0")):
        with pytest.raises(KeyError, match="unknown universe element 'z0'"):
            g.holds("E", row)
    with pytest.raises(KeyError, match="unknown relation symbol 'F'"):
        g.holds("F", ("a", "b"))


def test_missing_table_means_empty_relation():
    g = FiniteStructure(graph_signature(), ["a", "b"])
    assert g.tuples("E") == ()
    assert validate(g, "graph").passed


def test_graph_validation_violations():
    loop = FiniteStructure(graph_signature(), ["a"], {"E": [("a", "a")]})
    report = validate(loop, "graph")
    assert not report.passed
    assert ("no loops", ("a",)) in report.violations

    oneway = FiniteStructure(graph_signature(), ["a", "b"], {"E": [("a", "b")]})
    report = validate(oneway, "graph")
    assert ("symmetry", ("a", "b")) in report.violations


def test_poset_validation_violations():
    missing_reflexive = FiniteStructure(poset_signature(), ["a"], {"leq": []})
    assert ("reflexivity", ("a",)) in validate(missing_reflexive, "poset").violations

    cyclic = FiniteStructure(
        poset_signature(), ["a", "b"], {"leq": [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]}
    )
    report = validate(cyclic, "poset")
    assert any(axiom == "antisymmetry" for axiom, _ in report.violations)

    # a <= b <= c but a <= c missing
    intransitive = FiniteStructure(
        poset_signature(),
        ["a", "b", "c"],
        {"leq": [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]},
    )
    report = validate(intransitive, "poset")
    assert ("transitivity", ("a", "b", "c")) in report.violations


def test_poset_fixtures_pass():
    assert validate(chain_poset(4), "poset").passed
    assert validate(antichain_poset(3), "poset").passed


def test_matroid_validation_violations():
    sig = matroid_signature(2)
    repeated = FiniteStructure(sig, ["e1"], {"P1": [("e1",)], "P2": [("e1", "e1")]})
    assert any(axiom == "no repeated elements" for axiom, _ in validate(repeated, "matroid").violations)

    not_hereditary = FiniteStructure(sig, ["e1", "e2"], {"P1": [("e1",)], "P2": [("e1", "e2")]})
    assert any(axiom == "hereditary" for axiom, _ in validate(not_hereditary, "matroid").violations)

    # one orientation only: (e2,) cannot be extended, so exchange fails
    asymmetric = FiniteStructure(
        sig, ["e1", "e2"], {"P1": [("e1",), ("e2",)], "P2": [("e1", "e2")]}
    )
    report = validate(asymmetric, "matroid")
    assert any(axiom == "exchange" for axiom, _ in report.violations)


@pytest.mark.parametrize("size", [3, 4])
def test_matroid_violations_match_the_pairwise_exchange_check(size):
    """Random P1..Pu tables over 3 and 4 elements: the same violations as the pairwise check, in the same order.

    Rows are drawn from all tuples, repeated entries included, at densities
    from sparse to nearly full, so every axiom fails in some draws and
    passes in others.
    """
    rng = random.Random(size)
    labels = [f"e{i}" for i in range(1, size + 1)]
    axioms = set()
    for _ in range(60):
        density = rng.choice((0.1, 0.3, 0.6, 0.9, 1.0))
        tables = {
            f"P{k}": [row for row in itertools.product(labels, repeat=k) if rng.random() < density]
            for k in range(1, size + 1)
        }
        structure = FiniteStructure(matroid_signature(size), labels, tables)
        expected = reference_matroid_violations(structure)
        assert list(validate(structure, "matroid").violations) == expected
        axioms.update(axiom for axiom, _ in expected)
    assert axioms == {"no repeated elements", "hereditary", "exchange"}
    assert validate(free_matroid(size), "matroid").violations == ()


def test_matroid_fixtures_pass():
    assert validate(free_matroid(2), "matroid").passed
    assert validate(free_matroid(3), "matroid").passed
    assert validate(rank_one_matroid(3), "matroid").passed


def test_kind_signature_mismatches():
    with pytest.raises(SignatureMismatchError):
        validate(triangle_graph(), "poset")
    with pytest.raises(SignatureMismatchError):
        validate(chain_poset(2), "graph")
    gapped = Signature((("P1", 1), ("P3", 3)))
    with pytest.raises(SignatureMismatchError):
        validate(FiniteStructure(gapped, ["e1"]), "matroid")
    with pytest.raises(ValueError):
        validate(triangle_graph(), "ring")


def test_generic_kind_always_validates():
    s = FiniteStructure(Signature((("R", 3),)), ["a"], {"R": [("a", "a", "a")]})
    assert validate(s, "generic").passed


def test_adjacency_and_triangle():
    g = triangle_graph()
    assert adjacency(g) == {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    assert has_triangle(g) == ("a", "b", "c")
    assert has_triangle(path_graph(4)) is None
    assert has_triangle(cycle_graph(5)) is None


def test_graph_distances():
    d = graph_distances(path_graph(4))
    assert d[("v1", "v4")] == 3
    assert d[("v2", "v2")] == 0
    split = graph_from_edges(["a", "b", "c"], [("a", "b")])
    assert graph_distances(split)[("a", "c")] == math.inf


def test_star_bipartite_graph_shape():
    g = star_bipartite_graph(3)
    assert g.size == 5
    deg = {g.label(i): len(vs) for i, vs in adjacency(g).items()}
    assert deg == {"x0": 3, "x1": 2, "x2": 2, "x3": 2, "x4": 3}
    assert validate(g, "graph").passed
    with pytest.raises(ValueError):
        star_bipartite_graph(0)


def test_matroid_underlying_graph():
    """A matroid's graph of independent pairs is its P2 table, with both orientations of each pair."""
    matroid = free_matroid(2)
    assert matroid.index_table("P2") == {(0, 1), (1, 0)}
    g = graph_from_edges(matroid.universe, matroid.tuples("P2"))
    assert g.index_table("E") == matroid.index_table("P2")
    assert validate(g, "graph").passed
    assert rank_one_matroid(2).index_table("P2") == frozenset()
    with pytest.raises(KeyError, match="P2"):
        triangle_graph().index_table("P2")


def test_structure_json_round_trip():
    for kind, s in [
        ("graph", triangle_graph()),
        ("poset", chain_poset(3)),
        ("matroid", free_matroid(2)),
    ]:
        doc = json.loads(json.dumps(structure_to_json_dict(s, kind)))
        kind2, s2 = structure_from_json_dict(doc)
        assert kind2 == kind and s2 == s


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"kind": "graph", "universe": ["a"]},
        {"kind": "graph", "universe": ["a"], "relations": {}, "x": 1},
        {"kind": "field", "universe": ["a"], "relations": {}},
        {"kind": "graph", "universe": [1], "relations": {}},
        {"kind": "graph", "universe": ["a"], "relations": {"E": {"arity": 0, "tuples": []}}},
        {"kind": "graph", "universe": ["a"], "relations": {"E": {"arity": 2, "tuples": [["a"]]}}},
        {"kind": "graph", "universe": ["a"], "relations": {"E": {"tuples": []}}},
        {"kind": "graph", "universe": ["a"], "relations": {"E": {"arity": 2, "tuples": [[1, 2]]}}},
        {"kind": "generic", "universe": ["a"], "relations": {"P": {"arity": True, "tuples": [["a"]]}}},
        {"kind": "generic", "universe": ["a"], "relations": {"=": {"arity": 2, "tuples": [["a", "a"]]}}},
    ],
)
def test_structure_json_rejects_malformed(doc):
    with pytest.raises(InputFormatError):
        structure_from_json_dict(doc)


GOOD_ROWS = [["a", "b"], ["b", "a"]]
# fault -> (bad row of a binary E over {a, b}, the message naming it); the first two are JSON faults
TABLE_FAULTS = {
    "non-list row": ("ab", "relation 'E' tuples must be a list of strings, got 'ab'"),
    "non-string entry": (["a", 1], "relation 'E' tuples must be a list of strings, got ['a', 1]"),
    "wrong arity": (["a", "b", "a"], "'E' expects 2-tuples, got ('a', 'b', 'a')"),
    "unknown label": (["a", "z"], "'E' tuple ('a', 'z') mentions unknown element 'z'"),
}
JSON_FAULTS = {"non-list row", "non-string entry"}


def _binary_doc(rows, **more):
    relations = {"E": {"arity": 2, "tuples": rows}, **{name: {"arity": 2, "tuples": t} for name, t in more.items()}}
    return {"kind": "generic", "universe": ["a", "b"], "relations": relations}


def _decode_error(doc) -> str:
    with pytest.raises(InputFormatError) as err:
        structure_from_json_dict(doc)
    return str(err.value)


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_structure_decode_names_a_bad_row_after_good_rows(fault):
    """The whole-table checks fail, and the walk names the bad row as the row-by-row decoder did."""
    row, message = TABLE_FAULTS[fault]
    assert _decode_error(_binary_doc(GOOD_ROWS + [row] + GOOD_ROWS)) == message


@pytest.mark.parametrize("first, second", list(itertools.permutations(TABLE_FAULTS, 2)))
def test_structure_decode_of_two_bad_rows_names_the_one_checked_first(first, second):
    """Every row of a table is checked as JSON before any row is checked against the universe and the arity.

    So a JSON fault wins over a table fault wherever it stands, and of two
    faults of the same stage the earlier row wins.
    """
    rows = GOOD_ROWS + [TABLE_FAULTS[first][0]] + GOOD_ROWS + [TABLE_FAULTS[second][0]]
    named = second if second in JSON_FAULTS and first not in JSON_FAULTS else first
    assert _decode_error(_binary_doc(rows)) == TABLE_FAULTS[named][1]


def test_structure_decode_checks_every_table_as_json_before_any_against_the_universe():
    """A JSON fault in a later relation wins over a table fault in an earlier one."""
    doc = _binary_doc(GOOD_ROWS + [["a", "z"]], F=GOOD_ROWS + [["a", 1]])
    assert _decode_error(doc) == "relation 'F' tuples must be a list of strings, got ['a', 1]"


def test_structure_reads_a_one_pass_generator_of_rows():
    """Tables given as generators build the tables their lists build, and a bad row is still named."""
    sig, rows = graph_signature(), [("a", "b"), ("b", "c"), ("c", "a")]
    built = FiniteStructure(sig, ["a", "b", "c"], {"E": (row for row in rows)})
    assert built == FiniteStructure(sig, ["a", "b", "c"], {"E": rows})
    assert built.tuples("E") == (("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(ValueError, match=re.escape("'E' expects 2-tuples, got ('c',)")):
        FiniteStructure(sig, ["a", "b", "c"], {"E": (row for row in rows + [("c",)] + rows)})


def test_validation_report_round_trip():
    matroid_tables = {"P1": [("b",)], "P2": [("a", "a"), ("a", "b")]}
    reports = [
        validate(FiniteStructure(graph_signature(), ["a"], {"E": [("a", "a")]}), "graph"),
        validate(FiniteStructure(poset_signature(), ["a", "b"], {"leq": [("a", "b"), ("b", "a")]}), "poset"),
        validate(FiniteStructure(matroid_signature(2), ["a", "b"], matroid_tables), "matroid"),
    ]
    assert [sorted({axiom for axiom, _ in r.violations}) for r in reports] == [
        ["no loops"],
        ["antisymmetry", "reflexivity", "transitivity"],
        ["exchange", "hereditary", "no repeated elements"],
    ]
    for report in reports:
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert ValidationReport.from_json_dict(doc) == report


def _report_doc():
    report = validate(FiniteStructure(graph_signature(), ["a"], {"E": [("a", "a")]}), "graph")
    return json.loads(json.dumps(report.to_json_dict()))


@pytest.mark.parametrize(
    "doc",
    [
        {**_report_doc(), "passed": "zz"},
        {**_report_doc(), "passed": 0},
        {**_report_doc(), "kind": 1},
        {**_report_doc(), "extra": 1},
        {key: value for key, value in _report_doc().items() if key != "violations"},
        {**_report_doc(), "violations": [{"axiom": "loop-free"}]},
        {**_report_doc(), "violations": [{"axiom": "loop-free", "witness": "a"}]},
        {**_report_doc(), "violations": [{"axiom": 3, "witness": ["a"]}]},
        [],
    ],
)
def test_validation_report_decoding_is_strict(doc):
    with pytest.raises(InputFormatError):
        ValidationReport.from_json_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {**_report_doc(), "kind": "zz"},
        {**_report_doc(), "passed": True},
        {**_report_doc(), "passed": False, "violations": []},
    ],
    ids=["kind", "passed-with-violations", "failed-without-violations"],
)
def test_validation_report_copies_must_agree(doc):
    with pytest.raises(InputFormatError):
        ValidationReport.from_json_dict(doc)


def _failed_report(kind, axiom, witness):
    return {"kind": kind, "passed": False, "violations": [{"axiom": axiom, "witness": witness}]}


@pytest.mark.parametrize(
    "doc",
    [
        _failed_report("graph", "zz", []),
        _failed_report("graph", "no loops", ["a", "a"]),
        _failed_report("graph", "symmetry", ["a"]),
        _failed_report("graph", "reflexivity", ["a"]),
        _failed_report("poset", "reflexivity", ["a", "a"]),
        _failed_report("poset", "antisymmetry", ["a", "b", "c"]),
        _failed_report("poset", "transitivity", ["a", "b"]),
        _failed_report("matroid", "no repeated elements", []),
        _failed_report("matroid", "hereditary", []),
        _failed_report("matroid", "exchange", []),
        _failed_report("matroid", "symmetry", ["a", "b"]),
        _failed_report("generic", "symmetry", ["a", "b"]),
    ],
    ids=[
        "graph-unknown-axiom",
        "graph-no-loops-length",
        "graph-symmetry-length",
        "graph-poset-axiom",
        "poset-reflexivity-length",
        "poset-antisymmetry-length",
        "poset-transitivity-length",
        "matroid-no-repeated-elements-empty",
        "matroid-hereditary-empty",
        "matroid-exchange-empty",
        "matroid-graph-axiom",
        "generic-any-violation",
    ],
)
def test_validation_report_violations_must_be_reportable(doc):
    """validate reports only its kind's axioms, each with a witness of that axiom's length."""
    with pytest.raises(InputFormatError):
        ValidationReport.from_json_dict(doc)
