import json
import random
from collections import Counter
from itertools import product

import pytest

import support
from support import (
    antichain_poset,
    chain_poset,
    cycle_graph,
    free_matroid,
    graph_structural_check,
    path_graph,
    rank_one_matroid,
    star_bipartite_graph,
)
from eqpower.errors import InputFormatError, InvalidCertificateError
from eqpower.fixtures import triangle_graph
from eqpower import noetherian
from eqpower.noetherian import (
    KIND_CERTIFICATES,
    NOETHERIAN,
    NOT_NOETHERIAN,
    NoetherianVerdict,
    WitnessPackage,
    build_witness_family,
    first_violated_member,
    first_violated_members,
    graph_quasi_identity,
    matroid_independent_triple,
    poset_strict_pair,
    power_noetherian,
    verify_witness,
    witness_at_every_depth,
)
from eqpower.power import PowerElement, PowerSystem, Staircase, StaircaseFamily, consistent, satisfies
from eqpower.solver import Const, RelationAtom, Var
from eqpower.structures import FiniteStructure, graph_from_edges, matroid_signature


def uniform_rank2_matroid3() -> FiniteStructure:
    """Every pair of distinct elements is independent, no triple is: the pair graph is a triangle."""
    labels = ["e1", "e2", "e3"]
    pairs = [(a, b) for a in labels for b in labels if a != b]
    return FiniteStructure(matroid_signature(3), labels, {"P1": [(u,) for u in labels], "P2": pairs, "P3": []})


def test_quasi_identity_matches_oracle_exhaustively():
    for g in support.enumerate_graphs_up_to(4):
        assert graph_quasi_identity(g) == support.quasi_identity_oracle(g)


def test_quasi_identity_pinned():
    assert graph_quasi_identity(triangle_graph()) == ("a", "b", "c", "a")
    assert graph_quasi_identity(star_bipartite_graph(4)) is None
    assert graph_quasi_identity(FiniteStructure(triangle_graph().signature, ["a"])) is None


def test_structural_check_disagrees_on_path_and_cycle():
    # triangle-free with distances <= 3, yet the closing condition fails
    assert graph_structural_check(path_graph(4))
    assert graph_quasi_identity(path_graph(4)) is not None
    assert graph_structural_check(cycle_graph(5))
    assert graph_quasi_identity(cycle_graph(5)) is not None
    assert not graph_structural_check(triangle_graph())
    assert graph_structural_check(star_bipartite_graph(3))


def test_graph_verdicts():
    verdict = power_noetherian(triangle_graph(), "graph")
    assert verdict.status == NOT_NOETHERIAN
    assert verdict.certificate_kind == "quadruple"
    a1, a2, a3, a4 = verdict.certificate
    g = triangle_graph()
    assert g.holds("E", (a1, a2)) and g.holds("E", (a2, a3)) and g.holds("E", (a3, a4))
    assert not g.holds("E", (a4, a1))

    passing = power_noetherian(star_bipartite_graph(2), "graph")
    assert passing.status == NOETHERIAN
    assert passing.certificate is None


def test_graph_verdict_requires_valid_graph():
    loop = FiniteStructure(triangle_graph().signature, ["a"], {"E": [("a", "a")]})
    with pytest.raises(ValueError):
        power_noetherian(loop, "graph")


def test_poset_verdicts():
    assert poset_strict_pair(chain_poset(2)) == ("c1", "c2")
    assert poset_strict_pair(antichain_poset(2)) is None

    verdict = power_noetherian(chain_poset(3), "poset")
    assert verdict.status == NOT_NOETHERIAN and verdict.certificate_kind == "pair"

    open_case = power_noetherian(antichain_poset(3), "poset")
    assert open_case.status == NOETHERIAN
    assert open_case.certificate is None
    assert open_case.transcript


def test_poset_verdicts_over_every_poset_up_to_four_elements():
    """NOETHERIAN exactly for the 4 antichains; every other certificate is the least strict pair.

    Each certificate expands into a witness family that verifies to depth 5,
    and each verdict round-trips through JSON.
    """
    posets = list(support.enumerate_posets_up_to(4))
    assert len(posets) == 242
    antichains = 0
    for poset in posets:
        verdict = power_noetherian(poset, "poset")
        order = set(poset.tuples("leq"))
        strict = [(a, b) for a, b in product(poset.universe, repeat=2) if a != b and (a, b) in order]
        assert verdict.certificate == (strict[0] if strict else None)
        assert NoetherianVerdict.from_json_dict(json.loads(json.dumps(verdict.to_json_dict()))) == verdict
        if not strict:
            antichains += 1
            assert verdict.status == NOETHERIAN
            continue
        assert verdict.status == NOT_NOETHERIAN
        package = build_witness_family(poset, "poset", verdict.certificate)
        assert all(verify_witness(poset, package, n) for n in range(1, 6))
    assert antichains == 4


def test_shape_criterion_agrees_with_every_verdict():
    """support.shape_obstruction's criterion gives power_noetherian's verdict on every small structure.

    The structures are the fixtures, all labelled graphs on 1-5 vertices,
    all posets on 1-4 elements, and every matroid on 1-3 elements built from
    its bases.  The NOETHERIAN counts per class and size of the enumerated
    ones are the census in ROADMAP item 10.
    """
    cases = [(g, "graph") for g in support.enumerate_graphs_up_to(5)]
    cases += [(p, "poset") for p in support.enumerate_posets_up_to(4)]
    cases += [(m, "matroid") for n in (1, 2, 3) for m in support.enumerate_matroids_from_bases(n)]
    assert len(cases) == 1099 + 242 + 2 + 5 + 16
    checked = cases + [(s, k) for k, s in support.fixture_structures().values()]
    verdicts = [power_noetherian(s, k).status == NOETHERIAN for s, k in checked]
    assert [support.shape_obstruction(s) is None for s, _ in checked] == verdicts
    noetherian = Counter((kind, s.size) for (s, kind), holds in zip(cases, verdicts) if holds)
    census = {"graph": [1, 2, 7, 29, 136], "poset": [1, 1, 1, 1], "matroid": [2, 5, 14]}
    assert noetherian == {(kind, n): count for kind, counts in census.items() for n, count in enumerate(counts, 1)}
    assert support.shape_obstruction(chain_poset(2)) == ("leq", (0,), ("c1",), ("c2",))


def test_a_quaternary_obstruction_needs_two_slots():
    """Q on a, b needs two constant slots: no one-slot shape obstructs, and the two-slot one is a real witness.

    The fillings d = (b, a) and c = (a, b) of slots 0 and 3 both allow
    y = z = a, and only c allows y = z = b.  The family Q(stair, y, z, stair)
    with generator d and tail c is consistent (y = z = a everywhere), while
    each truncation also admits y = z = b past its last member, so none is
    equivalent to it.
    """
    structure = support.quaternary_structure()
    assert support.shape_obstruction(structure) == ("Q", (0, 3), ("a", "b"), ("b", "a"))
    assert support.shape_obstruction(structure, max_slots=1) is None
    (d0, d3), (c0, c3) = ("b", "a"), ("a", "b")
    slot0, slot3 = (Const(Staircase((d,), PowerElement((), (c,)))) for d, c in ((d0, c0), (d3, c3)))
    family = StaircaseFamily(RelationAtom("Q", (slot0, Var("y"), Var("z"), slot3)))
    system = PowerSystem(("y", "z"), (), (family,))
    assert consistent(structure, system).consistent
    assert support.least_equivalent_truncation(structure, system) is None


SYSTEM_CHECK_CASES = {
    **{f"antichain{n}": (antichain_poset(n), "poset", "leq") for n in range(1, 5)},
    "star3": (star_bipartite_graph(3), "graph", "E"),
    "free_matroid2": (free_matroid(2), "matroid", "P2"),
    "rank_one_matroid2": (rank_one_matroid(2), "matroid", "P2"),
}


def test_noetherian_verdicts_hold_on_random_systems():
    """On each NOETHERIAN structure, 100 random staircase systems are each equivalent to a truncation.

    A truncation cuts every family to its first N members, so it is a finite
    subsystem.  chain2 is the negative control: at least one of its systems
    is equivalent to no truncation up to the bound.
    """
    for name, (structure, kind, symbol) in SYSTEM_CHECK_CASES.items():
        assert power_noetherian(structure, kind).status == NOETHERIAN
        rng = random.Random(0)
        for _ in range(100):
            system = support.random_power_system(rng, structure, symbol=symbol)
            assert support.least_equivalent_truncation(structure, system) is not None, (name, system)
    chain = chain_poset(2)
    assert power_noetherian(chain, "poset").status == NOT_NOETHERIAN
    rng = random.Random(0)
    systems = [support.random_power_system(rng, chain, symbol="leq") for _ in range(100)]
    assert None in [support.least_equivalent_truncation(chain, system) for system in systems]


def test_planted_systems_on_noetherian_structures_are_reducible():
    """On each NOETHERIAN structure, 50 planted systems, all consistent, are each equivalent to a truncation.

    chain2 is again the negative control.
    """
    for name, (structure, _, _) in SYSTEM_CHECK_CASES.items():
        rng = random.Random(0)
        for _ in range(50):
            system, _ = support.planted_power_system(rng, structure)
            assert support.least_equivalent_truncation(structure, system) is not None, (name, system)
    chain = chain_poset(2)
    rng = random.Random(0)
    systems = [support.planted_power_system(rng, chain)[0] for _ in range(50)]
    assert None in [support.least_equivalent_truncation(chain, system) for system in systems]


def test_matroid_verdicts():
    assert matroid_independent_triple(free_matroid(3)) == ("e1", "e2", "e3")
    assert matroid_independent_triple(free_matroid(2)) is None

    assert power_noetherian(free_matroid(3), "matroid").status == NOT_NOETHERIAN
    assert power_noetherian(free_matroid(2), "matroid").status == NOETHERIAN
    assert power_noetherian(rank_one_matroid(3), "matroid").status == NOETHERIAN


def test_matroid_walks_follow_p2_as_the_graph_of_independent_pairs():
    """graph_quasi_identity along P2 finds what it finds in the graph built from P2, on every small matroid.

    The matroids are the 23 on 1-3 elements built from their bases and the
    fixtures.  One without P2 (on one element) has no walk, as its empty
    pair graph has none, and each verdict's certificate is the independent
    triple or else that walk.
    """
    matroids = [m for n in (1, 2, 3) for m in support.enumerate_matroids_from_bases(n)]
    assert len(matroids) == 23
    matroids += [s for kind, s in support.fixture_structures().values() if kind == "matroid"]
    for m in matroids:
        has_pairs = m.signature.has("P2")
        expected = graph_quasi_identity(graph_from_edges(m.universe, m.tuples("P2") if has_pairs else ()))
        assert (graph_quasi_identity(m, "P2") if has_pairs else None) == expected
        assert power_noetherian(m, "matroid").certificate == (matroid_independent_triple(m) or expected)


def test_matroid_quadruple_path():
    """No independent triple, but independent pairs form a triangle."""
    verdict = power_noetherian(uniform_rank2_matroid3(), "matroid")
    assert verdict.status == NOT_NOETHERIAN
    assert verdict.certificate_kind == "quadruple"


def test_power_noetherian_dispatch():
    assert power_noetherian(triangle_graph(), "graph").status == NOT_NOETHERIAN
    assert power_noetherian(chain_poset(2), "poset").status == NOT_NOETHERIAN
    assert power_noetherian(free_matroid(2), "matroid").status == NOETHERIAN
    with pytest.raises(ValueError):
        power_noetherian(triangle_graph(), "generic")


def test_graph_witness_family():
    g = triangle_graph()
    package = build_witness_family(g, "graph", ("a", "b", "c", "a"))
    for n in range(1, 7):
        assert verify_witness(g, package, n)
        assert first_violated_member(g, package, n) == n + 1
    assert not satisfies(g, support.family_system(package), package.witness_point(3))
    assert satisfies(g, package.truncation(3), package.witness_point(3))


def test_poset_witness_family():
    p = chain_poset(2)
    package = build_witness_family(p, "poset", ("c1", "c2"))
    for n in range(1, 7):
        assert verify_witness(p, package, n)
        assert first_violated_member(p, package, n) == n + 2


def test_matroid_witness_family():
    m = free_matroid(3)
    package = build_witness_family(m, "matroid", ("e1", "e2", "e3"))
    for n in range(1, 6):
        assert verify_witness(m, package, n)
        assert first_violated_member(m, package, n) == n + 2


DEEP_WITNESS_CASES = {
    "graph-quadruple-cycle5": (cycle_graph(5), "graph", "quadruple", 1),
    "graph-quadruple-path4": (path_graph(4), "graph", "quadruple", 1),
    "poset-pair-chain2": (chain_poset(2), "poset", "pair", 2),
    "matroid-triple-free3": (free_matroid(3), "matroid", "triple", 2),
    "matroid-quadruple-uniform2": (uniform_rank2_matroid3(), "matroid", "quadruple", 1),
}
ORACLE_DEPTHS = (*range(1, 11), 20, 40, 60, 80)


@pytest.mark.parametrize("case", sorted(DEEP_WITNESS_CASES))
def test_deep_witness_matches_oracle(case):
    """Every depth up to 80 verifies, and the point first fails member n+1 (quadruples) or n+2 (others).

    That member is also the one the bounded oracle scan finds.
    """
    structure, kind, cert_kind, offset = DEEP_WITNESS_CASES[case]
    verdict = power_noetherian(structure, kind)
    assert verdict.certificate_kind == cert_kind
    package = build_witness_family(structure, kind, verdict.certificate)
    for n in range(1, 81):
        first = first_violated_member(structure, package, n)
        assert first == n + offset == support.oracle_first_violated_member(structure, package, n)
        assert verify_witness(structure, package, n)
    for n in ORACLE_DEPTHS:
        point = package.witness_point(n)
        assert support.oracle_satisfies(structure, package.truncation(n), point)
        assert not support.oracle_satisfies(structure, support.family_system(package), point)
        variables = (package.variable,)
        held = [
            support.oracle_satisfies(structure, PowerSystem(variables, (package.family.member(m),)), point)
            for m in range(n + 1, n + offset + 1)
        ]
        assert held == [True] * (offset - 1) + [False]


@pytest.mark.parametrize("case", sorted(DEEP_WITNESS_CASES))
def test_deep_witness_index_at_long_depths(case):
    """At depths 100, 500 and 1000 the point first fails member n + offset + 2 of its witness rule."""
    structure, kind, _, offset = DEEP_WITNESS_CASES[case]
    package = build_witness_family(structure, kind, power_noetherian(structure, kind).certificate)
    for n in (100, 500, 1000):
        assert first_violated_member(structure, package, n) == n + package.witness_rule[2] + 2 == n + offset


def test_witness_package_computes_its_rule_once_and_truncations_bound_the_family():
    """witness_rule is computed on first use; truncation(n) writes members 1..n out, and witness_point(n) solves it.

    On every refuted fixture truncation(n) is the explicit equations
    family.member(1..n) and no family, truncation(0) raises ValueError as
    witness_point(0) does, and satisfies(truncation(n), witness_point(n))
    holds.
    """
    refuted = 0
    for kind, structure in support.fixture_structures().values():
        verdict = power_noetherian(structure, kind)
        if verdict.status != NOT_NOETHERIAN:
            continue
        refuted += 1
        package = build_witness_family(structure, kind, verdict.certificate)
        assert package.witness_rule is package.witness_rule
        for n in (1, 2, 30, 300):
            system = package.truncation(n)
            assert system.variables == (package.variable,) and system.families == ()
            assert system.explicit == tuple(package.family.member(m) for m in range(1, n + 1))
            assert satisfies(structure, system, package.witness_point(n)), (kind, n)
        with pytest.raises(ValueError):
            package.truncation(0)
    assert refuted == 5


def test_witness_depths_are_numbered_from_1():
    """Depth 0 is refused with ValueError by first_violated_member and verify_witness, as by witness_point."""
    g = triangle_graph()
    package = build_witness_family(g, "graph", ("a", "b", "c", "a"))
    for check in (first_violated_member, verify_witness, lambda _, package, n: package.witness_point(n)):
        with pytest.raises(ValueError, match="indexed from 1"):
            check(g, package, 0)


def test_witness_rejects_bogus_certificates():
    g = star_bipartite_graph(2)  # closing walk everywhere, nothing to witness
    with pytest.raises(InvalidCertificateError):
        build_witness_family(g, "graph", ("x0", "x1", "x3", "x1"))
    with pytest.raises(InvalidCertificateError):
        build_witness_family(chain_poset(2), "poset", ("c2", "c1"))
    with pytest.raises(InvalidCertificateError):
        build_witness_family(chain_poset(2), "poset", ("c1", "c1"))  # leq is reflexive, but the pair is not strict
    with pytest.raises(InvalidCertificateError):
        build_witness_family(free_matroid(2), "matroid", ("e1", "e2", "e1"))
    with pytest.raises(InvalidCertificateError, match="graph certificates are quadruples"):
        build_witness_family(triangle_graph(), "graph", ("a", "b"))
    with pytest.raises(InvalidCertificateError, match="poset certificates are pairs"):
        build_witness_family(chain_poset(2), "poset", ("c1", "c2", "c2"))


def test_first_violated_member_refuses_a_wrong_package():
    """The predicted member is returned only if the point solves every earlier member and fails it."""
    g = triangle_graph()
    package = build_witness_family(g, "graph", ("a", "b", "c", "a"))  # E(x, stair(a; b)), point c..c a a ...
    assert first_violated_member(g, package, 3) == 4
    looped = WitnessPackage("graph", ("a", "b", "a", "a"))  # the point is constant a: E(a, a) fails member 2
    never = WitnessPackage("graph", ("c", "b", "c", "a"))  # the point is constant c: every member holds
    for bad in (looped, never):
        assert first_violated_member(g, bad, 3) is None
        assert not verify_witness(g, bad, 3)


def test_first_violated_member_names_an_unknown_label_as_the_truncation_checks_did():
    """A label outside the universe raises KeyError exactly when the point's check of members 1..m-1 or m reads it.

    The labels of the failing rows of members <= m - 1 are looked up first
    and, only if there are none, those of member m.  On the triangle at
    depth 3 (m = 4) every position of a quadruple puts "zz" in a failing row
    of member 1 or 2; so does either label of a chain pair.  At depth 1 the
    point is constant in the quadruple's first label, so the third is never
    read, and a failing row of member 1 keeps member 2's row, the only one
    holding "zz", from being looked up.
    """
    g = triangle_graph()
    unknown = "unknown universe element 'zz'"
    chain = chain_poset(2)
    quadruple = ("a", "b", "c", "a")
    cases = [(g, WitnessPackage("graph", quadruple[:k] + ("zz",) + quadruple[k + 1 :]), 3) for k in range(4)]
    cases += [(chain, WitnessPackage("poset", pair), n) for pair in (("zz", "c2"), ("c1", "zz")) for n in (1, 3)]
    cases.append((g, WitnessPackage("graph", ("a", "b", "c", "zz")), 1))  # member 1 holds, member m = 2 reads zz
    for structure, package, n in cases:
        for check in (first_violated_member, verify_witness):
            with pytest.raises(KeyError, match=unknown):
                check(structure, package, n)
    unread = WitnessPackage("graph", ("a", "b", "zz", "a"))  # the depth-1 point holds no zz
    assert first_violated_member(g, unread, 1) == 2 and verify_witness(g, unread, 1)
    earlier = WitnessPackage("graph", ("a", "a", "b", "zz"))  # E(a, a) fails member 1 before member 2 reads zz
    assert first_violated_member(g, earlier, 1) is None and not verify_witness(g, earlier, 1)


def test_failing_rows_match_the_oracle_at_every_switch():
    """The four-row closed form equals oracle_failing_members, dict for dict, on every certificate at switches 0..3.

    Certificates run over each fixture's labels plus "zz", outside the
    universe, obstruction or not.  The point is the rule's repeat below the
    switch and the point tail from there, and the oracle reads members
    1..switch + 2 of the family coordinate by coordinate: with L = 1 its
    docstring shows that no later member shows a new row.
    """
    lengths = {"pair": 2, "triple": 3, "quadruple": 4}
    cases = 0
    for kind, structure in support.fixture_structures().values():
        labels = (*structure.universe, "zz")
        for shape in KIND_CERTIFICATES[kind]:
            for certificate in product(labels, repeat=lengths[shape]):
                package = WitnessPackage(kind, certificate)
                repeat, point_tail, _ = package.witness_rule
                for switch in range(4):
                    point = PowerElement((repeat,) * switch, (point_tail,))
                    expected = support.oracle_failing_members(structure, package.family, {"x": point}, switch + 2)
                    assert noetherian._failing_rows(structure, package, switch) == expected, (package, switch)
                    cases += 1
    assert cases > 16000


def _folded_and_per_depth_answers(structure, package) -> list:
    """Assert first_violated_members and witness_at_every_depth against per-depth calls; return those answers.

    Depths run to 1 - offset + 5, five past the last checked depth.  A
    depth whose call raises KeyError answers with the message;
    first_violated_members(d) must raise it exactly when a depth <= d does,
    and otherwise list the answers of depths 1..d.
    """
    depth = 1 - package.witness_rule[2] + 5
    answers = []
    for n in range(1, depth + 1):
        try:
            answers.append(first_violated_member(structure, package, n))
        except KeyError as exc:
            answers.append(exc.args[0])

    def raised(check):
        try:
            return check()
        except KeyError as exc:
            return exc.args[0]

    def expected(d):
        return next((a for a in answers[:d] if isinstance(a, str)), answers[:d])

    for d in range(1, depth + 1):
        assert raised(lambda: first_violated_members(structure, package, d)) == expected(d), d
    every = expected(depth)
    every = every if isinstance(every, str) else None not in every
    assert raised(lambda: witness_at_every_depth(structure, package)) == every
    return answers


def test_folded_depths_match_the_per_depth_calls_on_every_certificate():
    """Every certificate of each fixture's kind over its labels, obstruction or not, and some with an unknown label.

    Most are not obstructions, so their points fail at some depths; some
    fail at depth 1 only or hold there only, where a quadruple's point is
    its tail alone.  Each package folds depths past 1 - offset onto depth
    1 - offset, and the fold matches the per-depth calls at the five depths
    after it.
    """
    lengths = {"pair": 2, "triple": 3, "quadruple": 4}
    mixed = 0
    cases = [(s, WitnessPackage(kind, labels)) for kind, s in support.fixture_structures().values()
             for shape in KIND_CERTIFICATES[kind] for labels in product(s.universe, repeat=lengths[shape])]
    quadruple = ("a", "b", "c", "a")
    cases += [(triangle_graph(), WitnessPackage("graph", quadruple[:k] + ("zz",) + quadruple[k + 1 :]))
              for k in range(4)]
    cases += [(chain_poset(2), WitnessPackage("poset", pair)) for pair in (("zz", "c2"), ("c1", "zz"))]
    for structure, package in cases:
        answers = _folded_and_per_depth_answers(structure, package)
        mixed += len({a is None for a in answers}) == 2
    assert len(cases) > 1500 and mixed > 0


def test_union_of_passing_graphs_passes_small():
    passing = [g for g in support.enumerate_graphs_up_to(3) if graph_quasi_identity(g) is None]
    for g in passing:
        for h in passing:
            assert graph_quasi_identity(support.disjoint_union(g, h)) is None


def test_verdict_json_round_trip():
    for verdict in [
        power_noetherian(triangle_graph(), "graph"),
        power_noetherian(antichain_poset(2), "poset"),
        power_noetherian(free_matroid(2), "matroid"),
    ]:
        doc = json.loads(json.dumps(verdict.to_json_dict()))
        assert NoetherianVerdict.from_json_dict(doc) == verdict


def test_witness_package_json_round_trip():
    package = build_witness_family(triangle_graph(), "graph", ("a", "b", "c", "a"))
    doc = json.loads(json.dumps(package.to_json_dict()))
    assert WitnessPackage.from_json_dict(doc) == package


def _verdict_doc():
    return json.loads(json.dumps(power_noetherian(triangle_graph(), "graph").to_json_dict()))


def _passing_verdict_doc():
    return json.loads(json.dumps(power_noetherian(star_bipartite_graph(2), "graph").to_json_dict()))


@pytest.mark.parametrize(
    "doc",
    [
        {"status": 7, "kind": None},
        {"status": 7, "kind": None, "certificate": None},
        {**_verdict_doc(), "status": "MAYBE"},
        {**_verdict_doc(), "kind": 3},
        {**_verdict_doc(), "surprise": 1},
        {key: value for key, value in _verdict_doc().items() if key != "certificate"},
        {**_verdict_doc(), "certificate": ["a", "b", "c", "a"]},
        {**_verdict_doc(), "certificate": {"quadruple": "abca"}},
        {**_verdict_doc(), "certificate": {"quadruple": ["a", "b", "c"]}},
        {**_verdict_doc(), "certificate": {"quadruple": ["a", "b", "c", 1]}},
        {**_verdict_doc(), "certificate": {"walk": ["a", "b", "c", "a"]}},
        {**_passing_verdict_doc(), "transcript": None},
        {**_passing_verdict_doc(), "transcript": 5},
        ["NOT_NOETHERIAN", "graph"],
    ],
)
def test_verdict_decoding_is_strict(doc):
    with pytest.raises(InputFormatError):
        NoetherianVerdict.from_json_dict(doc)


def _package_doc(structure=None, kind="graph", certificate=("a", "b", "c", "a")):
    package = build_witness_family(structure or triangle_graph(), kind, certificate)
    return json.loads(json.dumps(package.to_json_dict()))


def _mutated_package(edit, doc=None):
    doc = _package_doc() if doc is None else doc
    edit(doc)
    return doc


def _swap_repeat_and_tail(doc):
    rule = doc["witness_rule"]
    rule["repeat"], rule["tail"] = rule["tail"], rule["repeat"]


@pytest.mark.parametrize(
    "doc",
    [
        _mutated_package(lambda doc: doc.pop("certificate")),
        _mutated_package(lambda doc: doc.pop("witness_rule")),
        _mutated_package(lambda doc: doc.update(surprise=1)),
        _mutated_package(lambda doc: doc.update(kind=None)),
        _mutated_package(lambda doc: doc.update(variable=["x"])),
        _mutated_package(lambda doc: doc.update(certificate={"quadruple": ["a", "b"]})),
        _mutated_package(lambda doc: doc["witness_rule"].update(offset="-1")),
        _mutated_package(lambda doc: doc["witness_rule"].update(offset=True)),
        _mutated_package(lambda doc: doc["witness_rule"].update(repeat=3)),
        _mutated_package(lambda doc: doc["witness_rule"].pop("tail")),
        _mutated_package(lambda doc: doc.update(family={"rel": "E", "args": []})),
        "package",
    ],
)
def test_witness_package_decoding_is_strict(doc):
    with pytest.raises(InputFormatError):
        WitnessPackage.from_json_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {**_verdict_doc(), "kind": "generic"},
        {**_verdict_doc(), "certificate": None},
        {**_passing_verdict_doc(), "certificate": {"quadruple": ["x0", "x1", "x0", "x1"]}},
        {**_verdict_doc(), "certificate": {"pair": ["a", "b"]}},
        {**_verdict_doc(), "kind": "poset"},
        {**_passing_verdict_doc(), "status": "NO_OBSTRUCTION_FOUND"},
    ],
    ids=["kind-generic", "refuted-uncertified", "passing-certified", "graph-pair", "poset-quadruple", "retired-status"],
)
def test_verdict_copies_must_agree(doc):
    with pytest.raises(InputFormatError):
        NoetherianVerdict.from_json_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        _mutated_package(lambda doc: doc.update(kind="generic")),
        _mutated_package(lambda doc: doc.update(kind="poset")),
        _mutated_package(lambda doc: doc.update(certificate={"triple": ["a", "b", "c"]})),
        _mutated_package(lambda doc: doc.update(variable="y")),
        _mutated_package(
            lambda doc: doc["witness_rule"].update(offset=False),  # the pair package's offset is 0
            _package_doc(chain_poset(2), "poset", ("c1", "c2")),
        ),
        _mutated_package(lambda doc: doc.update(family=_package_doc(certificate=("b", "c", "a", "b"))["family"])),
        _mutated_package(_swap_repeat_and_tail),
    ],
    ids=["kind-generic", "poset-quadruple", "graph-triple", "variable", "offset-false", "other-family", "swapped-rule"],
)
def test_witness_package_copies_must_agree(doc):
    with pytest.raises(InputFormatError):
        WitnessPackage.from_json_dict(doc)

