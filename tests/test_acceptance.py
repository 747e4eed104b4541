"""End-to-end acceptance gate.

Each test checks one shipped guarantee at its stated budget and reports a
single PASS/FAIL line in the terminal summary (see conftest.record_acceptance).
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import support
from conftest import record_acceptance
from support import chain_poset, cycle_graph, free_matroid, path_graph, rank_one_matroid, star_bipartite_graph

from eqpower.fixtures import staircase_demo_system, triangle_graph
from eqpower.noetherian import (
    NOETHERIAN,
    NOT_NOETHERIAN,
    build_witness_family,
    first_violated_member,
    graph_quasi_identity,
    power_noetherian,
    verify_witness,
)
from eqpower.power import (
    PowerElement,
    PowerSystem,
    consistent,
    power_systems_equivalent,
    projected_system,
    satisfies,
    stream_horizon,
)
from eqpower.solver import Const, EquationSystem, RelationAtom, Var, solve
from eqpower.structures import EQUALITY, graph_from_edges, validate
from eqpower.wrap import verify_wrap, wrap

SEED = 20260821


def check(name: str, passed: bool, detail: str = "") -> None:
    record_acceptance(name, passed, detail)
    assert passed, f"{name}: {detail}"


def test_triangle_staircase_wrap_end_to_end():
    start = time.monotonic()
    g = triangle_graph()
    system = staircase_demo_system()
    result = wrap(g, system)
    listed = PowerSystem(
        ("x",),
        tuple(
            RelationAtom("E", (Var("x"), Const(stream)))
            for stream in (
                PowerElement(("b", "c"), ("a",)),
                PowerElement((), ("a",)),
                PowerElement(("b", "c"), ("b", "a")),
                PowerElement(("b", "c"), ("a", "c")),
            )
        ),
        (),
    )
    listed_check = verify_wrap(g, system, listed)
    elapsed = time.monotonic() - start
    passed = (
        len(result.wrapped.explicit) <= 4
        and result.verified
        and result.bound_ok
        and listed_check
        and elapsed < 1.0
    )
    check(
        "wrap-triangle-staircase",
        passed,
        f"{len(result.wrapped.explicit)} equations, verified={result.verified}, "
        f"known 4-equation compression verified={listed_check}, {elapsed:.3f}s",
    )


def _has_two_member_equivalent(graph, family_system) -> bool:
    stab, period = stream_horizon(family_system)
    members = [family_system.families[0].member(n) for n in range(1, stab + period + 3)]
    subsystems = [(m,) for m in members]
    subsystems += list(combinations(members, 2))
    for chosen in subsystems:
        candidate = PowerSystem(family_system.variables, tuple(chosen), ())
        if power_systems_equivalent(graph, family_system, candidate):
            return True
    return False


def test_graph_dichotomy_all_graphs_up_to_five_vertices():
    start = time.monotonic()
    rng = random.Random(SEED)
    failing = passing = 0
    witness_misses = 0
    compression_misses = 0
    for g in support.enumerate_graphs_up_to(5):
        quadruple = graph_quasi_identity(g)
        if quadruple is not None:
            failing += 1
            package = build_witness_family(g, "graph", quadruple)
            if not all(verify_witness(g, package, n) for n in range(1, 9)):
                witness_misses += 1
        else:
            passing += 1
            labels = list(g.universe)
            for _ in range(50):
                family = support.edge_staircase_family(rng, labels)
                if not _has_two_member_equivalent(g, family):
                    compression_misses += 1
    elapsed = time.monotonic() - start
    passed = witness_misses == 0 and compression_misses == 0 and elapsed < 120.0
    check(
        "graph-dichotomy-small-graphs",
        passed,
        f"{failing} failing graphs witnessed to depth 8 ({witness_misses} misses); "
        f"{passing} passing graphs x 50 families each equivalent to <= 2 own members "
        f"({compression_misses} misses); {elapsed:.1f}s",
    )


def test_quasi_identity_preserving_constructions():
    star_bad = []
    for n in range(1, 21):
        star = star_bipartite_graph(n)
        connected = all(d != math.inf for d in support.graph_distances(star).values())
        if graph_quasi_identity(star) is not None or not connected or star.size != n + 2:
            star_bad.append(n)
    passing = [g for g in support.enumerate_graphs_up_to(4) if graph_quasi_identity(g) is None]
    union_bad = 0
    for g in passing:
        for h in passing:
            if graph_quasi_identity(support.disjoint_union(g, h)) is not None:
                union_bad += 1
    passed = not star_bad and union_bad == 0
    check(
        "star-and-union-constructions",
        passed,
        f"two-sided stars n<=20 pass, stay connected, have n+2 vertices; "
        f"{len(passing) ** 2} pairwise unions of {len(passing)} passing graphs all pass",
    )


def test_two_chain_staircase_points():
    chain = chain_poset(2)
    verdict = power_noetherian(chain, "poset")
    package = build_witness_family(chain, "poset", verdict.certificate)
    family_system = support.family_system(package)

    bottom = PowerElement((), ("c1",))
    bottom_ok = satisfies(chain, family_system, (bottom,))
    stab, period = stream_horizon(family_system)
    unique_ok = all(
        solve(chain, projected_system(family_system, i)).points == {("c1",)}
        for i in range(stab + 2 * period)
    )

    point_ok = True
    for n in range(1, 11):
        point = package.witness_point(n)
        if point[0] != PowerElement(("c1",) * n, ("c2",)):
            point_ok = False
        if not satisfies(chain, package.truncation(n + 1), point):
            point_ok = False
        next_member = PowerSystem((package.variable,), (package.family.member(n + 2),), ())
        if satisfies(chain, next_member, point):
            point_ok = False
        if first_violated_member(chain, package, n) != n + 2:
            point_ok = False

    check(
        "two-chain-staircase-points",
        bottom_ok and unique_ok and point_ok,
        "constant bottom stream is the unique solution; the point with n leading bottom "
        "entries solves exactly the members whose constants carry at most n of them",
    )


def test_matroid_verdicts_and_graph_reduction_agreement():
    fm3 = free_matroid(3)
    verdict = power_noetherian(fm3, "matroid")
    fm3_ok = verdict.status == NOT_NOETHERIAN
    if fm3_ok:
        package = build_witness_family(fm3, "matroid", verdict.certificate)
        fm3_ok = all(verify_witness(fm3, package, n) for n in range(1, 11))
    small_ok = (
        power_noetherian(free_matroid(2), "matroid").status == NOETHERIAN
        and power_noetherian(rank_one_matroid(2), "matroid").status == NOETHERIAN
    )

    valid = 0
    disagreements = 0
    for size in (1, 2, 3):
        for m in support.enumerate_independence_systems(size):
            if not validate(m, "matroid").passed:
                continue
            valid += 1
            lib = power_noetherian(m, "matroid").status
            has_triple = m.signature.has("P3") and bool(m.tuples("P3"))
            pair_rows = m.tuples("P2") if m.signature.has("P2") else ()
            pair_graph = graph_from_edges(m.universe, pair_rows)
            graph_fails = support.quasi_identity_oracle(pair_graph) is not None
            direct = NOT_NOETHERIAN if (has_triple or graph_fails) else NOETHERIAN
            via_graph = NOT_NOETHERIAN if graph_quasi_identity(pair_graph) is not None else NOETHERIAN
            if not (lib == direct == via_graph):
                disagreements += 1

    check(
        "matroid-verdicts-and-reduction",
        fm3_ok and small_ok and disagreements == 0,
        f"rank-3 free matroid witnessed to depth 10; rank-2 free and rank-1 pass; "
        f"{valid} valid independence systems on <= 3 elements, {disagreements} "
        "disagreements between the triple condition and the pair-graph reduction",
    )


def test_wrap_size_bound_on_random_systems():
    start = time.monotonic()
    rng = random.Random(SEED)
    worst = 0
    bad = 0
    for _ in range(100):
        structure = support.random_relational_structure(rng)
        system = support.random_power_system(rng, structure)
        result = wrap(structure, system)
        limit = 2 ** (structure.size ** len(system.variables) + 1)
        worst = max(worst, len(result.wrapped.explicit))
        if len(result.wrapped.explicit) > limit or not result.verified or not result.bound_ok:
            bad += 1
    elapsed = time.monotonic() - start
    passed = bad == 0 and elapsed < 60.0
    check(
        "wrap-size-bound-random",
        passed,
        f"100 seeded systems, worst wrapped size {worst}, {bad} bound or verification "
        f"failures, {elapsed:.1f}s",
    )


def test_planted_inconsistency_certificates():
    rng = random.Random(SEED)
    bad = 0
    for _ in range(50):
        structure = support.random_relational_structure(rng)
        while structure.size < 2:
            structure = support.random_relational_structure(rng)
        labels = list(structure.universe)
        coord = rng.randint(0, 4)
        shared = tuple(rng.choice(labels) for _ in range(coord))
        low, high = rng.sample(labels, 2)
        system = PowerSystem(
            ("x", "y"),
            (
                RelationAtom(EQUALITY, (Var("x"), Const(PowerElement(shared + (low,), (low,))))),
                RelationAtom(EQUALITY, (Var("x"), Const(PowerElement(shared + (high,), (high,))))),
                RelationAtom(EQUALITY, (Var("y"), Const(support.random_stream(rng, labels)))),
            ),
            (),
        )
        verdict = consistent(structure, system)
        ok = not verdict.consistent and verdict.certificate is not None
        if ok:
            cert = verdict.certificate
            core = cert.core
            ok = cert.coordinate == coord and not solve(structure, core).points
            for r in range(len(core.equations)):
                for subset in combinations(core.equations, r):
                    sub = EquationSystem(core.variables, subset)
                    if not solve(structure, sub).points:
                        ok = False
        if not ok:
            bad += 1
    check(
        "planted-inconsistency-certificates",
        bad == 0,
        f"50 seeded systems each refuted at the planted coordinate with a core that is "
        f"inconsistent while all its proper subsets are consistent; {bad} failures",
    )


def test_structural_check_vs_quasi_identity_regression():
    expected = ("v1", "v2", "v3", "v4")
    ok = True
    for g in (path_graph(4), cycle_graph(5)):
        structural = support.graph_structural_check(g)
        quadruple = graph_quasi_identity(g)
        oracle = support.quasi_identity_oracle(g)
        if not structural or quadruple != expected or oracle != expected:
            ok = False
    check(
        "structural-check-discrepancy",
        ok,
        "path-4 and cycle-5 pass the local structural test yet fail the walk-closing "
        f"condition, first at quadruple {', '.join(expected)}",
    )
