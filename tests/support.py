"""Test-local helpers and independent oracles.

Everything here recomputes results from first principles (plain nested loops
over raw tables) so library behavior is checked against genuinely separate
logic, not against itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
from itertools import combinations, count, permutations, product
from operator import and_
from unittest import mock

from eqpower import power
from eqpower.fixtures import triangle_graph
from eqpower.power import (
    Periodic,
    PowerElement,
    PowerSystem,
    SourceRef,
    Staircase,
    StaircaseFamily,
    horizon,
    power_systems_equivalent,
    project_equation,
    stream_horizon,
)
from eqpower.solver import (
    AtomClassifier,
    Const,
    EquationSystem,
    RelationAtom,
    Var,
    _RowMasks,
    const_values,
    evaluate,
    map_constants,
)
from eqpower.structures import (
    EQUALITY,
    GRAPH_EDGE_SYMBOL,
    POSET_ORDER_SYMBOL,
    FiniteStructure,
    Signature,
    graph_from_edges,
    matroid_signature,
    poset_signature,
)
from eqpower.wrap import ClassRep


# --- structures and streams the tests build -------------------------------


def constant_stream(value: str) -> PowerElement:
    return PowerElement((), (value,))


def path_graph(n: int) -> FiniteStructure:
    """Path v1 - v2 - ... - vn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"v{i}" for i in range(1, n + 1)]
    return graph_from_edges(labels, zip(labels, labels[1:]))


def cycle_graph(n: int) -> FiniteStructure:
    """Cycle v1 - ... - vn - v1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return graph_from_edges(labels, edges)


def star_bipartite_graph(n: int) -> FiniteStructure:
    """Vertices x0..x{n+1}; x0 and x{n+1} are both joined to every middle vertex.

    The result is the complete bipartite graph with parts {x0, x{n+1}} and
    {x1..xn}, so it has n + 2 vertices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"x{i}" for i in range(n + 2)]
    edges = [(labels[0], labels[i]) for i in range(1, n + 1)]
    edges += [(labels[i], labels[n + 1]) for i in range(1, n + 1)]
    return graph_from_edges(labels, edges)


def chain_poset(n: int) -> FiniteStructure:
    """Total order c1 <= c2 <= ... <= cn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"c{i}" for i in range(1, n + 1)]
    rows = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)]
    return FiniteStructure(poset_signature(), labels, {POSET_ORDER_SYMBOL: rows})


def antichain_poset(n: int) -> FiniteStructure:
    """Poset in which distinct elements are incomparable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"c{i}" for i in range(1, n + 1)]
    return FiniteStructure(poset_signature(), labels, {POSET_ORDER_SYMBOL: [(u, u) for u in labels]})


def free_matroid(n: int) -> FiniteStructure:
    """Every repeat-free tuple over n ground elements is independent."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"e{i}" for i in range(1, n + 1)]
    tables = {f"P{k}": [tuple(p) for p in permutations(labels, k)] for k in range(1, n + 1)}
    return FiniteStructure(matroid_signature(n), labels, tables)


def rank_one_matroid(n: int) -> FiniteStructure:
    """Singletons are independent, pairs never are."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"e{i}" for i in range(1, n + 1)]
    return FiniteStructure(matroid_signature(2), labels, {"P1": [(u,) for u in labels], "P2": []})


def structure_to_json_dict(structure: FiniteStructure, kind: str) -> dict:
    """The structure file layout that structure_from_json_dict reads."""
    relations = {}
    for name, arity in structure.signature.symbols:
        relations[name] = {"arity": arity, "tuples": [list(row) for row in structure.tuples(name)]}
    return {"kind": kind, "universe": list(structure.universe), "relations": relations}


def label_table(structure: FiniteStructure, symbol: str) -> frozenset:
    """The symbol's rows as label tuples, so a row is looked up by its labels and not through universe indices."""
    return frozenset(structure.tuples(symbol))


# --- oracles ----------------------------------------------------------------


def staircase_value_at(stair: Staircase, n: int, i: int) -> str:
    """Coordinate i of member n's constant: the generator at i <= n - 2, then the tail restarted at n - 1.

    The oracles' own copy of the staircase rule, so they do not read
    StaircaseFamily.generator_rows or tail_rows.
    """
    if i <= n - 2:
        return stair.generator[i % len(stair.generator)]
    return stair.tail.at(i - (n - 1))


def staircase_family_horizon(stairs) -> tuple[int, int]:
    """(stabilization, period) of one staircase family, from its Staircase descriptors alone.

    The stabilization is the largest tail prefix plus C, the lcm of the tail
    cycles; the period is the lcm of C and the generator lengths.
    """
    tail_prefix = max(len(s.tail.prefix) for s in stairs)
    tail_cycle = math.lcm(*(len(s.tail.cycle) for s in stairs))
    period = math.lcm(tail_cycle, *(len(s.generator) for s in stairs))
    return tail_prefix + tail_cycle, period


def oracle_projection(system: PowerSystem, i: int) -> list:
    """Every equation of pi_i(system) by staircase_value_at, in coordinate_profile's order.

    The explicit ones come first, then per family members i + 1 down to 1,
    whose coordinate i reads tail positions 0..i, then member i + 2, which
    reads the generator there.  Members past i + 2 project like member i + 2.
    """
    atoms = [project_equation(eq, i) for eq in system.explicit]
    for fam in system.families:
        for n in (*range(i + 1, 0, -1), i + 2):
            atoms.append(map_constants(fam.atom, lambda s: staircase_value_at(s, n, i)))
    return atoms


def reference_projection_entries(system: PowerSystem, i: int) -> dict:
    """projection_entries without the member cut: every member 1..i + 2 written out and projected.

    Each member is written out with StaircaseFamily.member and projected with
    project_equation, so neither row table of the family is read.  Each
    distinct atom keeps its earliest source: explicit equations by index,
    then families by index with members by ascending n.
    """
    out = {}
    for idx, eq in enumerate(system.explicit):
        out.setdefault(project_equation(eq, i), SourceRef(idx))
    for fidx, fam in enumerate(system.families):
        for n in range(1, i + 3):
            out.setdefault(project_equation(fam.member(n), i), SourceRef(fidx, n))
    return out


def oracle_projection_entries(system: PowerSystem, i: int) -> dict:
    """reference_projection_entries with each member read at i by staircase_value_at, not written out.

    The same uncut walk, members 1..i + 2 by ascending n, each
    distinct atom keeping its earliest source; reading a member's slot
    values at one coordinate keeps coordinates in the thousands cheap.
    """
    out = {}
    for idx, eq in enumerate(system.explicit):
        out.setdefault(project_equation(eq, i), SourceRef(idx))
    for fidx, fam in enumerate(system.families):
        for n in range(1, i + 3):
            out.setdefault(map_constants(fam.atom, lambda s: staircase_value_at(s, n, i)), SourceRef(fidx, n))
    return out


def with_slot_values(atom, values):
    """The atom with its constant slots, in argument order, holding the values."""
    slot = iter(values)
    return map_constants(atom, lambda _: next(slot))


@contextlib.contextmanager
def counted_row_classifications():
    """Yield a list that gets, per row AtomClassifier classifies (a miss of its row memo), the atom it stands for."""
    built = []
    missing = _RowMasks.__missing__

    def counted(self, row):
        built.append(with_slot_values(self._template, row))
        return missing(self, row)

    with mock.patch.object(_RowMasks, "__missing__", counted):
        yield built


@contextlib.contextmanager
def explicit_zips(*systems: PowerSystem):
    """Yield a list that gets the streams of each eqpower.power.zip_streams call holding an explicit constant.

    The constants are those of the systems' explicit equations, compared by
    identity, so a family stream equal to one of them is not counted.
    """
    constants = {id(c) for system in systems for eq in system.explicit for c in const_values(eq)}
    zipped = []
    zip_streams = power.zip_streams

    def spied(streams):
        if any(id(s) in constants for s in streams):
            zipped.append(streams)
        return zip_streams(streams)

    with mock.patch.object(power, "zip_streams", spied):
        yield zipped


def move_to_front_rows(fam: StaircaseFamily):
    """Per coordinate i = 0, 1, ..: the family's distinct slot-value rows at i in ascending member order.

    Each row maps to its least member.  Member n <= i + 1 shows the joint
    tail row at position i - n + 1, member i + 2 the generator row at i, and
    later members repeat member i + 2.  So a row's least tail member is
    i - j + 1 for its latest position j <= i.  `latest` keeps each row's
    latest position fed so far, ordered by it: feeding i moves its row to
    the end, and reversed it lists the tail rows in ascending member order.
    The generator row follows when no tail member shows that row.
    """
    generators, tails = fam.generator_rows, fam.tail_rows
    latest = {}  # row -> its latest tail position, in the order of those positions
    for i in count():
        row = tails.at(i)
        latest.pop(row, None)
        latest[row] = i
        rows = {row: i - j + 1 for row, j in reversed(latest.items())}
        rows.setdefault(generators[i % len(generators)], i + 2)
        yield rows


def projected_rows(eq):
    """Per coordinate i, the one row of the explicit equation's slot values at i, read by project_equation."""
    for i in count():
        yield [const_values(project_equation(eq, i))]


def reference_row_masks(structure: FiniteStructure, system: PowerSystem, stop: int):
    """Per coordinate i < stop, the masks of pi_i's rows in projection order, by a per-coordinate scan.

    Entry i lists each explicit equation's projected_rows item for i, then
    each family's move_to_front_rows item for i, one memo per source from
    rows to masks.  It reads no running tail masks, no residue and no
    zipped constants.
    """
    classifier = AtomClassifier.of(structure, system.variables)
    sources = [(eq, projected_rows(eq)) for eq in system.explicit]
    sources += [(fam.atom, move_to_front_rows(fam)) for fam in system.families]
    memos = [{} for _ in sources]
    for _ in range(stop):
        entry = []
        for seen, (atom, scan) in zip(memos, sources):
            for values in next(scan):
                if values not in seen:
                    seen[values] = classifier.mask(with_slot_values(atom, values))
                entry.append(seen[values])
        yield entry


def reference_coordinate_profile(structure: FiniteStructure, system: PowerSystem) -> Periodic:
    """coordinate_profile in projection order: reference_row_masks below stab + period, first occurrences kept.

    It is the reference for the profile's columns, and for the order in
    which wrap discovers solution sets.
    """
    stab, period = stream_horizon(system)
    table = [tuple(dict.fromkeys(entry)) for entry in reference_row_masks(structure, system, stab + period)]
    return Periodic(tuple(table[:stab]), tuple(table[stab:]))


def reference_coordinate_masks(structure: FiniteStructure, system: PowerSystem, stop: int) -> list:
    """coordinate_masks as a per-coordinate scan: the AND of the masks reference_row_masks lists at each i < stop."""
    full = AtomClassifier.of(structure, system.variables).full
    return [functools.reduce(and_, entry, full) for entry in reference_row_masks(structure, system, stop)]


def oracle_atom_solutions(structure: FiniteStructure, variables, eq) -> frozenset:
    """Solution set of one atom by evaluating it under every assignment, one dict each."""
    pts = set()
    for combo in product(structure.universe, repeat=len(variables)):
        if evaluate(structure, eq, dict(zip(variables, combo))):
            pts.add(combo)
    return frozenset(pts)


def oracle_profile(structure: FiniteStructure, system: PowerSystem, i: int) -> frozenset:
    """The distinct solution sets of oracle_projection(system, i), each by oracle_atom_solutions."""
    atoms = set(oracle_projection(system, i))  # members far apart often project to the same atom
    return frozenset(oracle_atom_solutions(structure, system.variables, atom) for atom in atoms)


def oracle_satisfies(structure: FiniteStructure, system: PowerSystem, point) -> bool:
    """Membership by scanning every coordinate projection up to the joint horizon of system and point.

    Below max(stabilization, point prefixes) + lcm(period, point cycles) every
    projected equation is evaluated under the point's values at that
    coordinate; beyond it both system and point repeat.
    """
    if len(point) != len(system.variables):
        raise ValueError(f"point has {len(point)} entries for variables {system.variables}")
    stab, period = stream_horizon(system)
    stab = max([stab] + [len(pe.prefix) for pe in point])
    period = math.lcm(period, *(len(pe.cycle) for pe in point))
    for i in range(stab + period):
        assignment = {v: pe.at(i) for v, pe in zip(system.variables, point)}
        for atom in oracle_projection(system, i):
            if not evaluate(structure, atom, assignment):
                return False
    return True


def oracle_failing_members(structure: FiniteStructure, family: StaircaseFamily, streams, last: int) -> dict:
    """Each argument row of members 1..last that the relation lacks, at a point, mapped to the least member showing it.

    `streams` gives the point's entry per variable name.  Member n is read
    coordinate by coordinate with staircase_value_at below its joint horizon
    with the point: from max(n - 1 + tail prefixes, point prefixes) on both
    repeat with the lcm of the tail and point cycles.

    At the switch point PowerElement((before,) * switch, (after,)) this is
    the family's whole map once last = switch + L + 1, L the lcm
    of the generator lengths: a member n > switch + L + 1 shows no row that
    an earlier member does not.  At a coordinate i <= n - 2 it shows the
    generator row at residue r = i mod L; below switch member r + 2 shows
    the same row at coordinate r, and from switch on member i' + 2 does, at
    the least i' = r (mod L) with i' >= max(r, switch), so i' + 2 <=
    switch + L + 1.  At i >= n - 1 > switch it shows `after` with tail
    position j = i - n + 1, which member 1 shows at coordinate j when
    j >= switch and member switch - j + 1 shows at coordinate switch when
    j < switch.
    """
    stairs = [a.value for a in family.atom.args if isinstance(a, Const)]
    points = [streams[a.name] for a in family.atom.args if isinstance(a, Var)]
    period = math.lcm(*(len(s.tail.cycle) for s in stairs), *(len(pe.cycle) for pe in points))
    table = label_table(structure, family.atom.symbol)
    failing: dict = {}
    for n in range(1, last + 1):
        stab = max([n - 1 + len(s.tail.prefix) for s in stairs] + [len(pe.prefix) for pe in points], default=0)
        for i in range(stab + period):
            row = tuple(
                streams[a.name].at(i) if isinstance(a, Var) else staircase_value_at(a.value, n, i)
                for a in family.atom.args
            )
            if row not in table:
                failing.setdefault(row, n)
    return failing


def explicit_members(family: StaircaseFamily, n: int) -> tuple:
    """Members 1..n of a family, each written out as an explicit equation."""
    return tuple(family.member(m) for m in range(1, n + 1))


def truncate_some(rng: random.Random, system: PowerSystem, most: int) -> PowerSystem:
    """The system with each family, with probability 0.35, replaced by its members 1..N, N drawn from 1..most.

    The members are written out by explicit_members after the system's own
    explicit equations, so a draw sees finite truncations beside whole
    families.
    """
    explicit, families = list(system.explicit), []
    for fam in system.families:
        if rng.random() < 0.35:
            explicit += explicit_members(fam, rng.randint(1, most))
        else:
            families.append(fam)
    return PowerSystem(system.variables, tuple(explicit), tuple(families))


def family_system(package) -> PowerSystem:
    """The witness package's whole family as a system: every member, unbounded."""
    return PowerSystem((package.variable,), (), (package.family,))


def quaternary_structure() -> FiniteStructure:
    """The generic structure on a, b with one 4-ary Q whose every obstruction shape has two constant slots."""
    rows = [("a", "a", "a", "b"), ("a", "b", "b", "b"), ("b", "a", "a", "a")]
    return FiniteStructure(Signature((("Q", 4),)), ("a", "b"), {"Q": rows})


def fixture_structures() -> dict[str, tuple[str, FiniteStructure]]:
    """Name -> (kind, structure) for the files shipped under fixtures/."""
    return {
        "triangle": ("graph", triangle_graph()),
        "path4": ("graph", path_graph(4)),
        "cycle5": ("graph", cycle_graph(5)),
        "star3": ("graph", star_bipartite_graph(3)),
        "chain2": ("poset", chain_poset(2)),
        "antichain3": ("poset", antichain_poset(3)),
        "free_matroid2": ("matroid", free_matroid(2)),
        "free_matroid3": ("matroid", free_matroid(3)),
        "rank_one_matroid2": ("matroid", rank_one_matroid(2)),
    }


def planted_structures() -> dict[str, tuple[str, FiniteStructure]]:
    """The fixture structures and quaternary_structure, on which planted_power_system draws two-slot families."""
    return {**fixture_structures(), "quaternary": ("generic", quaternary_structure())}


def random_solution_points(rng: random.Random, structure: FiniteStructure, system: PowerSystem) -> list:
    """A point that solves the system and one that fails it at a random coordinate, or [] if none solves.

    The first point takes a random solution of pi_i(system), found by
    brute_solutions, at each coordinate i below the system's stabilization
    plus one period, and repeats the last period after that.  The second
    takes a random non-solution instead at one random coordinate that has
    one, if any does.
    """
    stab, period = stream_horizon(system)
    universe = list(product(structure.universe, repeat=len(system.variables)))
    columns, misses = [], []
    for i in range(stab + period):
        atoms = tuple(oracle_projection(system, i))
        solutions = brute_solutions(structure, EquationSystem(system.variables, atoms))
        if not solutions:
            return []
        columns.append(rng.choice(sorted(solutions)))
        misses.append([values for values in universe if values not in solutions])

    def point(columns):
        rows = [[column[k] for column in columns] for k in range(len(system.variables))]
        return tuple(PowerElement(tuple(row[:stab]), tuple(row[stab:])) for row in rows)

    missable = [i for i, values in enumerate(misses) if values]
    if not missable:
        return [point(columns)]
    i = rng.choice(missable)
    return [point(columns), point(columns[:i] + [rng.choice(misses[i])] + columns[i + 1 :])]


def oracle_first_violated_member(structure: FiniteStructure, package, n: int, search_limit: int = 8):
    """Smallest member index beyond n that witness_point(n) fails, by oracle_satisfies on each member.

    The scan stops after search_limit members and then returns None.
    """
    point = package.witness_point(n)
    for m in range(n + 1, n + 1 + search_limit):
        member = PowerSystem((package.variable,), (package.family.member(m),), ())
        if not oracle_satisfies(structure, member, point):
            return m
    return None


def reference_class_representatives(structure: FiniteStructure, system: PowerSystem, profile) -> tuple:
    """wrap's greedy cover with every family member up to the profile's horizon plus one as a candidate.

    No cut at member L + 1: each candidate is projected at every coordinate
    of its own horizon, a candidate is taken for a strictly larger count of
    uncovered sets than every earlier one, and each set gets the least
    coordinate at which its source realizes it.
    """
    classifier = AtomClassifier(structure, system.variables)
    discovery = list(dict.fromkeys(m for masks in profile.prefix + profile.cycle for m in masks))
    last = len(profile.prefix) + len(profile.cycle) + 1
    candidates = [(SourceRef(idx), eq) for idx, eq in enumerate(system.explicit)]
    for fidx, fam in enumerate(system.families):
        candidates += [(SourceRef(fidx, n), fam.member(n)) for n in range(1, last + 1)]
    coverage = []
    for ref, eq in candidates:
        streams = [v for v in const_values(eq) if isinstance(v, PowerElement)]
        realized = {}
        for i in range(sum(horizon(streams))):
            realized.setdefault(classifier.mask(project_equation(eq, i)), i)
        coverage.append((ref, eq, {m: i for m, i in realized.items() if m in discovery}))
    uncovered, assignment = set(discovery), {}
    while uncovered:
        gains = [len(uncovered & realized.keys()) for _, _, realized in coverage]
        if not max(gains):
            raise AssertionError("an uncovered solution set has no source")
        ref, eq, realized = coverage[gains.index(max(gains))]
        for m in uncovered & realized.keys():
            assignment[m] = (realized[m], ref, eq)
        uncovered -= realized.keys()
    reps = []
    for m in discovery:
        coord, ref, eq = assignment[m]
        reps.append(ClassRep(classifier.decode(m), project_equation(eq, coord), coord, ref))
    return tuple(reps)


def brute_solutions(structure: FiniteStructure, system: EquationSystem) -> frozenset:
    """Independent solver: evaluate every atom against every assignment directly."""
    pts = set()
    for combo in product(structure.universe, repeat=len(system.variables)):
        env = dict(zip(system.variables, combo))

        def val(a):
            return env[a.name] if isinstance(a, Var) else a.value

        ok = True
        for eq in system.equations:
            values = tuple(val(a) for a in eq.args)
            if eq.symbol == EQUALITY:  # by value, not through the structure's diagonal table
                ok = len(values) == 2 and values[0] == values[1]
            else:
                ok = structure.holds(eq.symbol, values)
            if not ok:
                break
        if ok:
            pts.add(combo)
    return frozenset(pts)


def brute_minimal_core(structure: FiniteStructure, system: EquationSystem):
    """Deletion-minimal core by trying each position in list order against brute_solutions."""
    if brute_solutions(structure, system):
        return None
    core = list(system.equations)
    pos = 0
    while pos < len(core):
        trial = core[:pos] + core[pos + 1 :]
        if brute_solutions(structure, EquationSystem(system.variables, tuple(trial))):
            pos += 1
        else:
            core = trial
    return EquationSystem(system.variables, tuple(core))


def enumerate_graphs(n: int):
    """All labeled graphs on vertices v1..vn, by edge subset."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(combinations(labels, 2))
    for bits in range(2 ** len(pairs)):
        yield graph_from_edges(labels, [p for i, p in enumerate(pairs) if bits >> i & 1])


def enumerate_graphs_up_to(n: int):
    for size in range(1, n + 1):
        yield from enumerate_graphs(size)


def adjacency(graph: FiniteStructure) -> dict[int, tuple[int, ...]]:
    """Neighbour indices per vertex index, each list sorted ascending, read off the edge table."""
    table = graph.index_table(GRAPH_EDGE_SYMBOL)
    return {x: tuple(sorted(y for v, y in table if v == x)) for x in range(graph.size)}


def has_triangle(graph: FiniteStructure) -> tuple[str, str, str] | None:
    """Lexicographically least triple (x1, x2, x3) of pairwise adjacent vertices, if any."""
    neigh = adjacency(graph)
    table = graph.index_table(GRAPH_EDGE_SYMBOL)
    for x1 in range(graph.size):
        for x2 in neigh[x1]:
            for x3 in neigh[x2]:
                if (x3, x1) in table:
                    return (graph.label(x1), graph.label(x2), graph.label(x3))
    return None


def graph_distances(graph: FiniteStructure) -> dict[tuple[str, str], float]:
    """All-pairs hop distances; unreachable pairs map to math.inf."""
    neigh = adjacency(graph)
    out: dict[tuple[str, str], float] = {}
    for start in range(graph.size):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in neigh[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v in range(graph.size):
            out[(graph.label(start), graph.label(v))] = dist.get(v, math.inf)
    return out


def graph_structural_check(graph: FiniteStructure) -> bool:
    """Triangle-free and every finite distance at most 3.

    This condition is NOT equivalent to the quasi-identity (the 4-path and the
    5-cycle satisfy it yet fail the quasi-identity), so no verdict relies on
    it; the acceptance tests use it to pin that disagreement.
    """
    if has_triangle(graph) is not None:
        return False
    return all(d == float("inf") or d <= 3 for d in graph_distances(graph).values())


def quasi_identity_oracle(graph: FiniteStructure):
    """First violating quadruple by brute product scan, or None.

    Scans every quadruple in index order and tests premises explicitly, so it
    shares no traversal logic with the library's adjacency-driven version.
    """
    labels = graph.universe
    for x1, x2, x3, x4 in product(labels, repeat=4):
        if (
            graph.holds("E", (x1, x2))
            and graph.holds("E", (x2, x3))
            and graph.holds("E", (x3, x4))
            and not graph.holds("E", (x4, x1))
        ):
            return (x1, x2, x3, x4)
    return None


def disjoint_union(g: FiniteStructure, h: FiniteStructure) -> FiniteStructure:
    labels = [f"a_{u}" for u in g.universe] + [f"b_{u}" for u in h.universe]
    edges = [(f"a_{x}", f"a_{y}") for x, y in g.tuples("E")]
    edges += [(f"b_{x}", f"b_{y}") for x, y in h.tuples("E")]
    return graph_from_edges(labels, edges)


def reference_matroid_violations(structure: FiniteStructure) -> list:
    """validate's matroid violations, kept here as a fixed copy: the exchange check tries short + (y,) for every pair.

    For each shorter row it re-sorts P_{n+1} and asks, per longer row,
    whether any entry y extends the shorter one.  structures' version does
    the same today; this copy stays so that any faster exchange check
    written there later is compared against the plain one.
    """
    m = len(structure.signature.symbols)
    tables = {n: structure.index_table(f"P{n}") for n in range(1, m + 1)}
    out = []

    def labels(row):
        return tuple(structure.label(i) for i in row)

    for n in range(1, m + 1):
        for row in sorted(tables[n]):
            if len(set(row)) != len(row):
                out.append(("no repeated elements", labels(row)))
    for n in range(2, m + 1):
        for row in sorted(tables[n]):
            if any(row[:i] + row[i + 1 :] not in tables[n - 1] for i in range(n)):
                out.append(("hereditary", labels(row)))
    for n in range(1, m):
        for short in sorted(tables[n]):
            for long in sorted(tables[n + 1]):
                if not any(short + (y,) in tables[n + 1] for y in long):
                    out.append(("exchange", labels(short) + labels(long)))
    return out


def enumerate_independence_systems(universe_size: int):
    """Every assignment of P1..Pu tables over repeat-free tuples, validated or not."""
    labels = [f"e{i}" for i in range(1, universe_size + 1)]
    sig = matroid_signature(universe_size)
    per_arity = [list(permutations(labels, k)) for k in range(1, universe_size + 1)]
    choices = []
    for rows in per_arity:
        choices.append(
            [[rows[i] for i in range(len(rows)) if bits >> i & 1] for bits in range(2 ** len(rows))]
        )
    for combo in product(*choices):
        tables = {f"P{k + 1}": rows for k, rows in enumerate(combo)}
        yield FiniteStructure(sig, labels, tables)


def enumerate_posets(n: int):
    """All labeled partial orders on p1..pn, by subset of strict pairs, kept if antisymmetric and transitive."""
    labels = [f"p{i}" for i in range(1, n + 1)]
    pairs = list(permutations(labels, 2))
    for bits in range(2 ** len(pairs)):
        strict = {p for i, p in enumerate(pairs) if bits >> i & 1}
        if any((b, a) in strict for a, b in strict):
            continue
        if any((a, d) not in strict for a, b in strict for c, d in strict if b == c):
            continue
        rows = [(u, u) for u in labels] + sorted(strict)
        yield FiniteStructure(poset_signature(), labels, {POSET_ORDER_SYMBOL: rows})


def enumerate_posets_up_to(n: int):
    for size in range(1, n + 1):
        yield from enumerate_posets(size)


def enumerate_matroids_from_bases(n: int):
    """All labelled matroids on e1..en, one per basis family: equal-size subsets with the exchange axiom.

    P_k holds every ordering of every k-element subset of a basis, for
    k = 1..n, which is the layout free_matroid uses.
    """
    labels = [f"e{i}" for i in range(1, n + 1)]
    for rank in range(n + 1):
        subsets = [frozenset(c) for c in combinations(labels, rank)]
        for bits in range(1, 2 ** len(subsets)):
            bases = [b for i, b in enumerate(subsets) if bits >> i & 1]
            if not all(any((a - {x}) | {y} in bases for y in b - a) for a in bases for b in bases for x in a - b):
                continue
            tables = {f"P{k}": set() for k in range(1, n + 1)}
            for b, k in product(bases, range(1, rank + 1)):
                tables[f"P{k}"].update(p for c in combinations(b, k) for p in permutations(c))
            yield FiniteStructure(matroid_signature(n), labels, tables)


def shape_obstruction(structure: FiniteStructure, max_slots: float = math.inf) -> tuple | None:
    """The first (symbol, slots, filling, other filling) whose solution sets meet but differ, or None.

    A shape is a symbol, equality included, with each argument place either
    a distinct variable or a constant slot (`slots` holds those places, at
    most max_slots of them); a filling puts a universe label in each slot.
    The power of the structure is equationally Noetherian exactly when no
    shape has two fillings whose solution sets meet and differ.  A repeated
    variable restricts both solution sets to the same diagonal, so it would
    add no obstruction.  Tables are read raw and solution sets compared
    pairwise, without the graph, poset or matroid certificate searches.

    Complementary shapes obstruct together.  Say fillings c and d of the
    slots S meet at u and differ at v, a solution for c but not for d (swap
    them otherwise).  In the shape with slots at the free places, the
    fillings u and v both have c as a solution, u has d and v does not: they
    meet at c and differ at d.  So a symbol of arity 3 never needs two
    slots, while one of arity 4 may need exactly two (the tests pin one).
    """
    universe = structure.universe
    for symbol, arity in [*structure.signature.symbols, (EQUALITY, 2)]:
        rows = [(u, u) for u in universe] if symbol == EQUALITY else list(structure.tuples(symbol))
        for size in range(min(arity, max_slots) + 1):
            for slots in combinations(range(arity), size):
                free = [k for k in range(arity) if k not in slots]
                solutions = {}
                for filling in product(universe, repeat=size):
                    shown = (row for row in rows if all(row[k] == v for k, v in zip(slots, filling)))
                    solutions[filling] = {tuple(row[k] for k in free) for row in shown}
                for c, d in combinations(solutions, 2):
                    if solutions[c] & solutions[d] and solutions[c] != solutions[d]:
                        return symbol, slots, c, d
    return None


def least_equivalent_truncation(structure: FiniteStructure, system: PowerSystem) -> int | None:
    """Least N <= stab + 2 * period + 2 at which the system with every family cut to members 1..N is equivalent.

    Explicit equations stay; each family is written out as its members 1..N
    by explicit_members.  None when no such N exists up to that bound.
    """
    stab, period = stream_horizon(system)
    for n in range(1, stab + 2 * period + 3):
        members = tuple(eq for f in system.families for eq in explicit_members(f, n))
        truncation = PowerSystem(system.variables, system.explicit + members)
        if power_systems_equivalent(structure, truncation, system):
            return n
    return None


def random_stream(rng: random.Random, labels, max_prefix: int = 2, max_cycle: int = 3) -> PowerElement:
    prefix = tuple(rng.choice(labels) for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(rng.choice(labels) for _ in range(rng.randint(1, max_cycle)))
    return PowerElement(prefix, cycle)


def random_staircase(rng: random.Random, labels, max_prefix: int = 2, max_cycle: int = 3) -> Staircase:
    """A generator of 1..3 labels in front of a random_stream tail."""
    generator = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
    return Staircase(generator, random_stream(rng, labels, max_prefix, max_cycle))


def random_relational_structure(rng: random.Random, max_size: int = 3) -> FiniteStructure:
    k = rng.randint(1, max_size)
    labels = [f"u{i}" for i in range(1, k + 1)]
    rows = [(a, b) for a in labels for b in labels if rng.random() < 0.5]
    return FiniteStructure(Signature((("R", 2),)), labels, {"R": rows})


def random_power_system(
    rng: random.Random, structure: FiniteStructure, max_prefix: int = 2, max_cycle: int = 3, symbol: str = "R"
) -> PowerSystem:
    """Mixed staircase families and explicit equations over one binary symbol.

    Stream constants and staircase tails have up to max_prefix prefix and
    max_cycle cycle entries.  The symbol changes no draw.
    """
    labels = list(structure.universe)
    variables = ("x", "y")[: rng.randint(1, 2)]

    shape = (max_prefix, max_cycle)

    def var_or(maker):
        if rng.random() < 0.55:
            return Var(rng.choice(variables))
        return Const(maker(rng, labels, *shape))

    families = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            atom = RelationAtom(symbol, (var_or(random_staircase), var_or(random_staircase)))
        else:
            atom = RelationAtom(EQUALITY, (Var(rng.choice(variables)), Const(random_staircase(rng, labels, *shape))))
        if not any(isinstance(a, Const) for a in atom.args):
            atom = RelationAtom(symbol, (Var(variables[0]), Const(random_staircase(rng, labels, *shape))))
        families.append(StaircaseFamily(atom))
    explicit = tuple(
        RelationAtom(symbol, (var_or(random_stream), var_or(random_stream)))
        for _ in range(rng.randint(0, 2))
    )
    return PowerSystem(variables, explicit, tuple(families))


def wide_power_system(rng: random.Random) -> tuple[FiniteStructure, PowerSystem, list[int]]:
    """(structure, system, coordinates): one family with a long generator and tail cycle, and where to check it.

    The structure is a random_relational_structure of two or three labels.
    The wide family has one staircase slot with a generator of 1-30 labels,
    a tail prefix of 1-3 and a tail cycle of 1-30, so L and C reach about
    30 (canonical form may shorten a drawn prefix or cycle).  Half the draws
    add a random_staircase family and half an explicit equation on a
    random_stream, whose cycles of at most 3 keep the joint period near
    lcm(L, C).  About 35% of the families are written out as their members
    1..N by explicit_members, the wide one with N up to P + C + 3, the other
    with N up to 9.  The coordinates are every i below
    2 * (P + C) + 4 of the wide family, which takes it through its prefix
    positions, the coordinates whose members show only part of the tail
    cycle, and a whole pass of the cycle's residues past them; then two
    drawn ones and the last one below stab + 3 * period of the
    stream_horizon, where the uncut readers walk thousands of members.
    """
    structure = random_relational_structure(rng)
    while structure.size < 2:
        structure = random_relational_structure(rng)
    labels = list(structure.universe)
    variables = ("x", "y")[: rng.randint(1, 2)]

    def labels_of(lo: int, hi: int) -> tuple[str, ...]:
        return tuple(rng.choice(labels) for _ in range(rng.randint(lo, hi)))

    families: list[StaircaseFamily] = []
    members: list = []

    def family(stair: Staircase, most: int) -> None:
        slot, var = Const(stair), Var(rng.choice(variables))
        atom = RelationAtom(rng.choice(("R", EQUALITY)), (var, slot) if rng.random() < 0.5 else (slot, var))
        if rng.random() < 0.35:
            members.extend(explicit_members(StaircaseFamily(atom), rng.randint(1, most)))
        else:
            families.append(StaircaseFamily(atom))

    wide = Staircase(labels_of(1, 30), PowerElement(labels_of(1, 3), labels_of(1, 30)))
    span = len(wide.tail.prefix) + len(wide.tail.cycle)
    family(wide, span + 3)
    for _ in range(rng.randint(0, 1)):
        family(random_staircase(rng, labels), 9)
    streams = [random_stream(rng, labels) for _ in range(rng.randint(0, 1))]
    explicit = tuple(RelationAtom("R", (Var(rng.choice(variables)), Const(pe))) for pe in streams)
    system = PowerSystem(variables, explicit + tuple(members), tuple(families))
    stab, period = stream_horizon(system)
    stop = stab + 3 * period
    coordinates = sorted({*range(min(2 * span + 4, stop)), rng.randrange(stop), rng.randrange(stop), stop - 1})
    return structure, system, coordinates


def planted_power_system(rng: random.Random, structure: FiniteStructure) -> tuple[PowerSystem, tuple]:
    """(system, point): 1-2 staircase families and 0-2 explicit equations that the point solves.

    The point is drawn first: one stream per variable over a palette of one
    or two labels, so that a structure with few related tuples still admits
    atoms.  Each atom takes a symbol of the structure or equality, so arities
    1 and 3 occur where the signature has them, and draws its constants
    from the table rows that agree with the point's values:
      * an explicit stream constant has a prefix at least the point's and a
        cycle a multiple of the point's period, and is drawn row by row at
        the coordinates below that, so every later coordinate repeats one;
      * a plain label (a whole row of them) agrees at every coordinate;
      * a family has one staircase slot, or for a symbol of arity 3 or more
        half the time two, with generator lengths 2 and 3 so that L = 6
        exceeds both, and each its own tail prefix and cycle.  The slots'
        joint generator row at residue r agrees at every coordinate
        i = r mod L, and their joint tail row at position j at every
        coordinate i >= j: member n shows that row at coordinate n - 1 + j.
        The slots are drawn one after the other, each against the rows that
        agree with the point and with the slots drawn before it.
    An atom without such values keeps its symbol and is drawn again, up to
    eight times, and is then left out; a family left out is not replaced.
    """
    labels = list(structure.universe)
    variables = ("x", "y")[: rng.randint(1, 2)]
    point = tuple(random_stream(rng, rng.sample(labels, min(len(labels), rng.randint(1, 2)))) for _ in variables)
    stab, period = horizon(point)
    symbols = [*structure.signature.symbols, (EQUALITY, 2)]

    def rows_at(symbol, pattern, i):
        """The symbol's rows that agree with the point at coordinate i where pattern names a variable."""
        values = {v: pe.at(i) for v, pe in zip(variables, point)}
        rows = structure.tuples(symbol)
        return [row for row in rows if all(a is None or values[a] == u for a, u in zip(pattern, row))]

    def explicit_atom(symbol, arity):
        pattern = [rng.choice(variables) if rng.random() < 0.5 else None for _ in range(arity)]
        if rng.random() < 0.3:  # plain labels
            rows = sorted(set.intersection(*(set(rows_at(symbol, pattern, i)) for i in range(stab + period))))
            if not rows:
                return None
            row = rng.choice(rows)
            return RelationAtom(symbol, tuple(Const(u) if a is None else Var(a) for a, u in zip(pattern, row)))
        prefix, cycle = stab + rng.randint(0, 1), period * rng.randint(1, 2)
        drawn = []
        for i in range(prefix + cycle):
            rows = rows_at(symbol, pattern, i)
            if not rows:
                return None
            drawn.append(rng.choice(rows))
        columns = [tuple(row[k] for row in drawn) for k in range(arity)]
        args = (Var(a) if a else Const(PowerElement(c[:prefix], c[prefix:])) for a, c in zip(pattern, columns))
        return RelationAtom(symbol, tuple(args))

    def family_atom(symbol, arity):
        two = arity >= 3 and rng.random() < 0.5
        slots = sorted(rng.sample(range(arity), 2)) if two else [rng.randrange(arity)]
        pattern = [None if k in slots else rng.choice(variables) for k in range(arity)]

        def draw(sizes, index, positions):
            """Per slot t, sizes[t] labels, None where no label fits.

            At joint position j the slots' labels index(t, j) fill a row that
            agrees with the point at every coordinate of positions[j].
            """
            joint = [
                set.intersection(*({tuple(row[k] for k in slots) for row in rows_at(symbol, pattern, i)} for i in c))
                for c in positions
            ]
            drawn = []
            for t, size in enumerate(sizes):
                column = []
                for own in range(size):
                    shown = [j for j in range(len(positions)) if index(t, j) == own]
                    options = set.intersection(*(
                        {row[t] for row in joint[j] if all(row[u] == drawn[u][index(u, j)] for u in range(t))}
                        for j in shown
                    ))
                    column.append(rng.choice(sorted(options)) if options else None)
                drawn.append(column)
            return drawn

        gen_periods = rng.sample((2, 3), 2) if two else [rng.randint(1, 3)]
        shapes = [(rng.randint(0, 2), rng.randint(1, 3)) for _ in slots]  # (tail prefix, tail cycle)
        gen_period = math.lcm(*gen_periods)
        tail_prefix, tail_cycle = max(p for p, _ in shapes), math.lcm(*(c for _, c in shapes))
        generators = draw(
            gen_periods,
            lambda t, r: r % gen_periods[t],
            [range(r, stab + math.lcm(period, gen_period), gen_period) for r in range(gen_period)],
        )
        tails = draw(
            [p + c for p, c in shapes],
            lambda t, j: j if j < shapes[t][0] else shapes[t][0] + (j - shapes[t][0]) % shapes[t][1],
            [range(j, max(j, stab) + period) for j in range(tail_prefix + tail_cycle)],
        )
        if None in [v for column in generators + tails for v in column]:
            return None
        stairs = iter(
            Staircase(tuple(g), PowerElement(tuple(tail[:p]), tuple(tail[p:])))
            for g, tail, (p, _) in zip(generators, tails, shapes)
        )
        return StaircaseFamily(RelationAtom(symbol, tuple(Var(a) if a else Const(next(stairs)) for a in pattern)))

    def retried(make):
        symbol, arity = rng.choice(symbols)
        return next((atom for atom in (make(symbol, arity) for _ in range(8)) if atom is not None), None)

    families = tuple(f for f in (retried(family_atom) for _ in range(rng.randint(1, 2))) if f is not None)
    explicit = tuple(e for e in (retried(explicit_atom) for _ in range(rng.randint(0, 2))) if e is not None)
    return PowerSystem(variables, explicit, families), point


def long_family(rng: random.Random, labels) -> StaircaseFamily:
    """R(x, stair) or R(stair, x) with a generator of 1-4 labels and a tail of prefix 0-3 and cycle 1-4."""

    def drawn(lo: int, hi: int) -> tuple[str, ...]:
        return tuple(rng.choice(labels) for _ in range(rng.randint(lo, hi)))

    slot = Const(Staircase(drawn(1, 4), PowerElement(drawn(0, 3), drawn(1, 4))))
    args = (Var("x"), slot) if rng.random() < 0.5 else (slot, Var("x"))
    return StaircaseFamily(RelationAtom("R", args))


def profile_power_system(rng: random.Random, draw: str) -> tuple[FiniteStructure, PowerSystem]:
    """A structure and a system on which coordinate_profile's residue tables do the work.

    "long" is one long_family.  "truncated" is such
    a family's members 1..N written out by explicit_members, with N below,
    at or above its tail cycle C (N = 1 when C = 1 has nothing below it),
    and half the time the family itself after them.  "two-slot" is
    planted_power_system on quaternary_structure, whose families have two
    constant slots with generator lengths 2 and 3, beside 0-2 explicit
    equations.  "several" puts 2-3 long families on the one variable x
    beside 1-2 explicit equations, and half the time a family R(x, x)
    without a constant slot; truncate_some writes about a third of them out
    as their members 1..N, N up to 9.
    """
    if draw == "two-slot":
        structure = quaternary_structure()
        return structure, planted_power_system(rng, structure)[0]
    structure = random_relational_structure(rng)
    labels = list(structure.universe)
    if draw == "long":
        return structure, PowerSystem(("x",), (), (long_family(rng, labels),))
    if draw == "truncated":
        fam = long_family(rng, labels)
        cycle = len(fam.tail_rows.cycle)
        n = rng.choice([rng.randint(1, max(1, cycle - 1)), cycle, cycle + rng.randint(1, 4)])
        return structure, PowerSystem(("x",), explicit_members(fam, n), (fam,) * rng.randint(0, 1))
    families = [long_family(rng, labels) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        families.insert(rng.randint(0, len(families)), StaircaseFamily(RelationAtom("R", (Var("x"), Var("x")))))
    explicit = tuple(
        RelationAtom(rng.choice(("R", EQUALITY)), (Var("x"), Const(random_stream(rng, labels, 3, 4))))
        for _ in range(rng.randint(1, 2))
    )
    return structure, truncate_some(rng, PowerSystem(("x",), explicit, tuple(families)), 9)


def edge_staircase_family(rng: random.Random, labels) -> PowerSystem:
    """Single-variable edge family with a random generator and tail."""
    stair = random_staircase(rng, labels)
    atom = RelationAtom("E", (Var("x"), Const(stair)))
    return PowerSystem(("x",), (), (StaircaseFamily(atom),))
