import importlib
import json
import math
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import constant_stream
from eqpower.errors import InputFormatError, UnboundVariableError
from eqpower.fixtures import staircase_demo_system, triangle_graph
from eqpower import cli, noetherian, power
from eqpower.noetherian import WitnessPackage
from eqpower.power import (
    Periodic,
    PowerElement,
    PowerSystem,
    SourceRef,
    Staircase,
    StaircaseFamily,
    consistent,
    coordinate_masks,
    coordinate_profile,
    horizon,
    power_system_from_json_dict,
    power_system_to_json_dict,
    power_systems_equivalent,
    project_equation,
    projected_system,
    projection_entries,
    resolve_source,
    satisfies,
    stream_horizon,
    zip_streams,
)
from eqpower.solver import AtomClassifier, Const, RelationAtom, Var, solve
from eqpower.structures import EQUALITY, FiniteStructure, Signature
from eqpower.wrap import class_representatives, verify_wrap, wrap

x = Var("x")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

labels_st = st.sampled_from(["a", "b", "c"])
prefix_st = st.lists(labels_st, min_size=0, max_size=4).map(tuple)
cycle_st = st.lists(labels_st, min_size=1, max_size=4).map(tuple)


def naive_at(prefix, cycle, i):
    return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]


@given(prefix_st, cycle_st)
def test_canonicalization_preserves_stream(prefix, cycle):
    pe = PowerElement(prefix, cycle)
    for i in range(len(prefix) + 3 * len(cycle) + 2):
        assert pe.at(i) == naive_at(prefix, cycle, i)


@given(prefix_st, cycle_st)
def test_canonical_form_is_minimal(prefix, cycle):
    pe = PowerElement(prefix, cycle)
    # cycle has no shorter repeating root
    n = len(pe.cycle)
    for d in range(1, n):
        if n % d == 0:
            assert pe.cycle[:d] * (n // d) != pe.cycle
    # no prefix entry can be absorbed into the cycle
    if pe.prefix:
        assert pe.prefix[-1] != pe.cycle[-1]


@given(prefix_st, cycle_st, prefix_st, cycle_st)
def test_equality_is_stream_equality(p1, c1, p2, c2):
    e1, e2 = PowerElement(p1, c1), PowerElement(p2, c2)
    horizon = max(len(p1), len(p2)) + len(c1) * len(c2)
    same = all(e1.at(i) == e2.at(i) for i in range(horizon))
    assert (e1 == e2) == same


def test_power_element_basics():
    assert PowerElement(("a", "b", "a", "b"), ("a", "b")) == PowerElement((), ("a", "b"))
    assert PowerElement(("b",), ("a", "b")) == PowerElement((), ("b", "a"))
    assert str(PowerElement(("b", "c"), ("a",))) == "[b,c,(a)]"
    assert constant_stream("a").at(17) == "a"
    with pytest.raises(ValueError):
        PowerElement(("a",), ())
    with pytest.raises(IndexError):
        constant_stream("a").at(-1)


def test_long_folding_prefix_canonicalizes_in_one_pass():
    long = PowerElement(("a",) * 200_000, ("a",))
    assert (long.prefix, long.cycle) == ((), ("a",))
    rotated = PowerElement(("x",) + ("a", "b") * 100_000 + ("a",), ("b", "a"))
    assert (rotated.prefix, rotated.cycle) == (("x",), ("a", "b"))


def test_periodic_take_map_and_horizon():
    p = Periodic((1, 2), (3, 4, 5))
    assert p.take(0) == () and p.take(1) == (1,)
    assert p.take(9) == (1, 2, 3, 4, 5, 3, 4, 5, 3)
    assert p.take(9) == tuple(p.at(i) for i in range(9))
    assert [p.at(i) for i in (2, 4, 5, 11)] == [3, 5, 3, 3]  # the cycle starts where the prefix ends
    with pytest.raises(IndexError, match="numbered from 0"):
        Periodic(("a", "b"), ("c",)).take(-1)  # a negative slice would read ("a",)
    assert p.map(str) == Periodic(("1", "2"), ("3", "4", "5"))
    assert horizon([p, Periodic((0,) * 3, (0, 0))]) == (3, 6)
    assert horizon([]) == (0, 1)
    # a canonical stream is a Periodic with its own equality
    assert PowerElement(("a",), ("a",)) == PowerElement((), ("a",)) != Periodic((), ("a",))


def test_zip_streams_pinned():
    """Prefixes of 1 and 0 and cycles of 2 and 3: one prefix row, then a cycle of 6 rows from coordinate 1."""
    zipped = zip_streams([Periodic(("a",), ("b", "c")), Periodic((), ("d", "e", "f"))])
    rows = (("b", "e"), ("c", "f"), ("b", "d"), ("c", "e"), ("b", "f"), ("c", "d"))
    assert zipped == Periodic((("a", "d"),), rows)
    assert zip_streams([]) == Periodic((), ((),))


@given(st.lists(st.tuples(prefix_st, cycle_st).map(lambda pc: Periodic(*pc)), max_size=4))
def test_zip_streams_reads_every_stream_at_every_coordinate(streams):
    """Entry i of zip_streams is the tuple of the streams' entries at i, for i up to three horizons.

    Its prefix is horizon's stabilization and its cycle one period, and
    with no streams every entry is ().
    """
    zipped = zip_streams(streams)
    stab, period = horizon(streams)
    assert (len(zipped.prefix), len(zipped.cycle)) == (stab, period)
    for i in range(3 * (stab + period)):
        assert zipped.at(i) == tuple(s.at(i) for s in streams)
    if not streams:
        assert zipped == Periodic((), ((),))


def test_staircase_members_pinned():
    s = Staircase(("b", "c"), PowerElement((), ("a",)))
    assert s.member_constant(1) == PowerElement((), ("a",))
    assert s.member_constant(2) == PowerElement(("b",), ("a",))
    assert s.member_constant(3) == PowerElement(("b", "c"), ("a",))
    assert s.member_constant(4) == PowerElement(("b", "c", "b"), ("a",))
    with pytest.raises(ValueError):
        s.member_constant(0)


@given(st.integers(1, 7), st.integers(0, 9), prefix_st, cycle_st, cycle_st)
def test_staircase_value_at_matches_member(n, i, tail_prefix, tail_cycle, generator):
    """The oracles' staircase rule and the one-slot family's projection both read member n's constant at i."""
    s = Staircase(generator, PowerElement(tail_prefix, tail_cycle))
    assert support.staircase_value_at(s, n, i) == s.member_constant(n).at(i)
    fam = StaircaseFamily(RelationAtom(EQUALITY, (x, Const(s))))
    assert fam.projected_member(n, i) == RelationAtom(EQUALITY, (x, Const(s.member_constant(n).at(i))))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_projected_member_is_the_projection_of_the_written_out_member(data):
    """projected_member(n, i), read off the family's row tables, equals pi_i of member(n), which member_constant writes.

    Families of 1-3 slots beside one variable, tail prefixes up to 3 and
    cycles up to 4; coordinates run past tail prefix + C, so tail positions
    are folded.
    """
    labels = st.sampled_from(["a", "b", "c"])
    tail = st.builds(
        PowerElement, st.lists(labels, max_size=3).map(tuple), st.lists(labels, min_size=1, max_size=4).map(tuple)
    )
    stair = st.builds(lambda gen, t: Staircase(tuple(gen), t), st.lists(labels, min_size=1, max_size=3), tail)
    slots = [Const(s) for s in data.draw(st.lists(stair, min_size=1, max_size=3))]
    args = data.draw(st.permutations([x, *slots]))
    fam = StaircaseFamily(RelationAtom("R", tuple(args)))
    for n in range(1, 15):
        member = fam.member(n)
        for i in range(24):
            assert fam.projected_member(n, i) == project_equation(member, i), (n, i)


def test_family_projection_consistency():
    fam = staircase_demo_system().families[0]
    for n in range(1, 6):
        for i in range(6):
            assert fam.projected_member(n, i) == project_equation(fam.member(n), i)


def test_projection_entries_order_and_dedup():
    system = staircase_demo_system()
    entries = projection_entries(system, 0)
    assert list(entries.items()) == [
        (RelationAtom("E", (x, Const("a"))), SourceRef(0, 1)),
        (RelationAtom("E", (x, Const("b"))), SourceRef(0, 2)),
    ]
    # at coordinate 2 members 1-3 all project to E(x, a): the earliest source is kept
    assert list(projection_entries(system, 2).items()) == [
        (RelationAtom("E", (x, Const("a"))), SourceRef(0, 1)),
        (RelationAtom("E", (x, Const("b"))), SourceRef(0, 4)),
    ]
    # members beyond n = i + 2 only repeat earlier projections
    fam = system.families[0]
    for i in range(4):
        for n in range(i + 2, i + 6):
            assert fam.projected_member(n, i) == fam.projected_member(i + 2, i)
    # an atom that an explicit equation or an earlier family already shows keeps that source
    explicit = RelationAtom("E", (x, Const(constant_stream("b"))))
    doubled = PowerSystem(("x",), (explicit,), (fam, fam))
    assert list(projection_entries(doubled, 0).items()) == [
        (RelationAtom("E", (x, Const("b"))), SourceRef(0)),
        (RelationAtom("E", (x, Const("a"))), SourceRef(0, 1)),
    ]


def test_projection_entries_demo():
    """The demo family (generator b, c; tail (a)) at coordinate 5: member 1 shows the tail, member 7 the generator.

    Members 2..6 repeat the tail's one cycle row, so member 1 is its least member.
    """
    system = staircase_demo_system()
    a, b, c = (RelationAtom("E", (x, Const(v))) for v in "abc")
    assert list(projection_entries(system, 0).items()) == [(a, SourceRef(0, 1)), (b, SourceRef(0, 2))]
    assert list(projection_entries(system, 5).items()) == [(a, SourceRef(0, 1)), (c, SourceRef(0, 7))]


def test_projection_entries_pinned():
    """Tail cycle a, b, a, c (P = 0, C = 4), generator b: the rows and members at 0..9 and at 10**12.

    Coordinate i shows the tail positions i, i - 1, .., 0 at members 1, 2, ..;
    from coordinate 3 on that is the cycle read backwards from i mod 4, and
    member i + 2's generator row b is already shown.  10**12 is 0 mod 4.
    """
    stair = Staircase(("b",), PowerElement((), ("a", "b", "a", "c")))
    system = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (x, Const(stair)))),))
    a, b, c = (RelationAtom("E", (x, Const(v))) for v in "abc")
    by_residue = [
        [(a, 1), (c, 2), (b, 4)],
        [(b, 1), (a, 2), (c, 3)],
        [(a, 1), (b, 2), (c, 4)],
        [(c, 1), (a, 2), (b, 3)],
    ]
    expected = [[(a, 1), (b, 2)], [(b, 1), (a, 2)], [(a, 1), (b, 2)]] + [by_residue[i % 4] for i in range(3, 10)]
    for i, rows in [*enumerate(expected), (10**12, by_residue[0])]:
        assert list(projection_entries(system, i).items()) == [(eq, SourceRef(0, n)) for eq, n in rows], i


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**30), st.sampled_from(["random", "planted", "wide"]))
def test_projection_entries_match_the_uncut_reference(seed, draw):
    """projection_entries equals the walk over every member, items, order and sources.

    Systems come from support.random_power_system or from
    support.planted_power_system on one of support.planted_structures (with
    two-slot families on free_matroid3 and the quaternary structure), with
    about 35% of their families written out as members 1..N, N up to 9
    (support.truncate_some), and are checked at every
    i < stab + 3 * period against support.reference_projection_entries.
    Or they come from support.wide_power_system, with L and C up to about
    30 and tail prefixes, and are checked at its coordinates against
    support.oracle_projection_entries, which reads each member at i without
    writing it out.
    """
    rng = random.Random(seed)
    if draw == "wide":
        _, system, coordinates = support.wide_power_system(rng)
        for i in coordinates:
            expected = list(support.oracle_projection_entries(system, i).items())
            assert list(projection_entries(system, i).items()) == expected, i
        return
    if draw == "planted":
        structure = rng.choice(sorted(support.planted_structures().items()))[1][1]
        system, _ = support.planted_power_system(rng, structure)
    else:
        structure = support.random_relational_structure(rng)
        system = support.random_power_system(rng, structure, max_prefix=3, max_cycle=4)
    system = support.truncate_some(rng, system, 9)
    stab, period = stream_horizon(system)
    for i in range(stab + 3 * period):
        expected = list(support.reference_projection_entries(system, i).items())
        assert list(projection_entries(system, i).items()) == expected, i


def test_projected_system_and_sources():
    system = staircase_demo_system()
    ps = projected_system(system, 1)
    assert ps.equations == (
        RelationAtom("E", (x, Const("a"))),
        RelationAtom("E", (x, Const("c"))),
    )
    assert resolve_source(system, SourceRef(0, 3)) == system.families[0].member(3)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**30), st.integers(0, 40) | st.just(10**12), st.none() | st.integers(1, 8))
def test_projected_system_reads_far_coordinates_at_their_residue(seed, offset, members):
    """Past the first period, projected_system at i equals it at stab + (i - stab) mod period, in order.

    That is the repeat stream_horizon proves.  The draws include a
    coordinate 10**12 past the first period, which projection_entries reads
    without walking its members, and systems whose families are all written
    out as their members 1..N, N up to 8.
    """
    rng = random.Random(seed)
    system = support.random_power_system(rng, support.random_relational_structure(rng), max_prefix=3, max_cycle=4)
    if members is not None:
        explicit = tuple(eq for fam in system.families for eq in support.explicit_members(fam, members))
        system = PowerSystem(system.variables, system.explicit + explicit)
    stab, period = stream_horizon(system)
    i = stab + period + offset
    assert projected_system(system, i) == projected_system(system, stab + (i - stab) % period)


def test_stream_horizon_demo():
    assert stream_horizon(staircase_demo_system()) == (1, 2)
    empty = PowerSystem(("x",), (), ())
    assert stream_horizon(empty) == (0, 1)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_stream_horizon_of_one_family_matches_the_descriptor_formula(data):
    """stream_horizon of a one-family system, with or without one explicit equation, against support's formula.

    Families have 1-3 slots, generators of length 1-5, tail prefixes up to 3
    and tail cycles of 1-4 entries.
    """
    labels = st.sampled_from(["a", "b", "c"])
    stream = st.builds(
        PowerElement, st.lists(labels, max_size=3).map(tuple), st.lists(labels, min_size=1, max_size=4).map(tuple)
    )
    stair = st.builds(Staircase, st.lists(labels, min_size=1, max_size=5).map(tuple), stream)
    stairs = data.draw(st.lists(stair, min_size=1, max_size=3))
    explicit = tuple(RelationAtom(EQUALITY, (x, Const(pe))) for pe in data.draw(st.lists(stream, max_size=1)))
    system = PowerSystem(("x",), explicit, (StaircaseFamily(RelationAtom("R", (x, *map(Const, stairs)))),))
    stab, period = support.staircase_family_horizon(stairs)
    for eq in explicit:
        pe = eq.args[1].value
        stab, period = max(stab, len(pe.prefix)), math.lcm(period, len(pe.cycle))
    assert stream_horizon(system) == (stab, period)


def test_coordinate_profile_demo():
    g = triangle_graph()
    system = staircase_demo_system()
    profile = coordinate_profile(g, system)
    assert (len(profile.prefix), len(profile.cycle)) == (1, 2)
    clf = AtomClassifier(g, system.variables)
    solsets = [frozenset(map(clf.decode, masks)) for masks in profile.take(3)]
    nbh = {v: frozenset({(w,) for w in "abc" if w != v}) for v in "abc"}
    assert solsets == [
        frozenset({nbh["a"], nbh["b"]}),
        frozenset({nbh["a"], nbh["c"]}),
        frozenset({nbh["a"], nbh["b"]}),
    ]
    # at coordinate 0 tail position 0 (member 1) shows E(x, a) before the generator (member 2) shows E(x, b)
    assert profile.at(0) == tuple(map(clf.mask, projection_entries(system, 0)))
    assert profile.at(3) == profile.cycle[0]
    assert profile.at(100) == profile.cycle[1]


def test_an_underreported_profile_period_fails_wrap_verification(monkeypatch):
    """The profile trusts stream_horizon; verify_wrap, through its own binding, catches a wrong one."""
    g = triangle_graph()
    system = staircase_demo_system()
    monkeypatch.setattr(power, "stream_horizon", lambda s: (1, 1))  # the true period is 2
    assert wrap(g, system).verified is False


PROFILE_DRAWS = ("random", "wide", "long", "truncated", "two-slot", "several")


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 2**30), st.sampled_from(PROFILE_DRAWS))
def test_profile_fold_matches_recomputation(seed, draw):
    """Past the horizon the profile equals direct recomputation, entry by entry and in the profile's order.

    The recomputation, support.oracle_projection, reads every member at i
    with support.staircase_value_at and never reads the family's row tables: the
    explicit equations, then per family the tail positions 0..i (members
    i + 1 down to 1), then the generator (member i + 2).  It runs at every
    coordinate below three periods past the horizon, or at the coordinates
    of a support.wide_power_system draw, where L and C reach about 30.  The
    other draws are support.random_power_system with about a third of its
    families written out as members 1..N (support.truncate_some), and
    support.profile_power_system's draws, where the running tail masks and
    the generator residues carry every entry past a family's
    stabilization: one long family, a long family's members 1..N with N
    below, at or above its tail cycle, two-slot planted families beside
    explicit equations, and several families on one variable beside
    explicit equations, some written out and some without a constant slot.
    """
    check_profile_fold(seed, draw)


@pytest.mark.parametrize("draw", PROFILE_DRAWS)
@pytest.mark.parametrize("seed", range(3))
def test_profile_fold_matches_recomputation_at_fixed_seeds(seed, draw):
    """test_profile_fold_matches_recomputation's check at fixed seeds of every draw kind."""
    check_profile_fold(seed, draw)


def check_profile_fold(seed, draw):
    rng = random.Random(seed)
    coordinates = None
    if draw == "wide":
        structure, system, coordinates = support.wide_power_system(rng)
    elif draw == "random":
        structure = support.random_relational_structure(rng)
        system = support.truncate_some(rng, support.random_power_system(rng, structure), 9)
    else:
        structure, system = support.profile_power_system(rng, draw)
    profile = coordinate_profile(structure, system)
    clf = AtomClassifier(structure, system.variables)
    for i in coordinates or range(len(profile.prefix) + 3 * len(profile.cycle)):
        masks = profile.at(i)
        assert masks == tuple(dict.fromkeys(map(clf.mask, support.oracle_projection(system, i)))), i
        assert frozenset(map(clf.decode, masks)) == support.oracle_profile(structure, system, i)


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2**30), st.sampled_from(("random", "long", "truncated", "several")))
def test_coordinate_masks_match_the_oracle_at_every_coordinate(seed, draw):
    """Entry i is the intersection of pi_i's solution sets, also past the horizon and for written-out members.

    Besides support.random_power_system with equalities added and some
    families written out (support.truncate_some), the draws are
    support.profile_power_system's long, truncated (members 1..N with N
    below, at or above C) and several-family systems.  The stop lies below
    the horizon's stabilization, within its first period, or past that, up
    to three periods and 5 more, each in a third of the draws; a stop below
    a family's P + C cuts its running tail column short.
    """
    rng = random.Random(seed)
    if draw == "random":
        structure = support.random_relational_structure(rng)
        system = support.truncate_some(rng, support.random_power_system(rng, structure), 9)
        labels = list(structure.universe)
        equalities = (  # random_power_system's explicit equations are all R atoms
            RelationAtom(EQUALITY, (Var(rng.choice(system.variables)), Const(support.random_stream(rng, labels)))),
            RelationAtom(
                EQUALITY, (Const(support.random_stream(rng, labels)), Const(support.random_stream(rng, labels)))
            ),
        )
        explicit = system.explicit + tuple(eq for eq in equalities if rng.random() < 0.5)
        system = PowerSystem(system.variables, explicit, system.families)
    else:
        structure, system = support.profile_power_system(rng, draw)
    stab, period = stream_horizon(system)
    stop = rng.randint(*rng.choice(((0, stab), (stab, stab + period), (stab + period, stab + 3 * period + 5))))
    masks = coordinate_masks(structure, system, stop)
    assert len(masks) == stop
    clf = AtomClassifier(structure, system.variables)
    everything = frozenset(product(structure.universe, repeat=len(system.variables)))
    for i, mask in enumerate(masks):
        assert clf.decode(mask) == everything.intersection(*support.oracle_profile(structure, system, i))


def test_coordinate_masks_stop_before_the_tail_column_holds():
    """A scan that stops before tail position P + C - 1 cuts the running tail column short.

    One family on the triangle with tail prefix P = 3 and cycle C = 4, so
    its running tail AND grows over positions 0..6 and holds from 6 on;
    satisfies, power_systems_equivalent on a short joint horizon, or a
    direct call may stop below 7.  Every stop
    0..9 gives the first `stop` entries of the scan to 12, each the
    intersection of the oracle's solution sets.
    """
    g = triangle_graph()
    stair = Staircase(("a", "b"), PowerElement(("a", "b", "c"), ("b", "c", "b", "a")))
    atom = RelationAtom("E", (x, Const(stair)))
    assert (len(stair.tail.prefix), len(stair.tail.cycle)) == (3, 4)
    clf = AtomClassifier(g, ("x",))
    everything = frozenset(product(g.universe, repeat=1))
    system = PowerSystem(("x",), (), (StaircaseFamily(atom),))
    full = coordinate_masks(g, system, 12)
    assert [clf.decode(m) for m in full] == [
        everything.intersection(*support.oracle_profile(g, system, i)) for i in range(12)
    ]
    for stop in range(10):
        assert coordinate_masks(g, system, stop) == full[:stop], stop


def test_profile_queries_project_only_at_a_failing_coordinate(monkeypatch):
    """consistent, power_systems_equivalent and verify_wrap read coordinate_masks, not projection_entries."""
    g = triangle_graph()
    demo = staircase_demo_system()
    planted_file = Path(__file__).resolve().parent.parent / "fixtures" / "planted_inconsistent.json"
    planted = power_system_from_json_dict(json.loads(planted_file.read_text()))
    wrapped = wrap(g, demo).wrapped
    calls = []

    def counted(system, i):
        calls.append(i)
        return projection_entries(system, i)

    monkeypatch.setattr(power, "projection_entries", counted)
    monkeypatch.setattr(importlib.import_module("eqpower.wrap"), "projection_entries", counted, raising=False)
    assert verify_wrap(g, demo, wrapped)
    assert power_systems_equivalent(g, demo, wrapped)
    assert consistent(g, demo).consistent
    assert calls == []
    assert consistent(g, planted).certificate.coordinate == 2
    assert calls == [2]


@pytest.mark.parametrize("fixture", ["planted_inconsistent", "staircase_demo"])
def test_consistent_builds_one_mask_per_distinct_atom(fixture):
    """The scan classifies each distinct atom of the horizon once, and the core search classifies none."""
    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{fixture}.json"
    system = power_system_from_json_dict(json.loads(path.read_text()))
    with support.counted_row_classifications() as built:
        consistent(triangle_graph(), system)
    stab, period = stream_horizon(system)
    atoms = {atom for i in range(stab + period) for atom in projection_entries(system, i)}
    assert len(built) == len(atoms)
    assert set(built) == atoms


def test_a_plain_label_is_its_constant_stream():
    """PowerSystem writes a plain label a as the stream (a, a, ...), so every reader, wrap too, sees one system."""
    g = triangle_graph()
    other = RelationAtom("E", (x, Const(PowerElement(("b",), ("c",)))))
    plain = PowerSystem(("x",), (RelationAtom("E", (x, Const("a"))), other))
    stream = PowerSystem(("x",), (RelationAtom("E", (x, Const(constant_stream("a")))), other))
    assert plain == stream
    assert coordinate_masks(g, plain, 8) == coordinate_masks(g, stream, 8)
    result = wrap(g, plain)
    assert result == wrap(g, stream) and result.verified


def test_satisfies_demo_points():
    g = triangle_graph()
    system = staircase_demo_system()
    # the unique solution alternates the two non-tail labels
    assert satisfies(g, system, (PowerElement((), ("c", "b")),))
    assert not satisfies(g, system, (constant_stream("a"),))
    assert not satisfies(g, system, (PowerElement(("b",), ("c", "b")),))
    with pytest.raises(ValueError):
        satisfies(g, system, ())


def test_consistency_certificate():
    g = triangle_graph()
    s1 = PowerElement(("a", "a", "b"), ("a",))
    s2 = constant_stream("a")
    system = PowerSystem(
        ("x",),
        (RelationAtom(EQUALITY, (x, Const(s1))), RelationAtom(EQUALITY, (x, Const(s2)))),
        (),
    )
    verdict = consistent(g, system)
    assert not verdict.consistent
    cert = verdict.certificate
    assert cert.coordinate == 2
    assert len(cert.core.equations) == 2
    assert solve(g, cert.core).is_empty
    assert cert.sources == (SourceRef(0), SourceRef(1))
    assert cert.lifted == system.explicit

    assert consistent(g, staircase_demo_system()).consistent


def test_power_systems_equivalent():
    g = triangle_graph()
    system = staircase_demo_system()
    assert power_systems_equivalent(g, system, system)
    fam = system.families[0]
    # no two members capture the whole family over the triangle
    two = PowerSystem(("x",), (fam.member(2), fam.member(3)), ())
    assert not power_systems_equivalent(g, system, two)
    # two inconsistent systems are equivalent no matter where they fail
    a_is_b = RelationAtom(EQUALITY, (Const(constant_stream("a")), Const(constant_stream("b"))))
    bad1 = PowerSystem(("x",), (a_is_b,), ())
    bad2 = PowerSystem(
        ("x",),
        (RelationAtom(EQUALITY, (x, Const(constant_stream("a")))), RelationAtom("E", (x, Const(constant_stream("a"))))),
        (),
    )
    assert power_systems_equivalent(g, bad1, bad2)
    with pytest.raises(ValueError):
        power_systems_equivalent(g, system, PowerSystem(("y",), (), ()))


def test_power_system_json_round_trip():
    system = staircase_demo_system()
    doc = json.loads(json.dumps(power_system_to_json_dict(system)))
    assert power_system_from_json_dict(doc) == system

    stair = Const(Staircase(("b",), PowerElement((), ("c", "a"))))
    equality_family = StaircaseFamily(RelationAtom(EQUALITY, (stair, x)))
    mixed = PowerSystem(
        ("x", "y"),
        (RelationAtom("E", (x, Const(PowerElement(("a",), ("b",))))), RelationAtom(EQUALITY, (x, Var("y")))),
        staircase_demo_system().families + (equality_family,),
    )
    doc = json.loads(json.dumps(power_system_to_json_dict(mixed)))
    assert power_system_from_json_dict(doc) == mixed


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": ["x"]},
        {"variables": "x", "equations": []},
        {"variables": ["x"], "equations": [{"rel": "E", "args": [{"var": "x"}, {"const": {"prefix": [], "cycle": []}}]}]},
        {"variables": ["x"], "equations": [{"rel": "E", "args": [{"var": "x"}, {"const": {"prefix": [1], "cycle": ["a"]}}]}]},
        {"variables": ["x"], "equations": [{"family": {"rel": "E", "args": [{"var": "x"}, {"const": {"prefix": [], "cycle": ["a"]}}]}}]},
        {"variables": ["x"], "equations": [{"family": {"rel": "E", "args": [{"var": "x"}, {"staircase": {"generator": [], "tail": {"prefix": [], "cycle": ["a"]}}}]}}]},
    ],
)
def test_power_system_json_rejects_malformed(doc):
    with pytest.raises(InputFormatError):
        power_system_from_json_dict(doc)


def test_source_ref_round_trip():
    for ref in [SourceRef(2), SourceRef(0, 5)]:
        assert SourceRef.from_json_dict(json.loads(json.dumps(ref.to_json_dict()))) == ref
    with pytest.raises(InputFormatError):
        SourceRef.from_json_dict({"weird": 1})


@pytest.mark.parametrize(
    "doc",
    [
        {"explicit": True},
        {"explicit": 2.9},
        {"explicit": "1"},
        {"explicit": -1},
        {"family": "0", "member": 0},
        {"family": 0, "member": 0},
        {"family": 0, "member": True},
        {"family": -1, "member": 1},
        {"family": 0, "member": 1.0},
        ["explicit"],
        "explicit",
    ],
)
def test_source_ref_decoding_is_strict(doc):
    with pytest.raises(InputFormatError):
        SourceRef.from_json_dict(doc)


# --- satisfies against the per-coordinate oracle ------------------------------

SAT_SIGNATURE = Signature((("R", 2), ("T", 3)))


@st.composite
def streams(draw, labels, max_prefix=3):
    prefix = draw(st.lists(st.sampled_from(labels), max_size=max_prefix))
    cycle = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
    return PowerElement(tuple(prefix), tuple(cycle))


def staircases(labels):
    return st.builds(
        lambda gen, tail: Staircase(tuple(gen), tail),
        st.lists(st.sampled_from(labels), min_size=1, max_size=3),
        streams(labels),
    )


@st.composite
def long_streams(draw, labels):
    """A stream whose prefix has 50 to 200 entries: a short pattern repeated, with up to two entries changed.

    With two labels or more the last prefix entry differs from the last cycle
    entry, so canonical form keeps the whole prefix.
    """
    pattern = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
    prefix = [pattern[i % len(pattern)] for i in range(draw(st.integers(50, 200)))]
    for i in draw(st.lists(st.integers(0, len(prefix) - 1), max_size=2)):
        prefix[i] = draw(st.sampled_from(labels))
    cycle = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
    others = [label for label in labels if label != cycle[-1]]
    if others:
        prefix[-1] = draw(st.sampled_from(others))
    return PowerElement(tuple(prefix), tuple(cycle))


@st.composite
def satisfies_cases(draw, point_streams=streams, truncations=st.none(), family_counts=st.integers(0, 2)):
    """A structure with binary R and ternary T, a power system over it, and a point.

    point_streams draws each point entry from the labels, truncations each
    family's N (None keeps the whole family, N writes out its members 1..N
    as explicit equations) and family_counts the number of families.
    """
    k = draw(st.integers(1, 3))
    labels = [f"u{i}" for i in range(k)]
    pairs = [(a, b) for a in labels for b in labels]
    triples = [(a, b, c) for a in labels for b in labels for c in labels]
    tables = {
        "R": draw(st.lists(st.sampled_from(pairs), unique=True)),
        "T": draw(st.lists(st.sampled_from(triples), unique=True)),
    }
    structure = FiniteStructure(SAT_SIGNATURE, labels, tables)
    used = ("x", "y")[: draw(st.integers(1, 2))]
    variables = used + (("w",) if draw(st.booleans()) else ())  # w: a point entry no equation reads

    def atom(const):
        symbol = draw(st.sampled_from(["R", "T", EQUALITY]))
        args = [
            Var(draw(st.sampled_from(used))) if draw(st.booleans()) else Const(draw(const))
            for _ in range({"R": 2, "T": 3, EQUALITY: 2}[symbol])
        ]
        return RelationAtom(symbol, tuple(args))

    explicit = tuple(atom(streams(labels)) for _ in range(draw(st.integers(0, 3))))
    families = []
    for _ in range(draw(family_counts)):
        fam, n = StaircaseFamily(atom(staircases(labels))), draw(truncations)
        if n is None:
            families.append(fam)
        else:
            explicit += support.explicit_members(fam, n)
    point = tuple(draw(point_streams(labels)) for _ in variables)
    return structure, PowerSystem(variables, explicit, tuple(families)), point


@settings(deadline=None, max_examples=300)
@given(satisfies_cases())
def test_satisfies_matches_oracle(case):
    structure, system, point = case
    assert satisfies(structure, system, point) == support.oracle_satisfies(structure, system, point)


@settings(deadline=None, max_examples=100)
@given(satisfies_cases(long_streams, st.none() | st.integers(1, 250), st.integers(1, 2)))
def test_satisfies_matches_oracle_on_long_prefixes(case):
    """Point prefixes of 50 to 200 entries, against whole families and truncations ending below or past them.

    A truncation is a family's members 1..N, N up to 250, written out as
    explicit equations, so their prefixes of up to about 250 entries meet
    the point's.
    """
    structure, system, point = case
    assert satisfies(structure, system, point) == support.oracle_satisfies(structure, system, point)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_coordinate_masks_match_the_oracle_for_every_slot_count(data):
    """A family R(x, s_1, .., s_k), k = 0..3, on a drawn relation R: entry i is the AND over every member's row at i.

    support.oracle_profile reads members 1..i + 2 at i with
    support.staircase_value_at, and every member past i + 2 shows what
    member i + 2 shows.  Stops run from 0 to 30.
    """
    labels = ["a", "b", "c"]
    descs = data.draw(st.lists(staircases(labels), max_size=3))
    arity = len(descs) + 1
    table = data.draw(st.lists(st.tuples(*[st.sampled_from(labels)] * arity), unique=True))
    structure = FiniteStructure(Signature((("R", arity),)), labels, {"R": table})
    system = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("R", (x, *map(Const, descs)))),))
    stop = data.draw(st.integers(0, 30))
    masks = coordinate_masks(structure, system, stop)
    assert len(masks) == stop
    clf = AtomClassifier(structure, system.variables)
    everything = frozenset(product(labels, repeat=1))
    for i, mask in enumerate(masks):
        assert clf.decode(mask) == everything.intersection(*support.oracle_profile(structure, system, i)), i


def test_coordinate_masks_pinned_on_two_families():
    """The demo family and a two-slot family, against the oracle and pinned as solution sets.

    The demo family E(x, stair(b, c; a)) shows the rows a, b at coordinate
    0 and a, c at coordinate 1 on the triangle.  The two-slot family shows
    (a, c), then (a, c) and (b, c), then (a, c) and (c, b), then all
    three; T makes their solution sets {a, b}, {b} and {a, c}.
    """
    triangle = triangle_graph()
    demo = PowerSystem(("x",), (), staircase_demo_system().families)
    first = Staircase(("a", "b"), PowerElement(("a", "a", "c"), ("a",)))
    second = Staircase(("c",), PowerElement(("c",), ("c", "b", "c")))
    t_rows = [("a", "a", "c"), ("b", "a", "c"), ("b", "b", "c"), ("a", "c", "b"), ("c", "c", "b")]
    ternary = FiniteStructure(SAT_SIGNATURE, ["a", "b", "c"], {"R": [], "T": t_rows})
    two_slots = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("T", (x, Const(first), Const(second)))),))
    for structure, system, stop, expected in (
        (triangle, demo, 3, [{"c"}, {"b"}, {"c"}]),
        (ternary, two_slots, 4, [{"a", "b"}, {"b"}, {"a"}, set()]),
    ):
        clf = AtomClassifier(structure, system.variables)
        everything = frozenset(product(structure.universe, repeat=1))
        solutions = [clf.decode(mask) for mask in coordinate_masks(structure, system, stop)]
        oracle = [everything.intersection(*support.oracle_profile(structure, system, i)) for i in range(stop)]
        assert solutions == oracle
        assert solutions == [{(label,) for label in labels} for labels in expected]


def test_generator_and_tail_rows_pinned():
    """Two slots with generator lengths 3 and 2 and tail prefixes 2 and 0: L = 6, P = 2, C = 2."""
    first = Staircase(("a", "b", "c"), PowerElement(("a", "c"), ("b", "a")))
    second = Staircase(("c", "a"), PowerElement((), ("b",)))
    fam = StaircaseFamily(RelationAtom("T", (x, Const(first), Const(second))))
    assert fam.generator_rows == (("a", "c"), ("b", "a"), ("c", "c"), ("a", "a"), ("b", "c"), ("c", "a"))
    assert fam.tail_rows == Periodic((("a", "b"), ("c", "b")), (("b", "b"), ("a", "b")))
    assert StaircaseFamily(RelationAtom("R", (x, x))).generator_rows == ((),)


def test_unknown_labels_are_named_in_classification_order(tmp_path, capsys):
    """A label outside the universe in a generator row, a tail row and an explicit equation: which one is named.

    coordinate_masks classifies each explicit equation's rows below `stop`,
    then per family the generator rows r < min(L, stop), then all P + C tail
    rows.  So stops 0 and 1 name the tail's zt, stop 2 < L = 3 the
    generator's zg at residue 1, and the horizon the explicit ze at
    coordinate 2, as `consistent` on the command line does.
    """
    stair = Staircase(("a", "zg", "b"), PowerElement(("a",), ("zt",)))
    explicit = RelationAtom("E", (x, Const(PowerElement(("a", "a"), ("ze",)))))
    system = PowerSystem(("x",), (explicit,), (StaircaseFamily(RelationAtom("E", (x, Const(stair)))),))
    assert stream_horizon(system) == (2, 3)
    for stop, label in ((0, "zt"), (1, "zt"), (2, "zg"), (5, "ze")):
        with pytest.raises(ValueError) as raised:
            coordinate_masks(triangle_graph(), system, stop)
        assert (raised.type, str(raised.value)) == (ValueError, f"constant '{label}' is not a universe element"), stop
    path = tmp_path / "order.json"
    path.write_text(json.dumps(power_system_to_json_dict(system)))
    assert cli.main(["consistent", str(FIXTURES / "triangle.json"), str(path)]) == 2
    assert capsys.readouterr() == ("", "error: constant 'ze' is not a universe element\n")


def test_coordinate_masks_never_pass_explicit_constants_to_zip_streams():
    """coordinate_masks zips each explicit equation's constants itself, up to its stop.

    On freshly decoded systems, coordinate_masks, consistent (on the
    planted fixture, whose certificate projects its failing coordinate too)
    and verify_wrap (on the demo and its wrap, both read back from JSON)
    hand power.zip_streams no stream of an explicit equation, by
    support.explicit_zips; coordinate_profile, which does zip them, shows
    that the spy sees such a call.
    """
    g = triangle_graph()

    def fresh(system):
        return power_system_from_json_dict(json.loads(json.dumps(power_system_to_json_dict(system))))

    planted = power_system_from_json_dict(json.loads((FIXTURES / "planted_inconsistent.json").read_text()))
    assert planted.explicit
    system = fresh(planted)
    with support.explicit_zips(system) as zipped:
        coordinate_masks(g, system, 2 * sum(stream_horizon(system)))
        assert consistent(g, system).certificate.coordinate == 2
    assert zipped == []
    demo = staircase_demo_system()
    original, wrapped = fresh(demo), fresh(wrap(g, demo).wrapped)
    with support.explicit_zips(original, wrapped) as zipped:
        assert wrapped.explicit and verify_wrap(g, original, wrapped)
    assert zipped == []
    with support.explicit_zips(system) as zipped:
        coordinate_profile(g, system)
    assert len(zipped) == len(system.explicit)


def test_explicit_columns_without_constants_or_past_their_own_horizon_match_the_oracle():
    """E(x, y) has no constant slot, and E(x, [b,(c)]) repeats from coordinate 1, below the system's horizon (3, 3).

    At stops 0, 1, the horizon's stab + period and twice that, entry i is
    the intersection of support.oracle_profile's sets at i: an equation
    without constants gives a full column of `stop` rows, and a short
    horizon is read on to `stop`.  The same holds for wrap's readers:
    coordinate_profile's sets are support.oracle_profile's at every i
    below twice the horizon, class_representatives is
    support.reference_class_representatives, and the wrap verifies.  E(x, y)
    alone shows its one empty row at every coordinate of the profile, and
    the candidate scan finds it at coordinate 0.
    """
    g = triangle_graph()
    y = Var("y")
    no_constant = RelationAtom("E", (x, y))
    short = RelationAtom("E", (x, Const(PowerElement(("b",), ("c",)))))
    long = RelationAtom("E", (y, Const(PowerElement(("a", "a", "b"), ("c", "b", "a")))))
    everything = frozenset(product(g.universe, repeat=2))
    clf = AtomClassifier(g, ("x", "y"))
    for explicit in ((no_constant,), (no_constant, short, long)):
        system = PowerSystem(("x", "y"), explicit)
        horizon_stop = sum(stream_horizon(system))
        assert horizon_stop == (1 if len(explicit) == 1 else 6)
        for stop in (0, 1, horizon_stop, 2 * horizon_stop):
            masks = coordinate_masks(g, system, stop)
            assert len(masks) == stop
            oracle = [everything.intersection(*support.oracle_profile(g, system, i)) for i in range(stop)]
            assert list(map(clf.decode, masks)) == oracle, (explicit, stop)
        profile = coordinate_profile(g, system)
        for i in range(2 * horizon_stop):
            assert frozenset(map(clf.decode, profile.at(i))) == support.oracle_profile(g, system, i), (explicit, i)
        reps = class_representatives(g, system, profile)
        assert reps == support.reference_class_representatives(g, system, profile)
        assert wrap(g, system).verified
        if explicit == (no_constant,):
            assert profile == Periodic((), ((clf.mask(no_constant),),))
            (rep,) = reps
            assert (rep.representative, rep.coordinate, rep.source) == (no_constant, 0, SourceRef(0))


def test_a_bad_label_in_the_second_explicit_prefix_is_named_where_it_is_read():
    """E(x, [a,zp,(b)]) after a good equation: a stop of 1 never reads zp, and every stop past it names it."""
    g = triangle_graph()
    first = RelationAtom("E", (x, Const(PowerElement((), ("b", "c")))))
    second = RelationAtom("E", (x, Const(PowerElement(("a", "zp"), ("b",)))))
    system = PowerSystem(("x",), (first, second))
    assert stream_horizon(system) == (2, 2)
    assert len(coordinate_masks(g, system, 1)) == 1
    for stop in (2, 4, 9):
        with pytest.raises(ValueError) as raised:
            coordinate_masks(g, system, stop)
        assert (raised.type, str(raised.value)) == (ValueError, "constant 'zp' is not a universe element"), stop
    with pytest.raises(ValueError, match="^constant 'zp' is not a universe element$"):
        consistent(g, system)


def test_satisfies_edge_cases_match_oracle():
    g = FiniteStructure(
        SAT_SIGNATURE,
        ["a", "b", "c"],
        {
            "R": [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "a")],
            "T": [("a", u, v) for u in "abc" for v in "abc"] + [("b", "a", "c")],
        },
    )
    ab, ba = PowerElement((), ("a", "b")), PowerElement((), ("b", "a"))
    y = Var("y")
    no_slot = StaircaseFamily(RelationAtom("R", (x, y)))
    # two slots whose tails differ in prefix and cycle length
    first = Staircase(("a", "b"), PowerElement(("a", "a", "c"), ("a",)))
    second = Staircase(("c",), PowerElement(("c",), ("c", "b", "c")))
    two_slots = StaircaseFamily(RelationAtom("T", (x, Const(first), Const(second))))
    a_stair = Const(Staircase(("a",), constant_stream("a")))
    constants_only = StaircaseFamily(RelationAtom(EQUALITY, (a_stair, a_stair)))
    loop = StaircaseFamily(RelationAtom("R", (x, x)))
    to_b = RelationAtom("R", (x, Const(constant_stream("b"))))
    w = PowerElement(("c",), ("a",))
    cases = [
        (("x", "y"), (), (no_slot,), (ab, ba)),
        (("x", "y"), (), (no_slot,), (ab, PowerElement(("b",), ("c",)))),
        (("x",), (), (two_slots,), (constant_stream("a"),)),
        (("x",), (), (two_slots,), (PowerElement(("a", "a", "a"), ("b",)),)),
        (("x",), (RelationAtom("R", (x, x)),), (), (PowerElement(("a",), ("b",)),)),
        (("x",), (RelationAtom("R", (x, x)),), (), (constant_stream("a"),)),
        (("x", "y"), (RelationAtom(EQUALITY, (x, y)),), (), (ab, PowerElement(("b",), ("b", "a")))),
        (("x", "y"), (RelationAtom(EQUALITY, (x, y)),), (), (ab, ab)),
        (("x",), (RelationAtom("R", (Const(ab), Const(ba))),), (), (constant_stream("c"),)),
        (("x",), (RelationAtom("R", (Const(ab), Const(ab))),), (), (constant_stream("c"),)),
        (("x",), (), (constants_only,), (constant_stream("c"),)),
        # w is declared and given a value, but no equation reads it
        (("x", "w"), (to_b,), (loop,), (constant_stream("a"), w)),
        (("x", "w"), (to_b,), (loop,), (ab, w)),
        (("x",), (), (), (constant_stream("a"),)),
        # cycles of length 2 and 3: the row (b, b) first shows at coordinate 5
        (("x",), (RelationAtom("R", (x, Const(PowerElement((), ("a", "a", "b"))))),), (), (ab,)),
    ]
    answers = []
    for variables, explicit, families, point in cases:
        system = PowerSystem(variables, explicit, families)
        answers.append(satisfies(g, system, point))
        assert answers[-1] == support.oracle_satisfies(g, system, point), (system, point)
    assert answers == [True, False, True, False, False, True, False, True, True, False, True, True, False, True, False]


def test_satisfies_names_a_point_label_outside_the_universe():
    """Any atom, equality too, raises KeyError naming the label, explicit or in a family, and so does an unread entry.

    A point entry that no equation reads, or a point for a system with no
    equation, is looked up too.  A system constant outside the universe
    raises ValueError, as in consistent.
    """
    g = triangle_graph()
    to_a = Const(constant_stream("a"))
    stair = Const(Staircase(("a",), constant_stream("a")))  # every member is the constant a
    relations = [
        PowerSystem(("x",), (RelationAtom("E", (x, to_a)),)),
        PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (x, stair))),)),
    ]
    # "b" alone solves both; "z" is read only at coordinate 0 of the second point
    for point in (constant_stream("z"), PowerElement(("z",), ("b",))):
        for system in relations:
            assert satisfies(g, system, (constant_stream("b"),))
            with pytest.raises(KeyError, match="unknown universe element 'z'"):
                satisfies(g, system, (point,))
    z = Const(constant_stream("z"))
    equalities = [
        PowerSystem(("x",), (RelationAtom(EQUALITY, (x, z)),)),
        PowerSystem(("x",), (RelationAtom(EQUALITY, (x, to_a)),)),
        PowerSystem(("x",), (), (StaircaseFamily(RelationAtom(EQUALITY, (x, stair))),)),
    ]
    for system in equalities:
        with pytest.raises(KeyError, match="unknown universe element 'z'"):
            satisfies(g, system, (constant_stream("z"),))
    assert satisfies(g, equalities[-1], (constant_stream("a"),)) is True
    unread = (PowerSystem(("x", "w"), (RelationAtom("E", (x, to_a)),)), (constant_stream("b"), constant_stream("zz")))
    no_equation = (PowerSystem(("x",)), (constant_stream("zz"),))
    for system, point in (unread, no_equation):
        with pytest.raises(KeyError, match="unknown universe element 'zz'"):
            satisfies(g, system, point)
    zz_stair = Const(Staircase(("a",), constant_stream("zz")))
    for system in (
        PowerSystem(("x",), (RelationAtom("E", (x, Const(constant_stream("zz")))),)),
        PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (x, zz_stair))),)),
    ):
        for check in (satisfies, lambda g, system, _: consistent(g, system)):
            with pytest.raises(ValueError, match="constant 'zz' is not a universe element"):
                check(g, system, (constant_stream("b"),))


def test_satisfies_names_an_unknown_label_whatever_the_row_order():
    """The unknown label is named even when a row of known labels fails too, under every hash seed.

    Against E(x, a) on the triangle the point [zk,(a)] gives two failing
    rows, (zk, a) and (a, a).  Which one a set of rows meets first depends
    on the string hashes, so over 40 labels zk a check that reads only the
    first failing row misses some of them under any seed.
    """
    g = triangle_graph()
    to_a = Const(constant_stream("a"))
    stair = Const(Staircase(("a",), constant_stream("a")))
    systems = [
        PowerSystem(("x",), (RelationAtom("E", (x, to_a)),)),
        PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (x, stair))),)),
    ]
    for k in range(40):
        point = (PowerElement((f"z{k}",), ("a",)),)
        for system in systems:
            with pytest.raises(KeyError, match=f"unknown universe element 'z{k}'"):
                satisfies(g, system, point)
            with pytest.raises(KeyError, match=f"unknown universe element 'z{k}'"):
                support.oracle_satisfies(g, system, point)


def test_members_hold_names_an_unknown_label_whatever_the_row_order():
    """members_hold names the unknown label beside a failing row of known labels, whatever the dict's order.

    The certificate (a, a, zk, a) gives the family E(x, stair(a; a)), every
    member the constant a, so on the triangle the point that is zk at
    coordinate 0 and a from there (switch 1) fails member 1 on (zk, a) and
    on (a, a).  Over 40 labels zk, each dict order and each bound, a check
    that looks up only one failing row misses some of them.
    """
    g = triangle_graph()
    for k in range(40):
        failing = noetherian._failing_rows(g, WitnessPackage("graph", ("a", "a", f"z{k}", "a")), 1)
        assert failing == {(f"z{k}", "a"): 1, ("a", "a"): 1}
        for rows in (failing, dict(reversed(failing.items()))):
            for last in (1, math.inf):
                with pytest.raises(KeyError, match=f"unknown universe element 'z{k}'"):
                    noetherian.members_hold(g, rows, last)


def test_satisfies_rejects_bad_points_like_the_oracle():
    g = triangle_graph()
    system = staircase_demo_system()
    for check in (satisfies, support.oracle_satisfies):
        with pytest.raises(ValueError):
            check(g, system, ())
        with pytest.raises(ValueError):
            check(g, system, (constant_stream("a"), constant_stream("b")))
        undeclared = PowerSystem(("x",), (RelationAtom("E", (Var("z"), Const(constant_stream("a")))),), ())
        with pytest.raises(UnboundVariableError):
            check(g, undeclared, (constant_stream("b"),))
        stair = Const(Staircase(("a",), constant_stream("b")))
        in_family = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (Var("z"), stair))),))
        with pytest.raises(UnboundVariableError):
            check(g, in_family, (constant_stream("b"),))
