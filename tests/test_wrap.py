import functools
import importlib
import json
import operator
import random
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import path_graph
from eqpower.errors import InputFormatError
from eqpower.fixtures import staircase_demo_system, triangle_graph
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
    power_systems_equivalent,
    satisfies,
    stream_horizon,
)
from eqpower.solver import AtomClassifier, Const, RelationAtom, Var, const_values
from eqpower.structures import EQUALITY, FiniteStructure
from eqpower.power import periodic_to_json_dict
from eqpower.wrap import (
    class_representatives,
    check_size_bounds,
    index_set_from_json_dict,
    seed_equations,
    verify_wrap,
    wrap,
    wrap_result_from_json_dict,
    wrap_result_to_json_dict,
)

WRAP_MODULE = importlib.import_module("eqpower.wrap")  # eqpower.wrap the attribute is the function


def edge(stream: PowerElement) -> RelationAtom:
    return RelationAtom("E", (Var("x"), Const(stream)))


MEMBER3 = edge(PowerElement(("b", "c"), ("a",)))


def test_index_set_membership_and_complement():
    s = Periodic((True, False), (False, True))
    assert [s.at(i) for i in range(6)] == [True, False, False, True, False, True]
    c = s.map(operator.not_)
    assert [c.at(i) for i in range(6)] == [False, True, True, False, True, False]
    assert c == Periodic((False, True), (True, False))
    with pytest.raises(ValueError):
        Periodic((), ())


def test_index_set_json_round_trip():
    s = Periodic((True,), (False, True))
    assert index_set_from_json_dict(json.loads(json.dumps(periodic_to_json_dict(s)))) == s


def test_demo_class_representatives():
    g = triangle_graph()
    system = staircase_demo_system()
    reps = class_representatives(g, system, coordinate_profile(g, system))
    assert [rep.solutions for rep in reps] == [
        frozenset({("b",), ("c",)}),
        frozenset({("a",), ("c",)}),
        frozenset({("a",), ("b",)}),
    ]
    # one source equation, the three-step family member, covers all classes
    assert {rep.source for rep in reps} == {SourceRef(0, 3)}
    assert [rep.coordinate for rep in reps] == [2, 0, 1]
    assert [rep.representative for rep in reps] == [
        RelationAtom("E", (Var("x"), Const("a"))),
        RelationAtom("E", (Var("x"), Const("b"))),
        RelationAtom("E", (Var("x"), Const("c"))),
    ]


def test_demo_seeds():
    g = triangle_graph()
    system = staircase_demo_system()
    reps = class_representatives(g, system, coordinate_profile(g, system))
    assert seed_equations(system, reps) == {SourceRef(0, 3): MEMBER3}
    assert wrap(g, system).trace.seeds == (MEMBER3,)


def test_wrap_writes_each_chosen_source_out_once():
    """The candidate scan reads members off the row tables, so only the chosen source, member 3, is written out."""
    built = []
    member = StaircaseFamily.member

    def spy(fam, n):
        built.append(n)
        return member(fam, n)

    with mock.patch.object(StaircaseFamily, "member", spy):
        result = wrap(triangle_graph(), staircase_demo_system())
    assert built == [3]
    assert result.trace.seeds == (MEMBER3,)


def test_demo_wrap_output_pinned():
    g = triangle_graph()
    result = wrap(g, staircase_demo_system())
    assert result.verified and result.bound_ok
    assert result.trace.stabilization == 1 and result.trace.period == 2
    assert result.wrapped.families == ()
    assert result.wrapped.explicit == (
        MEMBER3,
        edge(PowerElement((), ("a",))),
        edge(PowerElement(("b", "c"), ("b", "a"))),
        edge(PowerElement(("b",), ("c", "a"))),
    )
    assert [(rep.coordinate, rep.source) for rep in result.trace.representatives] == [
        (2, SourceRef(0, 3)),
        (0, SourceRef(0, 3)),
        (1, SourceRef(0, 3)),
    ]


def test_demo_match_sets():
    result = wrap(triangle_graph(), staircase_demo_system())
    trace = result.trace
    by_solutions = {rep.solutions: st.match for rep, st in zip(trace.representatives, trace.steps)}
    assert by_solutions[frozenset({("b",), ("c",)})] == Periodic((True,), (True, True))
    assert by_solutions[frozenset({("a",), ("c",)})] == Periodic((True,), (False, True))
    assert by_solutions[frozenset({("a",), ("b",)})] == Periodic((False,), (True, False))


def test_wrapped_system_is_equivalent_to_original():
    g = triangle_graph()
    system = staircase_demo_system()
    result = wrap(g, system)
    assert power_systems_equivalent(g, system, result.wrapped)


def test_wrap_of_finite_system_is_stable():
    g = triangle_graph()
    once = wrap(g, staircase_demo_system())
    again = wrap(g, once.wrapped)
    assert again.verified and again.bound_ok
    assert power_systems_equivalent(g, once.wrapped, again.wrapped)


def _differences(structure, original, wrapped, stop) -> list:
    """(i, original solutions, wrapped solutions) at each i < stop where the two coordinate_masks lists differ."""
    decode = AtomClassifier.of(structure, original.variables).decode
    pairs = zip(coordinate_masks(structure, original, stop), coordinate_masks(structure, wrapped, stop))
    return [(i, sorted(decode(a)), sorted(decode(b))) for i, (a, b) in enumerate(pairs) if a != b]


def test_verify_wrap_reports_first_bad_coordinate():
    g = triangle_graph()
    demo = staircase_demo_system()
    incomplete = PowerSystem(("x",), (MEMBER3,), ())
    assert verify_wrap(g, demo, incomplete) is False
    stab, period = stream_horizon(demo, incomplete)
    assert _differences(g, demo, incomplete, stab + 2 * period)[0] == (0, [("c",)], [("a",), ("c",)])


def test_verify_wrap_rejects_variable_mismatch():
    g = triangle_graph()
    other = PowerSystem(("y",), (), ())
    with pytest.raises(ValueError):
        verify_wrap(g, staircase_demo_system(), other)


def test_wrap_inconsistent_system_still_verifies():
    g = triangle_graph()
    system = PowerSystem(
        ("x",),
        (
            RelationAtom(EQUALITY, (Var("x"), Const(PowerElement((), ("a",))))),
            RelationAtom(EQUALITY, (Var("x"), Const(PowerElement((), ("b",))))),
        ),
        (),
    )
    result = wrap(g, system)
    assert result.verified and result.bound_ok
    assert power_systems_equivalent(g, system, result.wrapped)


def test_size_bound_check():
    g = triangle_graph()
    system = staircase_demo_system()
    result = wrap(g, system)
    reps = result.trace.representatives
    assert check_size_bounds(g, system, reps, result.wrapped)
    padded = PowerSystem(
        ("x",),
        tuple(edge(PowerElement((label,) * k, ("a",))) for k in range(7) for label in "bc"),
        (),
    )
    assert not check_size_bounds(g, system, reps, padded)


def test_wrap_result_json_round_trip():
    result = wrap(triangle_graph(), staircase_demo_system())
    doc = json.loads(json.dumps(wrap_result_to_json_dict(result)))
    assert wrap_result_from_json_dict(doc) == result


def test_wrap_result_rejects_malformed_documents():
    result = wrap(triangle_graph(), staircase_demo_system())
    doc = wrap_result_to_json_dict(result)
    broken = dict(doc)
    del broken["wrapped"]
    with pytest.raises(InputFormatError):
        wrap_result_from_json_dict(broken)
    extra = dict(doc)
    extra["surprise"] = 1
    with pytest.raises(InputFormatError):
        wrap_result_from_json_dict(extra)


def _without_steps(doc):
    del doc["trace"]["steps"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(verified="zz"),
        lambda doc: doc.update(bound_ok=1),
        lambda doc: doc["trace"]["steps"][0]["match"]["cycle"].__setitem__(0, "x"),
        _without_steps,
        lambda doc: doc["trace"]["representatives"][0].update(solutions=5),
        lambda doc: doc["trace"]["representatives"][0].update(solutions=["ab"]),
    ],
    ids=["verified-string", "bound-ok-int", "index-set-string", "steps-dropped", "solutions-int", "solutions-string"],
)
def test_wrap_result_decoding_is_strict(mutate):
    doc = json.loads(json.dumps(wrap_result_to_json_dict(wrap(triangle_graph(), staircase_demo_system()))))
    mutate(doc)
    with pytest.raises(InputFormatError):
        wrap_result_from_json_dict(doc)


def _shift_match(doc):
    """Step 0's index set with the prefix folded into the cycle: the same coordinates, other lengths."""
    doc["trace"]["steps"][0]["match"] = {"prefix": [], "cycle": [True, True]}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["trace"]["steps"][1].update(representative=0),
        lambda doc: doc["trace"]["steps"].pop(),
        _shift_match,
        lambda doc: doc["trace"]["steps"][2]["match"]["prefix"].__setitem__(0, True),
        lambda doc: doc["trace"]["representatives"][0]["equation"]["args"][1].update(const="b"),
        lambda doc: doc["trace"].update(stabilization=7),
        lambda doc: doc["trace"].update(period=1),
        lambda doc: doc["wrapped"]["equations"].pop(),
        lambda doc: doc["wrapped"]["equations"].reverse(),
        lambda doc: doc["trace"]["seeds"][0]["args"][1]["const"].update(prefix=["c"]),
    ],
    ids=[
        "step-representative",
        "step-dropped",
        "match-lengths",
        "match-entry",
        "representative-equation",
        "stabilization",
        "period",
        "wrapped-dropped",
        "wrapped-reordered",
        "seed",
    ],
)
def test_wrap_result_copies_must_agree(mutate):
    doc = json.loads(json.dumps(wrap_result_to_json_dict(wrap(triangle_graph(), staircase_demo_system()))))
    mutate(doc)
    with pytest.raises(InputFormatError):
        wrap_result_from_json_dict(doc)


def _with_source_pairs(doc):
    trace = doc["trace"]
    trace["source_pairs"] = [{"coordinate": r["coordinate"], "source": r["source"]} for r in trace["representatives"]]


def _with_other(doc):
    step = doc["trace"]["steps"][0]
    step["other"] = {part: [not b for b in step["match"][part]] for part in ("prefix", "cycle")}


@pytest.mark.parametrize("mutate", [_with_source_pairs, _with_other], ids=["source-pairs", "other"])
def test_wrap_result_refuses_the_dropped_derived_fields(mutate):
    """A trace no longer repeats each representative's source nor each step's complement; a copy is an unknown key."""
    doc = json.loads(json.dumps(wrap_result_to_json_dict(wrap(triangle_graph(), staircase_demo_system()))))
    mutate(doc)  # the field as the encoder used to write it, in agreement with the rest
    with pytest.raises(InputFormatError, match="must be an object with keys"):
        wrap_result_from_json_dict(doc)


@pytest.mark.parametrize(
    "system, mutate, message",
    [
        (
            PowerSystem(("x",), (), ()),
            lambda doc: doc["trace"].update(stabilization=-3),
            "stabilization must be at least 0",
        ),
        (PowerSystem(("x",), (), ()), lambda doc: doc["trace"].update(period=-2), "period must be at least 1"),
        (
            staircase_demo_system(),
            lambda doc: doc["trace"]["representatives"][0].update(coordinate=-5),
            "class representative coordinate must be at least 0",
        ),
    ],
    ids=["stabilization", "period", "representative-coordinate"],
)
def test_wrap_result_refuses_negative_numbers(system, mutate, message):
    """The empty system's wrap has no step whose lengths would catch a bad horizon; the field's own check must."""
    doc = json.loads(json.dumps(wrap_result_to_json_dict(wrap(triangle_graph(), system))))
    wrap_result_from_json_dict(json.loads(json.dumps(doc)))
    mutate(doc)
    with pytest.raises(InputFormatError, match=message):
        wrap_result_from_json_dict(doc)


def test_verify_wrap_computes_its_extra_period(monkeypatch):
    """Under a horizon reported as (1, 1) every coordinate up to 2 is still computed, not read off a cycle."""
    monkeypatch.setattr(WRAP_MODULE, "stream_horizon", lambda *systems: (1, 1))  # the demo's true period is 2
    wrapped = PowerSystem(("x",), (RelationAtom(EQUALITY, (Var("x"), Const(PowerElement(("c",), ("b",))))),), ())
    assert verify_wrap(triangle_graph(), staircase_demo_system(), wrapped) is False
    assert _differences(triangle_graph(), staircase_demo_system(), wrapped, 3) == [(2, [("c",)], [("b",)])]


WIDE_STAIRCASE = Path(__file__).resolve().parent / "golden" / "power_inputs" / "wide_staircase.json"


@st.composite
def staircase_systems(draw):
    """(structure, system): 1-3 families and 0-2 explicit stream equations over 1-2 variables.

    Generators have 1-6 entries; tails and explicit streams have a prefix of
    0-3 and a cycle of 1-4 entries.  A family may be drawn as its members
    1..N, N up to 12, written out as explicit equations after the others.
    """
    structure = draw(st.sampled_from((triangle_graph(), path_graph(4))))
    variables = ("x", "y")[: draw(st.integers(1, 2))]
    label = st.sampled_from(structure.universe)
    var = st.sampled_from(variables).map(Var)
    stream = st.builds(
        PowerElement,
        st.lists(label, max_size=3).map(tuple),
        st.lists(label, min_size=1, max_size=4).map(tuple),
    )
    stair = st.builds(Staircase, st.lists(label, min_size=1, max_size=6).map(tuple), stream)

    def atom(slot):
        args = draw(st.tuples(var | slot.map(Const), slot.map(Const)))
        return RelationAtom("E", args[::-1] if draw(st.booleans()) else args)

    families, members = [], []
    for _ in range(draw(st.integers(1, 3))):
        fam, n = StaircaseFamily(atom(stair)), draw(st.none() | st.integers(1, 12))
        if n is None:
            families.append(fam)
        else:
            members += support.explicit_members(fam, n)
    explicit = tuple(atom(stream) for _ in range(draw(st.integers(0, 2))))
    return structure, PowerSystem(variables, explicit + tuple(members), tuple(families))


@settings(deadline=None, max_examples=100)
@given(staircase_systems())
def test_cut_candidate_scan_matches_the_uncut_reference(drawn):
    """Scanning members up to L + 1 per family picks what scanning every member up to the horizon picks."""
    check_cut_candidate_scan(*drawn)


@pytest.mark.parametrize("draw", ("random", "planted", "long", "truncated", "two-slot", "several"))
@pytest.mark.parametrize("seed", range(8))
def test_cut_candidate_scan_matches_the_uncut_reference_at_fixed_seeds(seed, draw):
    """test_cut_candidate_scan_matches_the_uncut_reference's check on fixed seeds of every drawn_system kind.

    Seeds 6 (random) and 7 (long) are draws on which a scan that stops at
    member L, or cuts a member's generator coordinates one short, finds
    other representatives or leaves a set uncovered.
    """
    check_cut_candidate_scan(*drawn_system(seed, draw))


def check_cut_candidate_scan(structure, system):
    profile = coordinate_profile(structure, system)
    expected = support.reference_class_representatives(structure, system, profile)
    assert class_representatives(structure, system, profile) == expected
    with mock.patch.object(WRAP_MODULE, "class_representatives", support.reference_class_representatives):
        reference = wrap_result_to_json_dict(wrap(structure, system))
    assert wrap_result_to_json_dict(wrap(structure, system)) == reference


def drawn_system(seed, draw):
    """(structure, system) drawn from random.Random(seed) by the draw kind.

    "random" is support.random_power_system on a random structure with
    about a third of its families written out (support.truncate_some),
    "planted" support.planted_power_system on a planted structure, and any
    other kind support.profile_power_system's draw of that name.
    """
    rng = random.Random(seed)
    if draw == "random":
        structure = support.random_relational_structure(rng)
        return structure, support.truncate_some(rng, support.random_power_system(rng, structure), 9)
    if draw == "planted":
        structure = rng.choice(sorted(support.planted_structures().items()))[1][1]
        return structure, support.planted_power_system(rng, structure)[0]
    return support.profile_power_system(rng, draw)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**30), st.sampled_from(("random", "planted", "long", "two-slot")))
def test_wrap_discovers_solution_sets_in_projection_order(seed, draw):
    """wrap's document is byte for byte the one built from support.reference_coordinate_profile.

    Within an entry coordinate_profile lists a family's masks in tail
    position order, and the reference in projection order; wrap reads only
    membership and the order in which sets first occur over the whole
    profile, which both share.  Systems are support.random_power_system on
    a random structure with about a third of its families written out
    (support.truncate_some), support.planted_power_system on a planted
    structure, and support.profile_power_system's long and two-slot draws.
    """
    structure, system = drawn_system(seed, draw)
    document = json.dumps(wrap_result_to_json_dict(wrap(structure, system)))
    with mock.patch.object(WRAP_MODULE, "coordinate_profile", support.reference_coordinate_profile):
        assert json.dumps(wrap_result_to_json_dict(wrap(structure, system))) == document


@settings(deadline=None, max_examples=50)
@given(staircase_systems())
def test_verify_wrap_matches_the_oracle_profile(drawn):
    """wrap's output verifies, and a copy without one equation verifies exactly when the oracle sees no difference.

    The oracle intersects support.oracle_profile at every coordinate below
    stab + 2 * period of the joint stream_horizon; the empty intersection is
    the full assignment space.
    """
    structure, system = drawn
    everything = frozenset(product(structure.universe, repeat=len(system.variables)))

    @functools.cache
    def solutions(s: PowerSystem, i: int) -> frozenset:
        return everything.intersection(*support.oracle_profile(structure, s, i))

    result = wrap(structure, system)
    assert result.verified
    assert wrap_result_from_json_dict(json.loads(json.dumps(wrap_result_to_json_dict(result)))) == result
    eqs = result.wrapped.explicit
    for candidate in [eqs] + [eqs[:k] + eqs[k + 1 :] for k in range(len(eqs))]:
        candidate = PowerSystem(system.variables, candidate, ())
        stab, period = stream_horizon(system, candidate)
        expected = all(solutions(system, i) == solutions(candidate, i) for i in range(stab + 2 * period))
        assert verify_wrap(structure, system, candidate) == expected


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**30), st.sampled_from(("long", "truncated", "two-slot", "several")))
def test_verify_wrap_on_a_cold_classifier_agrees_with_the_warm_one(seed, draw):
    """verify_wrap gives the same verdict on the classifier wrap filled and on a fresh copy of the structure.

    wrap fills AtomClassifier.of's row memos for the structure; the copy
    has its own classifier, whose memos start empty.  The wrapped system and
    each copy of it without one equation are checked both ways, on
    support.profile_power_system's draws.
    """
    structure, system = support.profile_power_system(random.Random(seed), draw)
    result = wrap(structure, system)
    assert result.verified
    assert bool(AtomClassifier.of(structure, system.variables)._rows) == bool(system.explicit or system.families)
    tables = {name: structure.tuples(name) for name in structure.signature.names()}
    eqs = result.wrapped.explicit
    for candidate in [eqs] + [eqs[:k] + eqs[k + 1 :] for k in range(len(eqs))]:
        candidate = PowerSystem(system.variables, candidate, ())
        cold = FiniteStructure(structure.signature, structure.universe, tables)
        assert verify_wrap(cold, system, candidate) == verify_wrap(structure, system, candidate)


@pytest.mark.parametrize("name", sorted(support.planted_structures()))
def test_wrap_verifies_planted_systems(name):
    """Per planted structure, 40 systems with a planted solution: the point solves, and wrap's output is too.

    The random corpora above are nearly all inconsistent, and any two
    inconsistent systems are equivalent; these systems all solve, and
    consistent says so.  About 35% of the families are written out as their
    members 1..N, N up to 9 (support.truncate_some), which keeps the point a
    solution, the profile matches the oracle's solution
    sets, and the cut candidate scan picks what the uncut reference picks.
    free_matroid3 and quaternary draw two-slot families.
    """
    _, structure = support.planted_structures()[name]
    rng = random.Random(0)
    for _ in range(40):
        system, point = support.planted_power_system(rng, structure)
        system = support.truncate_some(rng, system, 9)
        assert satisfies(structure, system, point) and support.oracle_satisfies(structure, system, point), system
        assert consistent(structure, system).consistent, system
        profile = coordinate_profile(structure, system)
        clf = AtomClassifier(structure, system.variables)
        for i in range(len(profile.prefix) + 2 * len(profile.cycle)):
            assert frozenset(map(clf.decode, profile.at(i))) == support.oracle_profile(structure, system, i), system
        expected = support.reference_class_representatives(structure, system, profile)
        assert class_representatives(structure, system, profile) == expected, system
        result = wrap(structure, system)
        assert result.verified and power_systems_equivalent(structure, system, result.wrapped), system


@pytest.mark.parametrize("case", ["staircase_demo", "wide_staircase"])
def test_wrap_builds_no_member_past_generator_period_plus_one(case):
    """Member L + 1 is the last candidate, and the scan builds L + P + C family atoms at most.

    L is the lcm of the family's generator lengths, P its tail prefix and C
    its tail cycle; each explicit equation adds at most its own horizon's
    projections.  Every atom the scan builds goes through wrap's
    _with_slots binding.
    """
    if case == "staircase_demo":
        system = staircase_demo_system()
    else:
        system = power_system_from_json_dict(json.loads(WIDE_STAIRCASE.read_text()))
    built, listed = [], []
    with_slots, candidates = WRAP_MODULE._with_slots, WRAP_MODULE._candidates

    def spy_atoms(atom, values):
        built.append(values)
        return with_slots(atom, values)

    def spy_candidates(*args):
        out = candidates(*args)
        listed.extend(out)
        return out

    with mock.patch.object(WRAP_MODULE, "_with_slots", spy_atoms):
        with mock.patch.object(WRAP_MODULE, "_candidates", spy_candidates):
            result = wrap(triangle_graph(), system)
    (fam,) = system.families
    generators, tails = fam.generator_rows, fam.tail_rows
    last = len(generators) + 1
    explicit = sum(sum(horizon(const_values(eq))) for eq in system.explicit)
    assert 0 < len(built) <= len(generators) + len(tails.prefix) + len(tails.cycle) + explicit
    assert max(ref.member for ref in listed if ref.member is not None) == last
    assert {rep.source for rep in result.trace.representatives if rep.source.member is not None} == {
        SourceRef(0, last)  # both inputs take member L + 1 as a source
    }
