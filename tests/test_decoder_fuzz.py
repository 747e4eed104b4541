"""Single-field mutation fuzz of the JSON decoders.

Every mutant of a real document drops one object key or replaces one value
(at any depth) by a JSON value of another type.  A decoder may accept the
mutant or refuse it with InputFormatError; any other exception is a decoder
that trusts its input.  Each decoder may accept at most ACCEPTED_AT_MOST of
its mutants, so a field whose copies stop being checked against each other
shows up as a rise in that count.
"""

from __future__ import annotations

import copy
import json
import types
from pathlib import Path

import pytest

from eqpower.errors import InputFormatError, json_object
from eqpower.fixtures import staircase_demo_system, triangle_graph
from eqpower.noetherian import (
    NOT_NOETHERIAN,
    NoetherianVerdict,
    WitnessPackage,
    build_witness_family,
    power_noetherian,
)
from eqpower.power import (
    PowerElement,
    PowerSystem,
    Staircase,
    StaircaseFamily,
    power_system_from_json_dict,
    power_system_to_json_dict,
)
from eqpower.solver import Const, RelationAtom, Var, system_from_json_dict
from eqpower.structures import EQUALITY, ValidationReport, structure_from_json_dict, validate
from eqpower.wrap import wrap, wrap_result_from_json_dict, wrap_result_to_json_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BASE_SYSTEMS = Path(__file__).resolve().parent / "golden" / "inputs"
REPLACEMENTS = (None, 7, 2.5, True, "zz", ["zz"], {"zz": 1})
ACCEPTED_AT_MOST = {
    "wrap_result_from_json_dict": 31,  # six of them set an index-set entry that is already True
    "power_system_from_json_dict": 39,
    "system_from_json_dict": 59,
    "structure_from_json_dict": 14,
    "ValidationReport.from_json_dict": 9,  # each leaves the document as it was
    "NoetherianVerdict.from_json_dict": 29,
    "WitnessPackage.from_json_dict": 0,
}


def _paths(node, path=()):
    """Every (container path, key or index) below node, depth first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path, key
        yield from _paths(child, path + (key,))


def mutants(doc):
    for path, key in list(_paths(doc)):
        edits = [None] if isinstance(key, str) else []  # None: drop the key
        edits += [(value,) for value in REPLACEMENTS]
        for edit in edits:
            mutant = copy.deepcopy(doc)
            parent = mutant
            for step in path:
                parent = parent[step]
            if edit is None:
                del parent[key]
            else:
                parent[key] = edit[0]
            yield mutant


def _equality_family_system() -> PowerSystem:
    """A family over an equality atom beside an explicit stream equation; no fixture has one."""
    stair = Staircase(("a", "b"), PowerElement(("c",), ("a",)))
    family = StaircaseFamily(RelationAtom(EQUALITY, (Var("x"), Const(stair))))
    explicit = RelationAtom(EQUALITY, (Var("y"), Const(PowerElement((), ("b", "c")))))
    return PowerSystem(("x", "y"), (explicit,), (family,))


def _corpus():
    """(decoder, document) pairs that reach every decoder.

    The demo wrap result, a family over an equality atom, the base systems of
    the golden transcripts, the fixture power systems, and every fixture
    structure with its validation report, verdict and witness package.
    """
    wrap_doc = wrap_result_to_json_dict(wrap(triangle_graph(), staircase_demo_system()))
    yield wrap_result_from_json_dict, wrap_doc
    yield power_system_from_json_dict, power_system_to_json_dict(_equality_family_system())
    for path in sorted(BASE_SYSTEMS.glob("*.json")):
        yield system_from_json_dict, json.loads(path.read_text())
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" not in doc:  # a power system, not a structure
            yield power_system_from_json_dict, doc
            continue
        yield structure_from_json_dict, doc
        kind, structure = structure_from_json_dict(doc)
        yield ValidationReport.from_json_dict, validate(structure, kind).to_json_dict()
        if kind == "generic":
            continue
        verdict = power_noetherian(structure, kind)
        yield NoetherianVerdict.from_json_dict, verdict.to_json_dict()
        if verdict.status == NOT_NOETHERIAN:
            package = build_witness_family(structure, kind, verdict.certificate)
            yield WitnessPackage.from_json_dict, package.to_json_dict()


def test_decoders_raise_only_input_format_errors():
    escaped = []
    count = 0
    accepted = dict.fromkeys(ACCEPTED_AT_MOST, 0)
    for decode, doc in _corpus():
        decode(copy.deepcopy(doc))  # the unmutated document decodes
        for mutant in mutants(doc):
            count += 1
            try:
                decode(mutant)
            except InputFormatError:
                continue
            except Exception as exc:  # any other type is the finding
                escaped.append((decode.__qualname__, type(exc).__name__, json.dumps(mutant)[:200]))
                continue
            accepted[decode.__qualname__] += 1
    assert count > 5000
    assert escaped == []
    assert {name: n for name, n in accepted.items() if n > ACCEPTED_AT_MOST[name]} == {}


def test_an_object_is_a_dict_as_json_loads_makes_it():
    """A read-only mapping is no JSON object, at the top of a document or inside it."""
    proxy = types.MappingProxyType
    with pytest.raises(InputFormatError):
        json_object(proxy({"a": 1}), {"a"}, "object")
    system = power_system_to_json_dict(staircase_demo_system())
    with pytest.raises(InputFormatError):
        power_system_from_json_dict(proxy(system))
    family = next(entry for entry in system["equations"] if set(entry) == {"family"})
    with pytest.raises(InputFormatError):
        power_system_from_json_dict({**system, "equations": [proxy(family)]})
