"""Compress an infinite staircase-presented system into a finite equivalent one.

The construction works per solution set of projected equations: collect one
representative equation per distinct solution set with a source realizing it,
reading the masks of each explicit equation's rows and each family's
generator_rows and tail_rows, all zipped by power.zip_streams, from the row
memo AtomClassifier.rows, which the profile filled by classifying rows
straight from the relation table, and every member's sets off them (only each
set's first row is built into an atom, its representative), seed the output
with the chosen sources, the only ones written out, then add one equation per
solution set whose coordinate stream, read beside the set's index set, follows
that set wherever it occurs and falls back to the source stream elsewhere.  An
index set is the profile mapped through the set of its distinct entries that
hold the set's mask.  The output is equivalent to the input coordinate by
coordinate, since the profile it is built from repeats as stream_horizon's
docstring proves; at coordinate i that profile reads a family's tail rows at
positions 0..i as running masks and its generator row at i mod L, and
coordinate_profile proves that this keeps the first-occurrence order of the
solution sets that class_representatives reads.  The JSON trace stores each
fact once: no step repeats the complement of its index set, and no list
repeats the representatives' coordinates and sources.  verify_wrap checks the
equivalence exhaustively, computing every coordinate below the joint
stream_horizon plus one extra period, so an output spoilt by a wrong horizon
is never verified.

Because there are at most 2^(k^n) solution sets over a k-element structure and
n variables, the output never exceeds 2^(k^n + 1) equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable

from .errors import InputFormatError, json_bool, json_int, json_list, json_object, json_str_list
from .power import (
    Periodic,
    PowerElement,
    PowerSystem,
    SourceRef,
    coordinate_masks,
    coordinate_profile,
    horizon,
    periodic_from_json_dict,
    periodic_to_json_dict,
    power_equation_from_json_dict,
    power_equation_to_json_dict,
    power_system_from_json_dict,
    power_system_to_json_dict,
    project_equation,
    resolve_source,
    stream_horizon,
    zip_streams,
)
from .solver import AtomClassifier, Equation, _with_slots, const_values, map_constants
from .solver import equation_from_json_dict, equation_to_json_dict
from .structures import FiniteStructure

SolutionSet = frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class ClassRep:
    """One projected solution set with a representative equation and where it came from."""

    solutions: SolutionSet
    representative: Equation  # the source's projection at the coordinate
    coordinate: int
    source: SourceRef


@dataclass(frozen=True)
class WrapStep:
    """The step for the representative at the same position in WrapTrace.representatives."""

    match: Periodic  # of bools: the coordinates where the solution set occurs
    merged: Equation  # the built power equation for this solution set


@dataclass(frozen=True)
class WrapTrace:
    stabilization: int
    period: int
    representatives: tuple[ClassRep, ...]
    seeds: tuple[Equation, ...]  # chosen source equations, deduplicated
    steps: tuple[WrapStep, ...]


@dataclass(frozen=True)
class WrapResult:
    wrapped: PowerSystem
    trace: WrapTrace
    verified: bool
    bound_ok: bool


def _first_sets(classifier: AtomClassifier, atom: Equation, rows: Iterable[tuple]) -> dict[int, tuple[int, Equation]]:
    """Each solution set of the atom with a row in its slots, to the first row position showing it and that atom.

    Rows are classified through AtomClassifier.rows, which coordinate_profile
    has filled, and only each set's first row is built into an atom.
    """
    masks = classifier.rows(atom)
    first: dict[int, tuple[int, tuple]] = {}
    for pos, row in enumerate(rows):
        first.setdefault(masks[row], (pos, row))
    return {mask: (pos, _with_slots(atom, row)) for mask, (pos, row) in first.items()}


def _candidates(
    classifier: AtomClassifier, system: PowerSystem, stop: int
) -> dict[SourceRef, dict[int, tuple[int, Equation]]]:
    """Per candidate source, each solution set it realizes, to the least coordinate showing it and the projection there.

    Explicit equations come first, each read over its own horizon as the
    prefix and cycle rows of zip_streams of its constants; then member n
    of each family for n <= min(stop, L) + 1 (see class_representatives).
    The family's rows are its generator_rows G and its tail_rows T.
    Member n shows the generator row G[r] at each coordinate
    r < min(n - 1, L) and the tail row T[j] at n - 1 + j for every
    j < P + C, P the tail prefix and C the tail cycle; every other
    coordinate repeats one of those rows.  So each family's rows G[r] and
    T[j] are read once from AtomClassifier.rows, and member n's sets are
    the generator sets whose first residue is below n - 1, at that residue,
    and then the tail sets at n - 1 plus their first tail position: every
    generator coordinate lies below every tail coordinate.
    """
    out = {}
    for idx, eq in enumerate(system.explicit):
        rows = zip_streams(const_values(eq))
        out[SourceRef(idx)] = _first_sets(classifier, eq, rows.prefix + rows.cycle)
    for fidx, fam in enumerate(system.families):
        generators, tails = fam.generator_rows, fam.tail_rows
        members = range(1, min(stop, len(generators)) + 2)
        gen_sets = _first_sets(classifier, fam.atom, generators[: len(members) - 1])
        tail_sets = _first_sets(classifier, fam.atom, tails.prefix + tails.cycle)
        for n in members:
            shown = {mask: (n - 1 + j, projected) for mask, (j, projected) in tail_sets.items()}
            shown.update((mask, hit) for mask, hit in gen_sets.items() if hit[0] < n - 1)
            out[SourceRef(fidx, n)] = shown
    return out


def class_representatives(structure: FiniteStructure, system: PowerSystem, profile: Periodic) -> tuple[ClassRep, ...]:
    """One representative per projected solution set, sources chosen greedily.

    Sets are ordered by first occurrence in the coordinate scan, read off
    profile, the system's coordinate_profile.  Sources are picked by
    repeatedly taking the candidate (explicit equations first, then family
    members by ascending index and n) that realizes the most still uncovered
    sets; each set then gets the least coordinate at which its chosen source
    realizes it, and its representative is the source's projection there,
    the very atom _candidates classified into that set.

    A family's candidates stop at member min(H + 1, L + 1), where H is the
    profile's horizon and L the lcm of the family's generator lengths.
    Member n projects to the generator values at each i <= n - 2, which
    depend only on i mod L, and to the joint tail at every later i, from
    tail position 0 on.  So from n = L + 1 on every member realizes the same
    sets: those of all L generator residues and of every tail position.
    max takes the first candidate of the largest gain, and equal sets give
    equal gains, so no member past L + 1 is ever taken and scanning it would
    change nothing.  _candidates reads each family's L + P + C row masks
    once and builds every member's sets from them.
    """
    classifier = AtomClassifier.of(structure, system.variables)
    discovery = dict.fromkeys(chain.from_iterable(profile.prefix + profile.cycle))
    uncovered = set(discovery)
    coverage = list(_candidates(classifier, system, len(profile.prefix) + len(profile.cycle)).items())

    assignment: dict[int, ClassRep] = {}
    while uncovered:
        ref, realized = max(coverage, key=lambda c: len(uncovered.intersection(c[1])))
        if uncovered.isdisjoint(realized):
            raise RuntimeError("uncovered projected solution set without a source; this is a bug")
        for mask, (least_i, projected) in realized.items():
            if mask in uncovered:
                uncovered.discard(mask)
                assignment[mask] = ClassRep(classifier.decode(mask), projected, least_i, ref)
    return tuple(assignment[mask] for mask in discovery)


def seed_equations(system: PowerSystem, reps: Iterable[ClassRep]) -> dict[SourceRef, Equation]:
    """Each distinct chosen source and its equation, in first-use order, written out once by resolve_source.

    The coverage scan found each source realizing its set at its representative's
    coordinate, so nothing is checked here; verify_wrap re-checks the output.
    """
    return {ref: resolve_source(system, ref) for ref in dict.fromkeys(rep.source for rep in reps)}


def _merged_equation(rep: ClassRep, source_eq: Equation, match: Periodic) -> Equation:
    """Per-set equation: the set's value where it occurs, the source value elsewhere."""

    def merged(slot: PowerElement) -> PowerElement:
        rep_value = slot.at(rep.coordinate)
        stab, period = horizon((match, slot))
        h = stab + period
        values = [rep_value if hit else value for hit, value in zip(match.take(h), slot.take(h))]
        return PowerElement(values[:stab], values[stab:])

    return map_constants(source_eq, merged)


def wrap(structure: FiniteStructure, system: PowerSystem) -> WrapResult:
    """Compute the finite equivalent system plus the full construction trace."""
    profile = coordinate_profile(structure, system)
    reps = class_representatives(structure, system, profile)
    sources = seed_equations(system, reps)
    seeds = tuple(dict.fromkeys(sources.values()))  # distinct sources may write out equal equations

    classifier = AtomClassifier.of(structure, system.variables)
    entries = set(profile.prefix + profile.cycle)
    steps = []
    for rep in reps:
        mask = classifier.mask(rep.representative)  # memoized: the coverage scan classified it
        hits = {masks for masks in entries if mask in masks}
        match = profile.map(hits.__contains__)
        steps.append(WrapStep(match, _merged_equation(rep, sources[rep.source], match)))

    # canonical stream form makes equal equations structurally equal
    equations = tuple(dict.fromkeys(seeds + tuple(st.merged for st in steps)))
    wrapped = PowerSystem(system.variables, equations, ())

    trace = WrapTrace(len(profile.prefix), len(profile.cycle), reps, seeds, tuple(steps))
    verified = verify_wrap(structure, system, wrapped)
    bound_ok = check_size_bounds(structure, system, reps, wrapped)
    return WrapResult(wrapped, trace, verified, bound_ok)


def verify_wrap(structure: FiniteStructure, original: PowerSystem, wrapped: PowerSystem) -> bool:
    """Per-coordinate equivalence over the joint horizon, plus one extra period, each coordinate computed."""
    if original.variables != wrapped.variables:
        raise ValueError("variable lists differ between original and wrapped systems")
    stab, period = stream_horizon(original, wrapped)
    stop = stab + 2 * period
    return coordinate_masks(structure, original, stop) == coordinate_masks(structure, wrapped, stop)


def check_size_bounds(
    structure: FiniteStructure, system: PowerSystem, reps: Iterable[ClassRep], wrapped: PowerSystem
) -> bool:
    """At most one set per subset of assignment space; at most 2 output equations per set."""
    reps = tuple(reps)
    cells = structure.size ** len(system.variables)
    return len(reps) <= 2 ** cells and len(wrapped.explicit) <= 2 * max(1, len(reps))


# --- JSON layout -----------------------------------------------------------


def index_set_from_json_dict(doc: Any) -> Periodic:
    def bools(entries: Any, what: str) -> list[bool]:
        return [json_bool(b, "index set entries") for b in json_list(entries, what)]

    return periodic_from_json_dict(doc, Periodic, bools, "index set")


def class_rep_to_json_dict(rep: ClassRep) -> dict:
    return {
        "solutions": [list(p) for p in sorted(rep.solutions)],
        "equation": equation_to_json_dict(rep.representative),
        "coordinate": rep.coordinate,
        "source": rep.source.to_json_dict(),
    }


def class_rep_from_json_dict(doc: Any) -> ClassRep:
    doc = json_object(doc, {"solutions", "equation", "coordinate", "source"}, "class representative")
    points = json_list(doc["solutions"], "class representative solutions")
    return ClassRep(
        frozenset(tuple(json_str_list(point, "solution points")) for point in points),
        equation_from_json_dict(doc["equation"]),
        json_int(doc["coordinate"], "class representative coordinate", 0),
        SourceRef.from_json_dict(doc["source"]),
    )


def wrap_result_to_json_dict(result: WrapResult) -> dict:
    trace = result.trace
    return {
        "wrapped": power_system_to_json_dict(result.wrapped),
        "verified": result.verified,
        "bound_ok": result.bound_ok,
        "trace": {
            "stabilization": trace.stabilization,
            "period": trace.period,
            "representatives": [class_rep_to_json_dict(rep) for rep in trace.representatives],
            "seeds": [power_equation_to_json_dict(eq) for eq in trace.seeds],
            "steps": [
                {
                    "representative": idx,
                    "match": periodic_to_json_dict(st.match),
                    "merged": power_equation_to_json_dict(st.merged),
                }
                for idx, st in enumerate(trace.steps)
            ],
        },
    }


def wrap_result_from_json_dict(doc: Any) -> WrapResult:
    """Decode a wrap result; steps must fit their representatives and the horizon, and seeds and steps the output."""
    doc = json_object(doc, {"wrapped", "verified", "bound_ok", "trace"}, "wrap result")
    tdoc = json_object(doc["trace"], {"stabilization", "period", "representatives", "seeds", "steps"}, "wrap trace")
    stab, period = json_int(tdoc["stabilization"], "stabilization", 0), json_int(tdoc["period"], "period", 1)
    reps = tuple(class_rep_from_json_dict(r) for r in json_list(tdoc["representatives"], "representatives"))
    seeds = tuple(power_equation_from_json_dict(e) for e in json_list(tdoc["seeds"], "seeds"))
    sdocs = json_list(tdoc["steps"], "steps")
    if len(sdocs) != len(reps):
        raise InputFormatError(f"a wrap trace has one step per representative, got {len(sdocs)} steps")
    steps = []
    for idx, sdoc in enumerate(sdocs):
        sdoc = json_object(sdoc, {"representative", "match", "merged"}, "wrap step")
        if json_int(sdoc["representative"], "step representative") != idx:
            raise InputFormatError(f"wrap step {idx} must name representative {idx}")
        match = index_set_from_json_dict(sdoc["match"])
        if (len(match.prefix), len(match.cycle)) != (stab, period):
            raise InputFormatError(f"wrap step {idx} 'match' needs {stab} prefix and {period} cycle entries")
        merged = power_equation_from_json_dict(sdoc["merged"])
        if any(match.at(i) and project_equation(merged, i) != reps[idx].representative for i in range(stab + period)):
            raise InputFormatError(f"wrap step {idx} 'merged' must show its representative wherever 'match' holds")
        steps.append(WrapStep(match, merged))
    wrapped = power_system_from_json_dict(doc["wrapped"])
    if wrapped.families or wrapped.explicit != tuple(dict.fromkeys(seeds + tuple(st.merged for st in steps))):
        raise InputFormatError("the wrapped system must list the seeds, then the merged equations, each once")
    return WrapResult(
        wrapped,
        WrapTrace(stab, period, reps, seeds, tuple(steps)),
        json_bool(doc["verified"], "verified"),
        json_bool(doc["bound_ok"], "bound_ok"),
    )
