"""Direct powers with countably many coordinates: elements, systems, staircase families.

Periodic is the one eventually periodic sequence type: a finite prefix plus a
repeating cycle.  Elements of the power are Periodic streams of universe
labels kept in canonical form (shortest prefix, then shortest cycle).  The
coordinate profile and wrap's index sets are Periodic too, and horizon() is
the one rule for when a set of them repeats.  Equation systems over the
power may list equations explicitly and may also include staircase
families, which present one equation per n >= 1 by splicing a repeating
generator stream in front of a shifted tail stream.
A family's rows are two tables built once from its descriptors, the L
generator_rows by residue and the tail_rows by joint tail position, whose
docstring states which rows a member shows where.  Every per-coordinate
reading of a family reads those two tables, except that projection_entries
reads its one generator row off the descriptors; wrap's candidate scan
classifies each of their rows once, and Staircase.member_constant writes one
member out.

Everything decidable here reduces to per-coordinate questions over the base
structure.  coordinate_masks gives each coordinate's solution set, the AND of
its atom masks, computed coordinate by coordinate; consistent,
power_systems_equivalent, satisfies and wrap's verify_wrap are queries on
it.  Every per-row classification here, in coordinate_masks,
coordinate_profile and wrap's candidate scan, reads AtomClassifier.rows of
the one AtomClassifier.of that serves a structure and variable list, so a
row of slot values is classified once per atom shape and job, straight from
the relation table and never built into an atom, and consistent's core
search reuses the masks.  coordinate_masks ANDs one column per source: an
explicit equation's masks by coordinate, its constants zipped straight up
to the stop, and per family the running AND of its tail masks, held from
P + C - 1 on, ANDed with its generator masks cycled by residue, so every
tail position costs one mask, not one per coordinate.  projection_entries
lists pi_i at one coordinate in projection order, each distinct equation
with its earliest source: each explicit equation projected at i, then per
family the rows its members show; the walk down from i reads at most P + C
tail rows however large i is.
coordinate_profile, which wrap reads, lists each coordinate's distinct masks
from one column per source, classifying each distinct row once: an explicit
equation's entry at i is the mask of its zip_streams row, the one row reader
on wrap's path, and a family's the running masks of its tail positions
0..min(i, P + C - 1) and the generator row's mask at i mod L.  The finite
horizon used for those reductions is computed from the input data by
stream_horizon, whose docstring proves that the rows repeat from there on,
and verify_wrap re-checks wrap's output coordinate by coordinate past it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, islice, repeat
from operator import add, and_
from typing import Any

from .errors import InputFormatError, json_int, json_object, json_str_list
from .solver import (
    AtomClassifier,
    Const,
    Equation,
    EquationSystem,
    _with_slots,
    const_values,
    equation_from_json_dict,
    equation_to_json_dict,
    map_constants,
    minimal_inconsistent_subset,
    system_fields_from_json,
)
from .structures import FiniteStructure


def _primitive_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


def _canonical(prefix: tuple[str, ...], cycle: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    cycle = _primitive_cycle(cycle)
    if not prefix or prefix[-1] != cycle[-1]:
        return prefix, cycle
    # count the prefix entries that agree with the cycle read backwards, then absorb them all at once
    k, c = 1, len(cycle)
    while k < len(prefix) and prefix[-1 - k] == cycle[-1 - k % c]:
        k += 1
    cut = c - k % c
    return prefix[:-k], cycle[cut:] + cycle[:cut]


@dataclass(frozen=True)
class Periodic:
    """Eventually periodic sequence: the prefix entries, then the cycle forever."""

    prefix: tuple[Any, ...]
    cycle: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be nonempty")

    def at(self, i: int) -> Any:
        if i < 0:
            raise IndexError("coordinates are numbered from 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def map(self, fn: Callable[[Any], Any]) -> "Periodic":
        """The entrywise image, with the same prefix and cycle lengths."""
        return Periodic(tuple(map(fn, self.prefix)), tuple(map(fn, self.cycle)))

    def take(self, n: int) -> tuple[Any, ...]:
        """The entries at 0..n-1."""
        if n < 0:
            raise IndexError("coordinates are numbered from 0")
        repeats = -(-max(0, n - len(self.prefix)) // len(self.cycle))
        return (self.prefix + self.cycle * repeats)[:n]


def horizon(streams: Iterable[Periodic]) -> tuple[int, int]:
    """(largest prefix, lcm of the cycle lengths): from there on every stream repeats with that period."""
    stab, period = 0, 1
    for s in streams:
        stab, period = max(stab, len(s.prefix)), math.lcm(period, len(s.cycle))
    return stab, period


def zip_streams(streams: Sequence[Periodic]) -> Periodic:
    """The stream of entry tuples: entry i holds the streams' entries at i, in order.

    The prefix covers horizon(streams)' stabilization and the cycle one period;
    with no streams every entry is () (zip yields no row, and horizon is (0, 1)).
    """
    stab, period = horizon(streams)
    rows = tuple(zip(*(s.take(stab + period) for s in streams))) or ((),)
    return Periodic(rows[:stab], rows[stab:])


@dataclass(frozen=True)
class PowerElement(Periodic):
    """Element of the power: a stream of universe labels.

    Construction canonicalizes (shortest prefix, then shortest cycle), so
    structural equality coincides with equality of the streams themselves.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        prefix, cycle = _canonical(tuple(map(str, self.prefix)), tuple(map(str, self.cycle)))
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def __str__(self) -> str:
        body = ",".join(self.prefix)
        loop = ",".join(self.cycle)
        return f"[{body}{',' if body else ''}({loop})]"


@dataclass(frozen=True)
class Staircase:
    """Descriptor for one constant slot of a staircase family.

    Member n takes coordinates 0..n-2 from the repeating generator stream and
    every later coordinate from the tail stream restarted at its beginning, so
    member 1 is exactly the tail.
    """

    generator: tuple[str, ...]
    tail: PowerElement

    def __post_init__(self) -> None:
        object.__setattr__(self, "generator", tuple(str(v) for v in self.generator))
        if not self.generator:
            raise ValueError("generator must be nonempty")

    def __str__(self) -> str:
        return f"stair(generator={','.join(self.generator)}; tail={self.tail})"

    def member_constant(self, n: int) -> PowerElement:
        if n < 1:
            raise ValueError("family members are numbered from 1")
        head = Periodic((), self.generator).take(n - 1)
        return PowerElement(head + self.tail.prefix, self.tail.cycle)


@dataclass(frozen=True)
class StaircaseFamily:
    """One equation per member n >= 1: the atom with each Staircase constant replaced by member n's stream."""

    atom: Equation  # Const args hold Staircase descriptors

    def descriptors(self) -> tuple[Staircase, ...]:
        return tuple(a.value for a in self.atom.args if isinstance(a, Const))

    @functools.cached_property
    def generator_rows(self) -> tuple[tuple[str, ...], ...]:
        """The L generator rows, L the lcm of the generator lengths: row r holds the slots' generators at residue r.

        Computed on first use.  A family without a constant slot has one
        empty row here and in tail_rows.
        """
        return zip_streams([Periodic((), s.generator) for s in self.descriptors()]).cycle

    @functools.cached_property
    def tail_rows(self) -> Periodic:
        """The joint tail rows by tail position, computed on first use: a prefix of P rows, then a cycle of C.

        P is the largest tail prefix and C the lcm of the tail cycles.
        Member n shows generator_rows[i mod L] at each coordinate i <= n - 2
        and tail_rows.at(i - n + 1) at every later i, so at coordinate i the
        family shows the tail rows at positions 0..i and the generator row
        at i mod L.
        """
        return zip_streams([s.tail for s in self.descriptors()])

    def member(self, n: int) -> Equation:
        if n < 1:
            raise ValueError("family members are numbered from 1")
        return map_constants(self.atom, lambda s: s.member_constant(n))

    def projected_member(self, n: int, i: int) -> Equation:
        """Base-structure equation pi_i(member n), read off generator_rows and tail_rows.

        It applies the member law that tail_rows states.  The package reads
        members by rows (projection_entries, wrap's candidate scan); this
        one-member reader serves the tests and the benchmark's tracer.
        """
        if n < 1:
            raise ValueError("family members are numbered from 1")
        generators = self.generator_rows
        return _with_slots(self.atom, generators[i % len(generators)] if n >= i + 2 else self.tail_rows.at(i - n + 1))


@dataclass(frozen=True)
class PowerSystem:
    """Equations over the direct power: an explicit list plus staircase families, with no rows cached.

    A constant of the power is a stream: construction writes a plain label a
    in an explicit equation as its constant stream (a, a, ...).
    """

    variables: tuple[str, ...]
    explicit: tuple[Equation, ...] = ()
    families: tuple[StaircaseFamily, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))

        def stream(v: Any) -> PowerElement:
            return v if isinstance(v, PowerElement) else PowerElement((), (v,))

        def streams(eq: Equation) -> Equation:
            written = all(isinstance(a.value, PowerElement) for a in eq.args if isinstance(a, Const))
            return eq if written else map_constants(eq, stream)

        object.__setattr__(self, "explicit", tuple(map(streams, self.explicit)))
        object.__setattr__(self, "families", tuple(self.families))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables: {self.variables}")


def project_equation(eq: Equation, i: int) -> Equation:
    """Replace every stream constant by its value at coordinate i."""
    if i < 0:
        raise IndexError("coordinates are numbered from 0")
    return map_constants(eq, lambda v: v.at(i))


@dataclass(frozen=True)
class SourceRef:
    """Where a projected equation came from: explicit equation `index`, or a member of family `index`."""

    index: int
    member: int | None = None

    def to_json_dict(self) -> dict:
        if self.member is None:
            return {"explicit": self.index}
        return {"family": self.index, "member": self.member}

    @staticmethod
    def from_json_dict(doc: Any) -> "SourceRef":
        if isinstance(doc, Mapping) and set(doc) == {"explicit"}:
            return SourceRef(json_int(doc["explicit"], "explicit index", 0))
        if isinstance(doc, Mapping) and set(doc) == {"family", "member"}:
            index = json_int(doc["family"], "family index", 0)
            return SourceRef(index, json_int(doc["member"], "family member", 1))
        raise InputFormatError(f"bad source reference {doc!r}")


def resolve_source(system: PowerSystem, ref: SourceRef) -> Equation:
    """The power equation a SourceRef points at."""
    if ref.member is None:
        return system.explicit[ref.index]
    return system.families[ref.index].member(ref.member)


def projection_entries(system: PowerSystem, i: int) -> dict[Equation, SourceRef]:
    """The distinct equations of pi_i(system) in projection order, each mapped to its earliest source.

    Projection order lists each explicit equation projected at i, then per
    family the rows its members show at i in ascending member order.  An
    explicit equation is read at i by project_equation, so one coordinate
    never zips its constants to their joint horizon, which for two coprime
    cycles p and q holds p * q rows.  Member n <= i + 1 shows the joint tail
    row at position j = i - n + 1, and member i + 2 and every later one the
    generator row at i mod L (tail_rows).  So at coordinate i a family shows
    exactly the tail rows at positions 0..i and one generator row.  The walk
    reads positions i, i - 1, .. as members 1, 2, .., then the generator row
    as member i + 2; setdefault keeps each row's least member, and then each
    equation's earliest source, so each distinct row is built into an
    equation once.  With P the tail prefix and C the tail cycle, a cycle
    position p < i - C + 1 shows the row of some p + kC in i - C + 1 .. i,
    a lesser member, so the walk goes from max(P, i - C + 1) straight to the
    prefix positions min(i, P - 1) .. 0: at most P + C tail reads and one
    generator read however large i is.  The generator row is read off the
    descriptors at i, so the L generator_rows are not built.
    """
    out: dict[Equation, SourceRef] = {}
    for index, eq in enumerate(system.explicit):
        out.setdefault(project_equation(eq, i), SourceRef(index))
    for index, fam in enumerate(system.families):
        tails = fam.tail_rows
        tail_prefix, tail_cycle = len(tails.prefix), len(tails.cycle)
        walk = chain(range(i, max(tail_prefix, i - tail_cycle + 1) - 1, -1), range(min(i, tail_prefix - 1), -1, -1))
        members: dict[tuple[str, ...], int] = {}  # each row the family shows at i, to its least member
        for j in walk:
            members.setdefault(tails.at(j), i - j + 1)
        members.setdefault(tuple(s.generator[i % len(s.generator)] for s in fam.descriptors()), i + 2)
        for values, member in members.items():
            out.setdefault(_with_slots(fam.atom, values), SourceRef(index, member))
    return out


def projected_system(system: PowerSystem, i: int) -> EquationSystem:
    """pi_i of the whole system as a base equation system (distinct equations), read at i however far out.

    Past the stream_horizon's stab it repeats with the period; stream_horizon proves it.
    """
    return EquationSystem(system.variables, tuple(projection_entries(system, i)))


def stream_horizon(*systems: PowerSystem) -> tuple[int, int]:
    """(stabilization, period) bounding when the systems' per-coordinate projections repeat.

    Stabilization covers every explicit constant prefix and, per family, one
    full pass of the joint tail streams (new tail values stop appearing after
    max prefix + lcm of tail cycles).  The period is the lcm of all cycle
    lengths: explicit constants, family tails, family generators.  A
    family's P + C and C are read off its tail_rows, and L is the number of
    its generator_rows.  Given several systems, this is their joint horizon.

    From stabilization on, projection_entries lists the same equations at
    i + period as at i, in the same order; only the members may differ.  An
    explicit equation's projection at i reads its streams' entries at i,
    past their prefixes, and period is a multiple of their cycles.  A
    family's walk from i >= P + C - 1 reads the cycle positions
    i .. i - C + 1, in an order set by (i - P) mod C, then the same prefix
    positions, and then the generator row at i mod L; C and L divide the
    period.  So the tail rows' set is constant past P + C - 1, and
    coordinate_profile repeats too.  Nothing recomputes a period to check
    this; verify_wrap re-checks wrap's output against the original
    coordinate by coordinate past the horizon.
    """
    stab, period = horizon(pe for system in systems for eq in system.explicit for pe in const_values(eq))
    for fam in (f for system in systems for f in system.families):
        if fam.descriptors():
            tails = fam.tail_rows
            stab = max(stab, len(tails.prefix) + len(tails.cycle))
            period = math.lcm(period, len(fam.generator_rows), len(tails.cycle))
    return stab, period


def coordinate_profile(structure: FiniteStructure, system: PowerSystem) -> Periodic:
    """Per-coordinate solution profile: the distinct atom masks of pi_i(system), one column per source.

    Entry i is the columns' entries at i concatenated in source order and
    deduplicated, keeping first occurrences.  Rows are classified through
    AtomClassifier.rows, so each distinct row of an atom shape is built
    into an atom once, and wrap's candidate scan and verify_wrap read the
    same memo after this build.
      * An explicit equation's column is the masks of its zip_streams rows.
      * A family shows at i its tail rows T[0..i] and its generator row
        G[i mod L] (projection_entries).  With P the tail prefix and C the
        tail cycle, tail[j] lists the distinct masks of T[0..j] for
        j < P + C, and a later position repeats one of those, so the
        family's entry i is tail[min(i, P + C - 1)] + gen[i mod L], gen[r]
        being G[r]'s mask.
    Within an entry a family's masks come in tail position order, not in
    projection order.  The order of first occurrences over the whole table,
    which class_representatives reads, is unchanged: every tail row at
    j < i already showed at j (as member 1), and G[i mod L] showed at
    i mod L, so only T[i] (i < P + C) and G[i] (i < L) can bring a new mask
    at i, and they come in the same order in both listings.
    The prefix covers the stream_horizon's stabilization and the cycle one
    period, so at(i) holds for every coordinate: stream_horizon proves that
    the rows repeat with that period from there on.
    """
    stab, period = stream_horizon(system)
    stop = stab + period
    classifier = AtomClassifier.of(structure, system.variables)
    columns: list[Iterable[tuple[int, ...]]] = []
    for eq in system.explicit:
        row_masks = classifier.rows(eq)
        columns.append(zip_streams(const_values(eq)).map(lambda values: (row_masks[values],)).take(stop))
    for fam in system.families:
        tails, row_masks = fam.tail_rows, classifier.rows(fam.atom)
        tail, seen = [], {}  # tail[j]: the distinct masks of tail positions 0..j
        for values in tails.prefix + tails.cycle:
            seen[row_masks[values]] = None
            tail.append(tuple(seen))
        gen = [(row_masks[values],) for values in fam.generator_rows]
        columns.append(map(add, chain(tail, repeat(tail[-1])), islice(cycle(gen), stop)))
    table = [tuple(dict.fromkeys(chain.from_iterable(entry))) for entry in zip(*columns)] if columns else [()] * stop
    return Periodic(tuple(table[:stab]), tuple(table[stab:]))


@dataclass(frozen=True)
class InconsistencyCertificate:
    """A coordinate whose projection has no solution, with a minimal core.

    The core lists projected base equations; sources point back at the
    explicit equations or family members they came from, and lifted contains
    those power equations themselves (a finite inconsistent subsystem).
    """

    coordinate: int
    core: EquationSystem
    sources: tuple[SourceRef, ...]
    lifted: tuple[Equation, ...]


@dataclass(frozen=True)
class ConsistencyVerdict:
    certificate: InconsistencyCertificate | None = None

    @property
    def consistent(self) -> bool:
        return self.certificate is None


def coordinate_masks(structure: FiniteStructure, system: PowerSystem, stop: int) -> list[int]:
    """The AND of the atom masks of pi_i(system) at every coordinate i < stop.

    verify_wrap's own reader: it never reads coordinate_profile nor zips an
    explicit equation through zip_streams, only the row memo
    AtomClassifier.rows, each explicit equation's constants and each
    family's generator_rows and tail_rows, so a fault in the profile wrap is
    built from cannot agree with itself here.  Each source gives one column
    of masks, ANDed into the entries in one pass.  An explicit equation's
    column is the masks of its constants' entries at 0..stop - 1 zipped into
    rows, or of `stop` empty rows when it has no constant, classified in
    coordinate order; no horizon is computed and no Periodic built for it.  A
    family shows at coordinate i its tail rows at positions 0..i and its
    generator row at i mod L, and a tail position past P + C - 1 repeats one
    at or below it, so its column at i is the running AND of its tail masks
    up to position min(i, P + C - 1), ANDed with the generator mask at
    i mod L.  Per family the generator rows r < min(L, stop) are classified
    first, then all P + C tail rows.  The classifier is AtomClassifier.of's,
    which minimal_inconsistent_subset reads after this scan.
    """
    classifier = AtomClassifier.of(structure, system.variables)
    masks = [classifier.full] * stop
    for eq in system.explicit:
        streams = const_values(eq)
        rows = zip(*[s.take(stop) for s in streams]) if streams else repeat((), stop)
        masks = list(map(and_, masks, map(classifier.rows(eq).__getitem__, rows)))
    for fam in system.families:
        tails, row_masks = fam.tail_rows, classifier.rows(fam.atom)
        gen = [row_masks[values] for values in fam.generator_rows[:stop]]
        tail = list(accumulate(map(row_masks.__getitem__, tails.prefix + tails.cycle), and_))
        masks = list(map(and_, masks, map(and_, chain(tail, repeat(tail[-1])), cycle(gen))))
    return masks


def consistent(structure: FiniteStructure, system: PowerSystem) -> ConsistencyVerdict:
    """A system solves iff every coordinate projection solves; the first failure certifies."""
    masks = coordinate_masks(structure, system, sum(stream_horizon(system)))
    if all(masks):
        return ConsistencyVerdict()
    i = masks.index(0)
    refs = projection_entries(system, i)
    core = minimal_inconsistent_subset(structure, EquationSystem(system.variables, tuple(refs)))
    sources = tuple(refs[atom] for atom in core.equations)
    lifted = tuple(resolve_source(system, ref) for ref in sources)
    return ConsistencyVerdict(InconsistencyCertificate(i, core, sources, lifted))


def power_systems_equivalent(structure: FiniteStructure, first: PowerSystem, second: PowerSystem) -> bool:
    """Whether both systems carve out the same solution set in the power.

    Two inconsistent systems are equivalent regardless of where they fail;
    otherwise the per-coordinate solution sets must agree everywhere, checked
    over the joint horizon.
    """
    if first.variables != second.variables:
        raise ValueError(f"variable lists differ: {first.variables} vs {second.variables}")
    stop = sum(stream_horizon(first, second))
    a, b = (coordinate_masks(structure, s, stop) for s in (first, second))
    return a == b or (0 in a and 0 in b)


def satisfies(structure: FiniteStructure, system: PowerSystem, point: Sequence[PowerElement]) -> bool:
    """Exact membership of the point in the system's solution set: a query on coordinate_masks.

    The universe indices of the point's labels at coordinate i are the
    digits of one assignment index, variable 0 the most significant: that is
    itertools.product's order, and so AtomClassifier's bit order.  Every
    label of the point is looked up, and one outside the universe raises
    KeyError, whether or not an equation reads it.  The masks repeat with the
    stream_horizon's period from its stabilization on, and the point with
    its own period from its longest prefix, so checking the bit at every
    i < max(stab, point prefix) + lcm(period, point cycles) decides every
    coordinate.  It reads the same columns as consistent;
    support.oracle_satisfies is its independent check.
    """
    if len(point) != len(system.variables):
        raise ValueError(f"point has {len(point)} entries for variables {system.variables}")
    stab, period = stream_horizon(system)
    point_stab, point_period = horizon(point)
    stop = max(stab, point_stab) + math.lcm(period, point_period)
    rows = zip_streams([pe.map(structure.index) for pe in point]).take(stop)
    masks = coordinate_masks(structure, system, stop)
    k = structure.size
    return all(mask >> functools.reduce(lambda j, u: j * k + u, row, 0) & 1 for mask, row in zip(masks, rows))


# --- JSON layout -----------------------------------------------------------
#
# {"variables": ["x"], "equations": [
#     {"rel": "E", "args": [{"var": "x"}, {"const": {"prefix": ["b"], "cycle": ["a"]}}]},
#     {"family": {"rel": "E", "args": [{"var": "x"},
#         {"staircase": {"generator": ["b", "c"], "tail": {"prefix": [], "cycle": ["a"]}}}]}}]}


def periodic_to_json_dict(p: Periodic) -> dict:
    return {"prefix": list(p.prefix), "cycle": list(p.cycle)}


def periodic_from_json_dict(
    doc: Any, make: Callable[[tuple, tuple], Periodic], entries: Callable[[Any, str], list], what: str
) -> Periodic:
    """Decode {"prefix": [...], "cycle": [...]} as make(prefix, cycle); entries checks each list."""
    doc = json_object(doc, {"prefix", "cycle"}, what)
    prefix, cycle = entries(doc["prefix"], f"{what} prefix"), entries(doc["cycle"], f"{what} cycle")
    if not cycle:
        raise InputFormatError(f"{what} cycle must be nonempty")
    return make(tuple(prefix), tuple(cycle))


def power_element_from_json_dict(doc: Any) -> PowerElement:
    return periodic_from_json_dict(doc, PowerElement, json_str_list, "stream constant")


def _encode_power_const(value: Any) -> Any:
    if not isinstance(value, PowerElement):
        raise InputFormatError(f"expected a stream constant, got {value!r}")
    return periodic_to_json_dict(value)


def staircase_to_json_dict(s: Staircase) -> dict:
    return {"generator": list(s.generator), "tail": periodic_to_json_dict(s.tail)}


def staircase_from_json_dict(doc: Any) -> Staircase:
    doc = json_object(doc, {"generator", "tail"}, "staircase")
    generator = json_str_list(doc["generator"], "staircase generator")
    if not generator:
        raise InputFormatError("staircase generator must be nonempty")
    return Staircase(tuple(generator), power_element_from_json_dict(doc["tail"]))


def family_to_json_dict(fam: StaircaseFamily) -> dict:
    return {"family": equation_to_json_dict(fam.atom, ("staircase", staircase_to_json_dict))}


def family_from_json_dict(doc: Any) -> StaircaseFamily:
    body = json_object(doc, {"family"}, "family entry")["family"]
    return StaircaseFamily(equation_from_json_dict(body, ("staircase", staircase_from_json_dict)))


def power_equation_to_json_dict(eq: Equation) -> dict:
    return equation_to_json_dict(eq, ("const", _encode_power_const))


def power_equation_from_json_dict(doc: Any) -> Equation:
    return equation_from_json_dict(doc, ("const", power_element_from_json_dict))


def power_system_to_json_dict(system: PowerSystem) -> dict:
    entries: list[dict] = [power_equation_to_json_dict(eq) for eq in system.explicit]
    entries += [family_to_json_dict(fam) for fam in system.families]
    return {"variables": list(system.variables), "equations": entries}


def power_system_from_json_dict(doc: Any) -> PowerSystem:
    variables, entries = system_fields_from_json(doc)
    explicit, families = [], []
    for entry in entries:
        if (type(entry) is dict or isinstance(entry, Mapping)) and set(entry) == {"family"}:
            families.append(family_from_json_dict(entry))
        else:
            explicit.append(power_equation_from_json_dict(entry))
    return PowerSystem(variables, tuple(explicit), tuple(families))
