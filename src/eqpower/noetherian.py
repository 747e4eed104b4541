"""Verdicts on whether a direct power keeps the finite-subsystem property.

For a finite graph the power is equationally Noetherian exactly when every
walk of length three closes back to its start (a quasi-identity over all
vertex quadruples, repeats included).  For matroids the same criterion runs on
P2, after ruling out independent triples: P2 is the edge relation of the
graph of independent pairs, symmetric in a valid matroid, so walks follow it
as they follow E.  A poset is refuted by any strict pair.  Without one it is an
antichain, and its power is Noetherian: leq is equality in A and in A^N, so
every atom is s = t over variables and constants.  A system in n variables has
at most n^2 distinct variable-variable atoms.  A false constant-constant atom
refutes it alone; two different pins on one class of variables refute it with
at most n + 1 atoms, the two pins and a path of equalities between them.
Otherwise one pin per class plus the variable equalities is an equivalent
finite subsystem.

Every negative verdict carries a certificate, and every certificate expands
into a concrete witness family: an infinite staircase system none of whose
finite truncations is equivalent to the whole.  The family is
R(x, stair(g; t)), one generator label against a constant tail, so a
witness depth reads the family's four rows at its point in closed form from
the certificate (_failing_rows), and every depth past 1 - offset answers as
depth 1 - offset does.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from typing import Any

from .errors import InputFormatError, InvalidCertificateError, json_object, json_str, json_str_list
from .power import (
    PowerElement,
    PowerSystem,
    Staircase,
    StaircaseFamily,
    family_to_json_dict,
)
from .solver import Const, RelationAtom, Var
from .structures import FiniteStructure, GRAPH_EDGE_SYMBOL, POSET_ORDER_SYMBOL, validate

NOETHERIAN = "NOETHERIAN"
NOT_NOETHERIAN = "NOT_NOETHERIAN"
CERTIFICATE_KINDS = {4: "quadruple", 3: "triple", 2: "pair"}  # by the number of labels
# the certificate kinds that verdicts and witness packages on each kind of structure carry
KIND_CERTIFICATES = {"graph": ("quadruple",), "poset": ("pair",), "matroid": ("triple", "quadruple")}
# the relation that each kind's open walks (quadruple certificates) follow
WALK_SYMBOLS = {"graph": GRAPH_EDGE_SYMBOL, "matroid": "P2"}
WITNESS_VARIABLE = "x"


@dataclass(frozen=True)
class NoetherianVerdict:
    kind: str
    certificate: tuple[str, ...] | None = None  # the obstruction, if the power is not Noetherian
    transcript: str | None = None

    @property
    def status(self) -> str:
        """NOT_NOETHERIAN exactly when a certificate is present, else NOETHERIAN."""
        return NOETHERIAN if self.certificate is None else NOT_NOETHERIAN

    @property
    def certificate_kind(self) -> str | None:
        """"quadruple", "triple" or "pair", read off the certificate's length."""
        return None if self.certificate is None else CERTIFICATE_KINDS[len(self.certificate)]

    def to_json_dict(self) -> dict:
        doc: dict[str, Any] = {"status": self.status, "kind": self.kind}
        if self.certificate is not None:
            doc["certificate"] = {self.certificate_kind: list(self.certificate)}
        else:
            doc["certificate"] = None
        if self.transcript is not None:
            doc["transcript"] = self.transcript
        return doc

    @staticmethod
    def from_json_dict(doc: Any) -> "NoetherianVerdict":
        keys = {"status", "kind", "certificate"}
        if isinstance(doc, Mapping) and "transcript" in doc:
            keys.add("transcript")
        doc = json_object(doc, keys, "verdict")
        kind = _kind_from_json(doc["kind"], "verdict kind")
        values = None
        if doc["certificate"] is not None:
            values = _certificate_from_json_dict(doc["certificate"], kind)
        transcript = json_str(doc["transcript"], "verdict transcript") if "transcript" in doc else None
        verdict = NoetherianVerdict(kind, values, transcript)
        if doc["status"] != verdict.status:
            have = "without" if values is None else "with"
            raise InputFormatError(f"a verdict {have} a certificate has status {verdict.status}, got {doc['status']!r}")
        return verdict


def _kind_from_json(doc: Any, what: str) -> str:
    kind = json_str(doc, what)
    if kind not in KIND_CERTIFICATES:
        raise InputFormatError(f"{what} must be one of {list(KIND_CERTIFICATES)}, got {kind!r}")
    return kind


def _certificate_from_json_dict(doc: Any, kind: str) -> tuple[str, ...]:
    """{"quadruple": [4 labels]}, {"triple": [3 labels]} or {"pair": [2 labels]}, as the kind allows."""
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise InputFormatError(f"certificate must be an object with one key, got {doc!r}")
    ((cert_kind, payload),) = doc.items()
    if cert_kind not in KIND_CERTIFICATES[kind]:
        raise InputFormatError(f"{kind} certificates are {list(KIND_CERTIFICATES[kind])}, got {cert_kind!r}")
    values = tuple(json_str_list(payload, "certificate"))
    if CERTIFICATE_KINDS.get(len(values)) != cert_kind:
        raise InputFormatError(f"a {cert_kind} certificate cannot have {len(values)} entries")
    return values


def graph_quasi_identity(
    structure: FiniteStructure, symbol: str = GRAPH_EDGE_SYMBOL
) -> tuple[str, str, str, str] | None:
    """First (lexicographically least) length-3 walk along the symbol's pairs that does not close, else None.

    Quadruples range over all elements with repeats allowed; only walks can
    violate, so the scan follows the pairs, through neighbour lists sorted
    by index, and stays lexicographic.
    """
    table = structure.index_table(symbol)
    neigh: list[list[int]] = [[] for _ in range(structure.size)]
    for x, y in sorted(table):
        neigh[x].append(y)
    for x1 in range(structure.size):
        for x2 in neigh[x1]:
            for x3 in neigh[x2]:
                for x4 in neigh[x3]:
                    if (x4, x1) not in table:
                        return tuple(structure.label(v) for v in (x1, x2, x3, x4))
    return None


def poset_strict_pair(poset: FiniteStructure) -> tuple[str, str] | None:
    """First (lexicographically least) strict pair, else None."""
    return next((pair for pair in product(poset.universe, repeat=2) if _is_obstruction(poset, "poset", pair)), None)


def matroid_independent_triple(matroid: FiniteStructure) -> tuple[str, str, str] | None:
    if not matroid.signature.has("P3"):
        return None
    rows = matroid.tuples("P3")
    return rows[0] if rows else None


def power_noetherian(structure: FiniteStructure, kind: str) -> NoetherianVerdict:
    """The verdict for the power of a structure that passes validation as its kind.

    The certificate is the kind's obstruction: a strict pair for a poset, an
    independent triple or else an open walk along P2 for a matroid (one
    without P2 has no walk), an open walk for a graph.  Without one the
    power is Noetherian, and the transcript names the argument.
    """
    if kind not in KIND_CERTIFICATES:
        raise ValueError(f"no decision procedure for kind {kind!r}")
    report = validate(structure, kind)
    if not report.passed:
        raise ValueError(f"structure fails {kind} validation: {report.violations[:3]}")
    if kind == "poset":
        obstruction = poset_strict_pair(structure)
        transcript = "no strict pair, so the order is equality: one pin per class plus the variable equalities suffice"
    elif kind == "matroid":
        obstruction = matroid_independent_triple(structure)
        if obstruction is None and structure.signature.has(WALK_SYMBOLS[kind]):
            obstruction = graph_quasi_identity(structure, WALK_SYMBOLS[kind])
        transcript = "no independent triple; all walks in the independent-pair graph close"
    else:
        obstruction = graph_quasi_identity(structure, WALK_SYMBOLS[kind])
        transcript = f"all {structure.size ** 4} vertex quadruples close their walks"
    if obstruction is not None:
        return NoetherianVerdict(kind, obstruction)
    return NoetherianVerdict(kind, transcript=transcript)


def _is_obstruction(structure: FiniteStructure, kind: str, labels: tuple[str, ...]) -> bool:
    """Whether the labels are the kind's obstruction, told apart by their number.

    Four labels must be an open length-3 walk along the kind's WALK_SYMBOLS
    relation, two a strict pair under leq, three a row of P3.
    """
    if len(labels) == 4:
        symbol = WALK_SYMBOLS[kind]
        walk = all(structure.holds(symbol, step) for step in zip(labels, labels[1:]))
        return walk and not structure.holds(symbol, (labels[3], labels[0]))
    if len(labels) == 2:
        return labels[0] != labels[1] and structure.holds(POSET_ORDER_SYMBOL, labels)
    return structure.signature.has("P3") and structure.holds("P3", labels)


def _expand_certificate(kind: str, labels: tuple[str, ...]) -> tuple[str, str, str, str, str, int]:
    """(relation, generator, tail, point repeat, point tail, point offset) that a certificate fixes."""
    if len(labels) == 4:
        a1, a2, a3, a4 = labels
        # members pair the repeating a4 stream against the a2 tail; the point
        # puts n - 1 copies of a3 in front of a1 forever
        return WALK_SYMBOLS[kind], a4, a2, a3, a1, -1
    if kind == "poset":
        a, b = labels
        return POSET_ORDER_SYMBOL, a, b, a, b, 0
    a, b, c = labels  # an independent triple of a matroid
    return "P2", b, a, c, b, 0


@dataclass(frozen=True)
class WitnessPackage:
    """A certificate expanded into an infinite family plus a per-n witness point.

    witness_point(n) satisfies the first n family members but is not a
    solution of the whole family, so no truncation is equivalent to it.  A
    package stores only its kind and certificate; _expand_certificate derives the rest.
    """

    kind: str
    certificate: tuple[str, ...]
    variable = WITNESS_VARIABLE  # not a field: the one variable every family reads

    def __post_init__(self) -> None:
        shapes = KIND_CERTIFICATES.get(self.kind, ())
        if CERTIFICATE_KINDS.get(len(self.certificate)) not in shapes:
            allowed = " or ".join(f"{shape}s" for shape in shapes) or "not defined"
            raise InvalidCertificateError(f"{self.kind} certificates are {allowed}, got {self.certificate}")

    @property
    def certificate_kind(self) -> str:
        return CERTIFICATE_KINDS[len(self.certificate)]

    @functools.cached_property
    def family(self) -> StaircaseFamily:
        relation, generator, tail, _, _, _ = _expand_certificate(self.kind, self.certificate)
        stair = Staircase((generator,), PowerElement((), (tail,)))
        return StaircaseFamily(RelationAtom(relation, (Var(WITNESS_VARIABLE), Const(stair))))

    @functools.cached_property
    def witness_rule(self) -> tuple[str, str, int]:
        """(repeat, tail, offset): witness_point(n) is n + offset repeats, then the tail forever."""
        return _expand_certificate(self.kind, self.certificate)[3:]

    def witness_point(self, n: int) -> tuple[PowerElement, ...]:
        if n < 1:
            raise ValueError("witness points are indexed from 1")
        repeat, tail, offset = self.witness_rule
        return (PowerElement((repeat,) * (n + offset), (tail,)),)

    def truncation(self, n: int) -> PowerSystem:
        """Members 1..n of the family, written out as explicit equations."""
        if n < 1:
            raise ValueError("truncations are indexed from 1")
        return PowerSystem((self.variable,), tuple(self.family.member(m) for m in range(1, n + 1)))

    def to_json_dict(self) -> dict:
        repeat, tail, offset = self.witness_rule
        return {
            "kind": self.kind,
            "certificate": {self.certificate_kind: list(self.certificate)},
            "variable": self.variable,
            "family": family_to_json_dict(self.family),
            "witness_rule": {"repeat": repeat, "tail": tail, "offset": offset},
        }

    @staticmethod
    def from_json_dict(doc: Any) -> "WitnessPackage":
        doc = json_object(doc, {"kind", "certificate", "variable", "family", "witness_rule"}, "witness package")
        kind = _kind_from_json(doc["kind"], "witness kind")
        package = WitnessPackage(kind, _certificate_from_json_dict(doc["certificate"], kind))
        expected = json.dumps(package.to_json_dict(), sort_keys=True)
        if json.dumps(doc, sort_keys=True) != expected:  # as JSON text, so 0 and false, or 1 and 1.0, differ
            raise InputFormatError(f"a witness package with this certificate is {expected}, got {json.dumps(doc)}")
        return package


def build_witness_family(
    structure: FiniteStructure, kind: str, certificate: tuple[str, ...]
) -> WitnessPackage:
    """Turn a verified NOT_NOETHERIAN certificate into a concrete witness family.

    The certificate is re-verified against the structure first; a stale or
    wrong one raises InvalidCertificateError.
    """
    package = WitnessPackage(kind, tuple(certificate))  # checks the kind and the certificate's length
    labels = package.certificate
    for v in labels:
        if not structure.has_label(v):
            raise InvalidCertificateError(f"certificate element {v!r} is not in the universe")
    if not _is_obstruction(structure, kind, labels):
        raise InvalidCertificateError(f"{package.certificate_kind} {labels} is not an obstruction in this {kind}")
    return package


def verify_witness(structure: FiniteStructure, package: WitnessPackage, n: int) -> bool:
    """Whether witness_point(n) solves the first n members but not the family.

    Checked as first_violated_member: the point solves members 1..m-1 for the
    predicted m > n and fails member m, which implies the claim.  For every
    package build_witness_family makes, the two are equivalent, and a label
    outside the universe raises KeyError exactly as there.
    """
    return first_violated_member(structure, package, n) is not None


def _failing_rows(structure: FiniteStructure, package: WitnessPackage, switch: int) -> dict[tuple[str, ...], int]:
    """Each row of the witness family that the relation lacks at the switch point, mapped to its least member.

    The family is R(x, stair(g; t)): member n shows the one generator label
    g at coordinates 0..n-2 and the constant tail t from n - 1 on.  The point
    is the rule's repeat below coordinate `switch` and the certificate's
    point tail u from there, so no point is built and the family shows four
    rows:
      * (u, t) at member 1, at coordinate switch;
      * (repeat, t) at member 1, at coordinate 0, only when switch > 0;
      * (repeat, g) at member 2, at coordinate 0, only when switch > 0;
      * (u, g) at member switch + 2, at coordinate switch.
    They come in ascending member order, so setdefault keeps the least
    member of a row that two of them share.
    """
    relation, generator, tail, repeat, point_tail, _ = _expand_certificate(package.kind, package.certificate)
    shown = [((point_tail, tail), 1)]
    if switch > 0:
        shown += [((repeat, tail), 1), ((repeat, generator), 2)]
    shown.append(((point_tail, generator), switch + 2))
    table = structure.label_table(relation)
    failing: dict[tuple[str, ...], int] = {}
    for row, member in shown:
        if row not in table:
            failing.setdefault(row, member)
    return failing


def members_hold(structure: FiniteStructure, failing: Mapping[tuple[str, ...], int], last: float) -> bool:
    """Whether members 1..last hold at a point, given each failing row's least member in `failing`.

    They hold when no failing row maps to a member <= last.  Every label of
    those rows is looked up first, rows in sorted order, so a label outside
    the universe raises KeyError whatever the dict's order.
    """
    rows = sorted(row for row, member in failing.items() if member <= last)
    for row in rows:
        for label in row:
            structure.index(label)  # raises for a label outside the universe
    return not rows


def first_violated_member(structure: FiniteStructure, package: WitnessPackage, n: int) -> int | None:
    """The first member that witness_point(n) fails: m = n + offset + 2.

    witness_point(n) switches from its repeat to its tail at coordinate
    n + offset, and member m is the first to show that tail against the
    generator, the row the certificate makes fail.  The family's failing
    rows at the point (_failing_rows) decide it with no point built: m is
    returned only if no failing row maps to a member <= m - 1 and some row
    maps to m, else None.  As members_hold reads them, the labels of the
    failing rows of members <= m - 1 are looked up first and, only if there
    are none, those of member m.  So a label outside the universe raises
    KeyError exactly when a failing row of a member <= m - 1 holds it, or
    when there is no such row and a failing row of member m holds it.
    Offsets are -1 or 0, so m > n always.
    """
    if n < 1:
        raise ValueError("witness points are indexed from 1")
    offset = package.witness_rule[2]
    m = n + offset + 2
    failing = _failing_rows(structure, package, n + offset)
    solves_earlier = members_hold(structure, failing, m - 1)
    return m if solves_earlier and not members_hold(structure, failing, m) else None


def first_violated_members(structure: FiniteStructure, package: WitnessPackage, depth: int) -> list[int | None]:
    """first_violated_member at depths 1..depth, called only at depths 1..1 - offset.

    Each later depth n takes the answer of depth 1 - offset, as
    witness_at_every_depth proves: member n + offset + 2 if that depth was
    ok, else None.  The first depth that raises KeyError is a checked one,
    so the call raises exactly when the per-depth calls would.
    """
    offset = package.witness_rule[2]
    last = 1 - offset
    firsts = [first_violated_member(structure, package, n) for n in range(1, min(depth, last) + 1)]
    return firsts + [None if firsts[-1] is None else n + offset + 2 for n in range(last + 1, depth + 1)]


def witness_at_every_depth(structure: FiniteStructure, package: WitnessPackage) -> bool:
    """Whether verify_witness holds at every depth n >= 1, decided from depths 1..1 - offset.

    first_violated_member at depth n makes two members_hold calls on
    _failing_rows at the switch s = n + offset, with m = s + 2.  For every
    s >= 1 the four rows are the same, and so are their members, except
    that (u, g) sits at member s + 2 = m itself.  So at every s >= 1,
    members_hold(m - 1) reads those of (u, t), (repeat, t) and (repeat, g)
    that fail, and members_hold(m) adds (u, g) if it fails: both calls, and
    any KeyError they raise, are the same at every depth n >= 1 - offset.  Offsets are -1 or 0, so 1 - offset >= 1, and the
    witness holds at every depth exactly when it holds at depths
    1..1 - offset: one depth for a pair or a triple, two for a quadruple.
    """
    return None not in first_violated_members(structure, package, 1 - package.witness_rule[2])
