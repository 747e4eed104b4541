"""Finite relational structures and kind-specific axiom checks.

A structure is a finite labelled universe together with one relation table per
signature symbol.  Tables are stored extensionally; nothing is ever closed or
symmetrized implicitly, so a malformed input fails validation instead of being
repaired silently.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any

from .errors import (
    InputFormatError,
    SignatureMismatchError,
    json_bool,
    json_int,
    json_list,
    json_object,
    json_str,
    json_str_list,
)

EQUALITY = "="  # every structure's diagonal relation; no signature declares it
GRAPH_EDGE_SYMBOL = "E"
POSET_ORDER_SYMBOL = "leq"
STRUCTURE_KINDS = ("graph", "poset", "matroid", "generic")
# the axioms validate reports per kind, each with its witness length (None: any nonempty length)
KIND_AXIOMS = {
    "graph": {"no loops": 1, "symmetry": 2},
    "poset": {"reflexivity": 1, "antisymmetry": 2, "transitivity": 3},
    "matroid": {"no repeated elements": None, "hereditary": None, "exchange": None},
    "generic": {},
}


@dataclass(frozen=True)
class Signature:
    """Named relation symbols with positive arities; every signature also has the binary EQUALITY, undeclared."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple((str(n), int(a)) for n, a in self.symbols))
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation symbols: {sorted(names)}")
        if EQUALITY in names:
            raise ValueError(f"{EQUALITY!r} is reserved for equality, which every signature has")
        for name, arity in self.symbols:
            if arity < 1:
                raise ValueError(f"relation {name!r} needs arity >= 1, got {arity}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        if name == EQUALITY:
            return 2
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise KeyError(f"unknown relation symbol {name!r}")

    def has(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


# the kinds whose signature is one fixed binary symbol, built once; validate compares against these
FIXED_SIGNATURES = {"graph": Signature(((GRAPH_EDGE_SYMBOL, 2),)), "poset": Signature(((POSET_ORDER_SYMBOL, 2),))}


def graph_signature() -> Signature:
    return FIXED_SIGNATURES["graph"]


def poset_signature() -> Signature:
    return FIXED_SIGNATURES["poset"]


def matroid_signature(max_arity: int) -> Signature:
    if max_arity < 1:
        raise ValueError("matroid signatures need at least P1")
    return Signature(tuple((f"P{i}", i) for i in range(1, max_arity + 1)))


class FiniteStructure:
    """Finite universe plus an interpretation table for every signature symbol.

    Universe elements are identified by their labels; the label order given at
    construction is the canonical element order used for all deterministic
    iteration.  Missing tables are empty relations; EQUALITY's is the diagonal.
    """

    def __init__(
        self,
        signature: Signature,
        universe: Sequence[str],
        tables: Mapping[str, Iterable[Sequence[str]]] | None = None,
    ) -> None:
        labels = tuple(str(u) for u in universe)
        if not labels:
            raise ValueError("universe must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate universe labels: {sorted(labels)}")
        self.signature = signature
        self.universe = labels
        self._index = {label: i for i, label in enumerate(labels)}
        self._tables: dict[str, frozenset[tuple[int, ...]]] = {}
        self._classifiers: dict[tuple[str, ...], Any] = {}  # variable list -> AtomClassifier.of(self, variables)
        tables = dict(tables or {})
        for name in tables:
            if not signature.has(name):
                raise ValueError(f"table given for {name!r}, which is not in the signature")
        for name, arity in signature.symbols:
            # one pass over the whole table; only a table that fails it is walked row by row for the message
            rows = list(tables.get(name, ()))
            indices = list(map(self._index.get, map(str, chain.from_iterable(rows))))
            if None in indices or not all(map(arity.__eq__, map(len, rows))):
                for row in rows:
                    row = tuple(map(str, row))
                    if len(row) != arity:
                        raise ValueError(f"{name!r} expects {arity}-tuples, got {row}")
                    for label in row:
                        if label not in self._index:
                            raise ValueError(f"{name!r} tuple {row} mentions unknown element {label!r}")
            self._tables[name] = frozenset(zip(*[iter(indices)] * arity))
        self._tables[EQUALITY] = frozenset((i, i) for i in range(len(labels)))

    @property
    def size(self) -> int:
        return len(self.universe)

    def has_label(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown universe element {label!r}") from None

    def label(self, i: int) -> str:
        return self.universe[i]

    def holds(self, symbol: str, row: Sequence[str]) -> bool:
        if symbol not in self._tables:
            raise KeyError(f"unknown relation symbol {symbol!r}")
        return tuple(map(self.index, row)) in self._tables[symbol]

    def index_table(self, symbol: str) -> frozenset[tuple[int, ...]]:
        if symbol not in self._tables:
            raise KeyError(f"unknown relation symbol {symbol!r}")
        return self._tables[symbol]

    def tuples(self, symbol: str) -> tuple[tuple[str, ...], ...]:
        rows = sorted(self.index_table(symbol))
        return tuple(tuple(self.universe[i] for i in row) for row in rows)

    def _key(self):
        return (
            self.signature,
            self.universe,
            tuple(sorted((name, tuple(sorted(rows))) for name, rows in self._tables.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FiniteStructure(universe={list(self.universe)!r})"


def graph_from_edges(universe: Sequence[str], edges: Iterable[tuple[str, str]]) -> FiniteStructure:
    """Build a graph from undirected edge pairs; both orientations are stored."""
    rows = set()
    for a, b in edges:
        rows.add((a, b))
        rows.add((b, a))
    return FiniteStructure(graph_signature(), universe, {GRAPH_EDGE_SYMBOL: sorted(rows)})


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the kind-specific axiom check; passed iff violations is empty."""

    kind: str
    violations: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "violations": [{"axiom": axiom, "witness": list(w)} for axiom, w in self.violations],
        }

    @staticmethod
    def from_json_dict(doc: Any) -> "ValidationReport":
        """Decode a report; each violation must be one that validate can report for the kind."""
        doc = json_object(doc, {"kind", "passed", "violations"}, "validation report")
        kind = json_str(doc["kind"], "report kind")
        if kind not in STRUCTURE_KINDS:
            raise InputFormatError(f"report kind must be one of {STRUCTURE_KINDS}, got {kind!r}")
        violations = []
        for entry in json_list(doc["violations"], "violations"):
            entry = json_object(entry, {"axiom", "witness"}, "violation")
            witness = tuple(json_str_list(entry["witness"], "violation witness"))
            axiom = json_str(entry["axiom"], "violation axiom")
            if axiom not in KIND_AXIOMS[kind]:
                raise InputFormatError(f"{kind} axioms are {list(KIND_AXIOMS[kind])}, got {axiom!r}")
            length = KIND_AXIOMS[kind][axiom]
            if not witness or length not in (None, len(witness)):
                raise InputFormatError(f"a {axiom!r} witness cannot have {len(witness)} entries")
            violations.append((axiom, witness))
        report = ValidationReport(kind, tuple(violations))
        if json_bool(doc["passed"], "report passed") != report.passed:
            raise InputFormatError("report 'passed' must be true exactly when there are no violations")
        return report


def _check_kind_signature(structure: FiniteStructure, kind: str) -> None:
    sig = structure.signature
    if kind in FIXED_SIGNATURES:
        if sig != FIXED_SIGNATURES[kind]:
            sym = FIXED_SIGNATURES[kind].symbols[0][0]
            raise SignatureMismatchError(f"{kind} structures use exactly the binary symbol {sym!r}, got {sig.symbols}")
    elif kind == "matroid":
        if sorted(sig.symbols) != sorted((f"P{i}", i) for i in range(1, len(sig.symbols) + 1)):
            raise SignatureMismatchError(
                f"matroid structures use consecutive symbols P1..Pm with arity(Pi) = i, got {sig.symbols}"
            )
    elif kind != "generic":
        raise ValueError(f"unknown structure kind {kind!r}; expected one of {STRUCTURE_KINDS}")


def _graph_violations(structure: FiniteStructure) -> list[tuple[str, tuple[str, ...]]]:
    table = structure.index_table(GRAPH_EDGE_SYMBOL)
    out: list[tuple[str, tuple[str, ...]]] = []
    for x in range(structure.size):
        if (x, x) in table:
            out.append(("no loops", (structure.label(x),)))
    for x, y in sorted(table):
        if (y, x) not in table:
            out.append(("symmetry", (structure.label(x), structure.label(y))))
    return out


def _poset_violations(structure: FiniteStructure) -> list[tuple[str, tuple[str, ...]]]:
    table = structure.index_table(POSET_ORDER_SYMBOL)
    out: list[tuple[str, tuple[str, ...]]] = []
    for x in range(structure.size):
        if (x, x) not in table:
            out.append(("reflexivity", (structure.label(x),)))
    for x, y in sorted(table):
        if x != y and (y, x) in table:
            out.append(("antisymmetry", (structure.label(x), structure.label(y))))
    # the middle element is quantified universally, like the other two
    for x, y in sorted(table):
        for z in range(structure.size):
            if (y, z) in table and (x, z) not in table:
                out.append(("transitivity", (structure.label(x), structure.label(y), structure.label(z))))
    return out


def _matroid_violations(structure: FiniteStructure) -> list[tuple[str, tuple[str, ...]]]:
    m = len(structure.signature.symbols)
    tables = {n: structure.index_table(f"P{n}") for n in range(1, m + 1)}
    out: list[tuple[str, tuple[str, ...]]] = []

    def labels(row: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(structure.label(i) for i in row)

    # tuples with a repeated entry are never independent
    for n in range(1, m + 1):
        for row in sorted(tables[n]):
            if len(set(row)) != len(row):
                out.append(("no repeated elements", labels(row)))
    # deleting any one position from an independent tuple stays independent
    for n in range(2, m + 1):
        for row in sorted(tables[n]):
            if any(row[:i] + row[i + 1 :] not in tables[n - 1] for i in range(n)):
                out.append(("hereditary", labels(row)))
    # a shorter independent tuple extends by some entry of any longer one: short + (y,) is in
    # P_{n+1} exactly when y is among short's one-entry extensions, so each pair is one isdisjoint
    for n in range(1, m):
        longer = sorted(tables[n + 1])
        extensions: dict[tuple[int, ...], set[int]] = {}
        for row in longer:
            extensions.setdefault(row[:-1], set()).add(row[-1])
        for short in sorted(tables[n]):
            ends = extensions.get(short, set())
            for long in longer:
                if ends.isdisjoint(long):
                    out.append(("exchange", labels(short) + labels(long)))
    return out


def validate(structure: FiniteStructure, kind: str) -> ValidationReport:
    """Check the axioms for the given kind; every violation is reported with a witness."""
    _check_kind_signature(structure, kind)
    if kind == "graph":
        violations = _graph_violations(structure)
    elif kind == "poset":
        violations = _poset_violations(structure)
    elif kind == "matroid":
        violations = _matroid_violations(structure)
    else:
        violations = []
    return ValidationReport(kind, tuple(violations))


def structure_from_json_dict(doc: Any) -> tuple[str, FiniteStructure]:
    """Parse {"kind", "universe", "relations"}; unknown keys are rejected."""
    doc = json_object(doc, {"kind", "universe", "relations"}, "structure")
    kind = doc["kind"]
    if kind not in STRUCTURE_KINDS:
        raise InputFormatError(f"structure kind must be one of {STRUCTURE_KINDS}, got {kind!r}")
    universe = json_str_list(doc["universe"], "structure universe")
    relations = doc["relations"]
    if type(relations) is not dict and not isinstance(relations, Mapping):
        raise InputFormatError("structure relations must be an object")
    symbols = []
    tables = {}
    for name, entry in relations.items():
        entry = json_object(entry, {"arity", "tuples"}, f"relation {name!r}")
        symbols.append((str(name), json_int(entry["arity"], f"relation {name!r} arity", 1)))
        what = f"relation {name!r} tuples"
        rows = json_list(entry["tuples"], what)
        # one pass over the whole table; only a table that fails it is walked row by row for the message
        lists = all(map(isinstance, rows, repeat(list)))
        if not (lists and all(map(isinstance, chain.from_iterable(rows), repeat(str)))):
            for row in rows:
                json_str_list(row, what)
        tables[str(name)] = rows
    try:
        structure = FiniteStructure(Signature(tuple(symbols)), universe, tables)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    return kind, structure
