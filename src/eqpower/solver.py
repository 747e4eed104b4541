"""Atomic equations over a finite structure and the exact solver.

An equation is a relation atom whose arguments are variables or constants;
an equality is an atom of EQUALITY, every structure's diagonal relation.  A
solution set over n variables and a k-element universe is a subset of the
k^n assignments, held as one int: bit j stands for the j-th
assignment of itertools.product(universe, repeat=n).  AtomClassifier builds a
row's mask from the relation table with big-int ANDs and ORs, so solving,
intersecting systems and searching for minimal cores are mask arithmetic.
Masks are decoded into label tuples only where a result leaves the solver
(AlgebraicSet, and the solution sets that wrap reports).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import and_, itemgetter, or_
from typing import Any

from .errors import InputFormatError, UnboundVariableError, json_list, json_object, json_str, json_str_list
from .structures import EQUALITY, FiniteStructure

CYLINDER_BUDGET_BYTES = 2**30  # the most AtomClassifier's cylinders may take; see its docstring


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: Any  # a universe label here; a PowerElement or Staircase one level up


Arg = Var | Const


@dataclass(frozen=True)
class RelationAtom:
    symbol: str
    args: tuple[Arg, ...]


Equation = RelationAtom


def map_constants(eq: Equation, fn: Callable[[Any], Any]) -> Equation:
    return RelationAtom(eq.symbol, tuple(Const(fn(a.value)) if isinstance(a, Const) else a for a in eq.args))


def _with_slots(atom: Equation, values: Iterable[Any]) -> Equation:
    """The atom with its constant slots, in argument order, holding the values."""
    slot = iter(values)
    return map_constants(atom, lambda _: next(slot))


def const_values(eq: Equation) -> tuple[Any, ...]:
    return tuple(a.value for a in eq.args if isinstance(a, Const))


@dataclass(frozen=True)
class EquationSystem:
    variables: tuple[str, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "equations", tuple(self.equations))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables: {self.variables}")


@dataclass(frozen=True)
class AlgebraicSet:
    """Solution set of a system: all satisfying assignments, as label tuples."""

    variables: tuple[str, ...]
    points: frozenset[tuple[str, ...]]

    @property
    def is_empty(self) -> bool:
        return not self.points

    def sorted_points(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(self.points))


def check_equation(structure: FiniteStructure, variables: tuple[str, ...], eq: Equation) -> None:
    """Reject equations that are not well-formed over the structure and variable list."""
    arity = structure.signature.arity(eq.symbol)  # raises KeyError for unknown symbols
    if arity != len(eq.args):
        raise ValueError(f"{eq.symbol!r} expects {arity} arguments, got {len(eq.args)}")
    for a in eq.args:
        if isinstance(a, Var):
            if a.name not in variables:
                raise UnboundVariableError(f"variable {a.name!r} is not declared by the system")
        elif not (isinstance(a.value, str) and structure.has_label(a.value)):
            raise ValueError(f"constant {a.value!r} is not a universe element")


def evaluate(structure: FiniteStructure, eq: Equation, assignment: Mapping[str, str]) -> bool:
    """Truth value of one atom under a total assignment of labels to variables; equality compares labels."""

    def value(a: Arg) -> str:
        if isinstance(a, Var):
            try:
                return assignment[a.name]
            except KeyError:
                raise UnboundVariableError(f"no value assigned to variable {a.name!r}") from None
        return a.value

    values = tuple(value(a) for a in eq.args)
    if eq.symbol == EQUALITY:
        lhs, rhs = values
        return lhs == rhs
    return structure.holds(eq.symbol, values)


class AtomClassifier:
    """Memoized solution-set masks of atoms over a fixed structure and variable list.

    A mask is an int over the k^n assignments, bit j for the j-th assignment of
    itertools.product(universe, repeat=n).  The cylinder mask for variable
    position p and element index u has bit j set when assignment j gives
    variable p the element u.  An atom's mask is the OR, over the table rows
    that agree with its constants, of the AND of the cylinders its variables
    pick out, an equality's table being the diagonal; repeated variables
    need no special case because disjoint cylinders AND to zero.

    The classifier classifies rows, not atoms.  rows(atom) is the one memo:
    a dict from a row of slot values to the mask of the atom with that row
    in its constant slots.  It is keyed by the atom's shape, its symbol and
    each argument's variable name (None for a constant slot), not by the
    atom, so an explicit equation, a family and a merged copy of the same
    shape share one memo, and no lookup hashes their stream constants.  A
    missing row is classified straight from the relation table by the
    shape's plan (_RowMasks) and never built into an atom, unless it fails
    check_equation, which then raises where the row is first met.
    mask(eq) is the entry of eq's own constants in that memo.

    mask and system_mask are the working interface.  solutions and
    system_solutions decode masks into label-tuple frozensets,
    memoized per mask so equal sets come back as the same object.

    AtomClassifier.of(structure, variables) is the one classifier that
    solve, equivalent, minimal_inconsistent_subset and every phase of the
    power layer (coordinate_profile, wrap's candidate scan, coordinate_masks)
    share for a structure and variable list, so a row of an atom shape is
    checked and classified once however many of them meet it.  It is
    memoized on the structure instance and dies with it.

    Element u's cylinder for variable p repeats every k * block bits, block
    being k^(n - 1 - p); __init__ writes one period out and doubles it by
    shift and OR up to k^n bits, then shifts it by u * block per element.
    The n * k cylinders take about n * k * k^n / 8 bytes.  __init__ refuses,
    with a ValueError that names k, n, k^n and the estimate, any variable
    list whose cylinders would pass CYLINDER_BUDGET_BYTES, before it
    allocates anything, so the CLI reports it as an input error (exit 2).
    Without the check 40 variables over the triangle (3^40 bits a mask) died
    with a MemoryError and exit 1, which reads as "no solution".  The limit
    is fixed, not an option: it admits 17 variables over three elements
    (about 820 MB of cylinders, 15 MB a mask), and one more variable asks
    for 2.5 GB of cylinders before any answer, more than a machine of a few
    GB can spare.
    """

    def __init__(self, structure: FiniteStructure, variables: tuple[str, ...]) -> None:
        self.structure = structure
        self.variables = tuple(variables)
        k, n = structure.size, len(self.variables)
        self.space_size = k**n
        estimate = n * k * self.space_size // 8
        if estimate > CYLINDER_BUDGET_BYTES:
            raise ValueError(
                f"{n} variables over {k} elements give {k}^{n} = {self.space_size:,} assignments;"
                f" their cylinder masks would take about {estimate / 2**20:,.0f} MB,"
                f" over the {CYLINDER_BUDGET_BYTES // 2**20:,} MB limit"
            )
        self.full = (1 << self.space_size) - 1
        self._position = {v: p for p, v in enumerate(self.variables)}
        self._cylinders = []
        for p in range(n):
            block = k ** (n - 1 - p)
            first, width = (1 << block) - 1, k * block  # element 0's bits over one period
            while width < self.space_size:
                first |= first << width
                width *= 2
            first &= self.full
            self._cylinders.append([first << u * block for u in range(k)])
        self._rows: dict[tuple[str, tuple[str | None, ...]], _RowMasks] = {}
        self._tables: dict[tuple[str, int, tuple[int, ...]], tuple | None] = {}  # see _RowMasks
        self._decoded: dict[int, frozenset[tuple[str, ...]]] = {}

    @classmethod
    def of(cls, structure: FiniteStructure, variables: tuple[str, ...]) -> "AtomClassifier":
        """The shared classifier for the structure and variable list, built on first use."""
        variables = tuple(variables)
        classifier = structure._classifiers.get(variables)
        if classifier is None:
            classifier = structure._classifiers[variables] = cls(structure, variables)
        return classifier

    def mask(self, eq: Equation) -> int:
        return self.rows(eq)[const_values(eq)]

    def rows(self, atom: Equation) -> "_RowMasks":
        """The shared memo from a row of slot values to the mask of the atom with that row in its slots."""
        key = (atom.symbol, tuple(a.name if isinstance(a, Var) else None for a in atom.args))
        memo = self._rows.get(key)
        if memo is None:
            memo = self._rows[key] = _RowMasks(self, atom)
        return memo

    def system_mask(self, equations: Iterable[Equation]) -> int:
        m = self.full
        for eq in equations:
            m &= self.mask(eq)
            if not m:
                break
        return m

    def decode(self, mask: int) -> frozenset[tuple[str, ...]]:
        points = self._decoded.get(mask)
        if points is None:
            bits = format(mask, f"0{self.space_size}b")[::-1]  # bits[j] is bit j
            assignments = product(self.structure.universe, repeat=len(self.variables))
            points = self._decoded[mask] = frozenset(a for a, bit in zip(assignments, bits) if bit == "1")
        return points

    def solutions(self, eq: Equation) -> frozenset[tuple[str, ...]]:
        return self.decode(self.mask(eq))

    def system_solutions(self, equations: Iterable[Equation]) -> frozenset[tuple[str, ...]]:
        return self.decode(self.system_mask(equations))


class _RowMasks(dict):
    """AtomClassifier.rows' memo for one atom shape: row of slot values -> mask, a missing row classified by the plan.

    The first atom of the shape is kept as the template.  The first miss
    builds the shape's plan: the relation's index_table, an itemgetter of
    the constant slots' argument positions, and per variable argument its
    position and its variable's cylinders.  The table part, the arity check
    with the index_table and the itemgetter, is shared on the classifier per
    (symbol, number of arguments, slot positions), so shapes that differ
    only in the variables they name look it up once and each builds only
    its cylinder list.  A miss indexes the row's labels,
    picks the table rows that hold them at the slots with one comprehension,
    and ORs, over those, the AND of the cylinders they pick; a shape with
    one or two variable arguments takes one reduce over a list.  A shape
    that fails check_equation (unknown symbol, wrong arity, undeclared
    variable) gets no plan, and a row with a label outside the universe is
    not indexed: either way the miss builds the atom with the row in its
    slots and raises check_equation's error for it, so every error text has
    one source.  No row that passes is built into an atom.
    """

    def __init__(self, classifier: AtomClassifier, template: Equation) -> None:
        super().__init__()
        self._classifier = classifier
        self._template = template
        self._plan: tuple | None = None  # (index table, slot picker or None, [(position, cylinders)])

    def _make_plan(self) -> tuple | None:
        classifier, atom = self._classifier, self._template
        position, cylinders = classifier._position, classifier._cylinders
        slots, variables = [], []
        for p, a in enumerate(atom.args):
            if not isinstance(a, Var):
                slots.append(p)
            elif a.name in position:
                variables.append((p, cylinders[position[a.name]]))
            else:
                return None
        key = (atom.symbol, len(atom.args), tuple(slots))
        if key not in classifier._tables:
            structure = classifier.structure
            try:
                fits = structure.signature.arity(atom.symbol) == len(atom.args)
            except KeyError:
                fits = False
            pick = itemgetter(*slots) if slots else None
            classifier._tables[key] = (structure.index_table(atom.symbol), pick) if fits else None
        shared = classifier._tables[key]
        return None if shared is None else (*shared, variables)

    def __missing__(self, row: tuple[Any, ...]) -> int:
        classifier = self._classifier
        plan = self._plan = self._plan or self._make_plan()
        labels = tuple(map(classifier.structure._index.get, row))
        if plan is None or None in labels:
            check_equation(classifier.structure, classifier.variables, _with_slots(self._template, row))
            raise AssertionError(f"check_equation passed {row!r}, which the plan rejects")
        table, pick, variables = plan
        if pick is not None:  # itemgetter gives one entry for one slot, a tuple for more
            want = labels if len(labels) > 1 else labels[0]
            table = [t for t in table if pick(t) == want]
        if len(variables) == 1:
            ((p, cylinders),) = variables
            mask = reduce(or_, [cylinders[t[p]] for t in table], 0)
        elif len(variables) == 2:
            (p, first), (q, second) = variables
            mask = reduce(or_, [first[t[p]] & second[t[q]] for t in table], 0)
        else:
            full = classifier.full
            mask = reduce(or_, [reduce(and_, [c[t[p]] for p, c in variables], full) for t in table], 0)
        self[row] = mask
        return mask


def solve(structure: FiniteStructure, system: EquationSystem) -> AlgebraicSet:
    """Exact solution set; the empty system yields the full space."""
    classifier = AtomClassifier.of(structure, system.variables)
    return AlgebraicSet(system.variables, classifier.system_solutions(system.equations))


def equivalent(structure: FiniteStructure, first: EquationSystem, second: EquationSystem) -> bool:
    if first.variables != second.variables:
        raise ValueError(f"variable lists differ: {first.variables} vs {second.variables}")
    classifier = AtomClassifier.of(structure, first.variables)
    return classifier.system_mask(first.equations) == classifier.system_mask(second.equations)


def minimal_inconsistent_subset(structure: FiniteStructure, system: EquationSystem) -> EquationSystem | None:
    """Deletion-minimal inconsistent core, or None when the system has a solution.

    Deterministic: equations are tried for deletion one position at a time in
    list order, so the same input always yields the same core, and a repeated
    equation keeps one copy when the core needs it.
    """
    classifier = AtomClassifier.of(structure, system.variables)
    masks = [classifier.mask(eq) for eq in system.equations]
    # suffix[t] is the intersection of the equations from position t on
    suffix = [classifier.full] * (len(masks) + 1)
    for t in reversed(range(len(masks))):
        suffix[t] = suffix[t + 1] & masks[t]
    if suffix[0]:
        return None
    kept = classifier.full
    core = []
    for t, eq in enumerate(system.equations):
        # deleting position t leaves the kept prefix plus every later equation
        if kept & suffix[t + 1]:
            kept &= masks[t]
            core.append(eq)
    return EquationSystem(system.variables, tuple(core))


# --- JSON layout -----------------------------------------------------------
#
# {"variables": ["x"], "equations": [
#     {"rel": "E", "args": [{"var": "x"}, {"const": "a"}]},
#     {"eq": [{"var": "x"}, {"const": "a"}]}]}
#
# Constant slots are pluggable: a (key, codec) pair names the argument key and
# codes its payload, so the direct-power layer reuses the exact same shapes
# with {"const": stream} and {"staircase": descriptor} slots.

ConstCodec = tuple[str, Callable[[Any], Any]]


def _encode_base_const(value: Any) -> Any:
    if not isinstance(value, str):
        raise InputFormatError(f"expected a plain universe label, got {value!r}")
    return value


_BASE_CONST_ENCODER: ConstCodec = ("const", _encode_base_const)
_BASE_CONST_DECODER: ConstCodec = ("const", lambda doc: json_str(doc, "constants"))


def arg_to_json_dict(arg: Arg, const: ConstCodec = _BASE_CONST_ENCODER) -> dict:
    if isinstance(arg, Var):
        return {"var": arg.name}
    key, encode = const
    return {key: encode(arg.value)}


def arg_from_json_dict(doc: Any, const: ConstCodec = _BASE_CONST_DECODER) -> Arg:
    key, decode = const
    if (type(doc) is dict or isinstance(doc, Mapping)) and len(doc) == 1:
        ((found, payload),) = doc.items()
        if found == "var":
            return Var(json_str(payload, "variable names"))
        if found == key:
            return Const(decode(payload))
    raise InputFormatError(f"argument must be an object with the single key 'var' or {key!r}, got {doc!r}")


def equation_to_json_dict(eq: Equation, const: ConstCodec = _BASE_CONST_ENCODER) -> dict:
    args = [arg_to_json_dict(a, const) for a in eq.args]
    return {"eq": args} if eq.symbol == EQUALITY else {"rel": eq.symbol, "args": args}


def equation_from_json_dict(doc: Any, const: ConstCodec = _BASE_CONST_DECODER) -> Equation:
    is_object = type(doc) is dict or isinstance(doc, Mapping)
    if is_object and set(doc) == {"rel", "args"}:
        symbol = json_str(doc["rel"], "relation symbol")
        if symbol == EQUALITY:
            raise InputFormatError('equality is written {"eq": [lhs, rhs]}, not {"rel": "="}')
        args = json_list(doc["args"], "relation args")
        return RelationAtom(symbol, tuple(arg_from_json_dict(a, const) for a in args))
    if is_object and set(doc) == {"eq"}:
        pair = json_list(doc["eq"], "equality atom")
        if len(pair) != 2:
            raise InputFormatError("equality atoms take exactly two arguments")
        return RelationAtom(EQUALITY, tuple(arg_from_json_dict(a, const) for a in pair))
    raise InputFormatError(f"equation must be an object with keys {{'rel','args'}} or {{'eq'}}, got {doc!r}")


def system_to_json_dict(system: EquationSystem) -> dict:
    return {
        "variables": list(system.variables),
        "equations": [equation_to_json_dict(eq) for eq in system.equations],
    }


def system_fields_from_json(doc: Any) -> tuple[tuple[str, ...], list]:
    """The distinct variables and the undecoded equation list of a {"variables", "equations"} document."""
    doc = json_object(doc, {"variables", "equations"}, "system")
    variables = tuple(json_str_list(doc["variables"], "system variables"))
    if len(set(variables)) != len(variables):
        raise InputFormatError(f"system variables must be distinct, got {list(variables)}")
    return variables, json_list(doc["equations"], "system equations")


def system_from_json_dict(doc: Any) -> EquationSystem:
    variables, equations = system_fields_from_json(doc)
    return EquationSystem(variables, tuple(equation_from_json_dict(e) for e in equations))
