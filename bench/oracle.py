"""Independent answer checks for the benchmark jobs.

Every check re-derives the answer from the input JSON files with plain loops
over relation tables.  Nothing here imports eqpower: its `verify_*`,
`satisfies` and `solve` are exactly what is being judged.  A check returns a
list of problems; an empty list means the answer is right.

Atoms are normalised to ("rel", symbol, args) or ("eq", None, args), with each
argument ("v", variable) or ("c", value); a value is a label at one coordinate
or, before projection, a stream or staircase document.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path


def load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


class Structure:
    def __init__(self, doc: dict) -> None:
        self.kind = doc["kind"]
        self.universe = list(doc["universe"])
        self.tables = {
            name: {tuple(row) for row in entry["tuples"]} for name, entry in doc["relations"].items()
        }

    def holds(self, atom: tuple, assignment: dict[str, str]) -> bool:
        kind, symbol, args = atom
        values = tuple(assignment[a] if tag == "v" else a for tag, a in args)
        if kind == "eq":
            return values[0] == values[1]
        return values in self.tables[symbol]

    def solutions(self, variables: list[str], atoms) -> frozenset[tuple[str, ...]]:
        out = set()
        for combo in product(self.universe, repeat=len(variables)):
            assignment = dict(zip(variables, combo))
            if all(self.holds(atom, assignment) for atom in atoms):
                out.add(combo)
        return frozenset(out)

    def satisfiable(self, atoms) -> bool:
        """Search only the variables the atoms mention; the rest are free."""
        mentioned = sorted({a for _, _, args in atoms for tag, a in args if tag == "v"})
        for combo in product(self.universe, repeat=len(mentioned)):
            assignment = dict(zip(mentioned, combo))
            if all(self.holds(atom, assignment) for atom in atoms):
                return True
        return False


def stream_at(doc: dict, i: int) -> str:
    prefix, cycle = doc["prefix"], doc["cycle"]
    return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]


def _atom(doc: dict) -> tuple:
    """Normalise an equation document; constant payloads (streams, staircases) are kept."""

    def arg(a: dict) -> tuple:
        ((key, payload),) = a.items()
        return ("v", payload) if key == "var" else ("c", payload)

    if "eq" in doc:
        return ("eq", None, tuple(arg(a) for a in doc["eq"]))
    return ("rel", doc["rel"], tuple(arg(a) for a in doc["args"]))


def _project(atom: tuple, value) -> tuple:
    kind, symbol, args = atom
    return (kind, symbol, tuple((tag, value(a) if tag == "c" else a) for tag, a in args))


def _const_payloads(atom: tuple) -> list:
    return [a for tag, a in atom[2] if tag == "c"]


def _freeze(atom: tuple) -> tuple:
    kind, symbol, args = atom
    return (kind, symbol, tuple((tag, a if isinstance(a, str) else json.dumps(a, sort_keys=True)) for tag, a in args))


class PowerSystemDoc:
    """A power system document: explicit stream equations plus staircase families."""

    def __init__(self, doc: dict) -> None:
        self.variables = list(doc["variables"])
        self.explicit = [_atom(e) for e in doc["equations"] if "family" not in e]
        self.families = [_atom(e["family"]) for e in doc["equations"] if "family" in e]

    def horizon(self) -> tuple[int, int]:
        """(stabilization, period) from the raw lengths in the document."""
        stab, periods = [0], [1]
        for atom in self.explicit:
            for s in _const_payloads(atom):
                stab.append(len(s["prefix"]))
                periods.append(len(s["cycle"]))
        for atom in self.families:
            stairs = _const_payloads(atom)
            tails = [s["tail"] for s in stairs]
            tail_period = math.lcm(*(len(t["cycle"]) for t in tails))
            stab.append(max(len(t["prefix"]) for t in tails) + tail_period)
            periods += [tail_period] + [len(s["generator"]) for s in stairs]
        return max(stab), math.lcm(*periods)

    def atoms_at(self, i: int) -> set[tuple]:
        """Every equation of the projection at coordinate i, families included.

        Member n of a family reads the generator at i when i <= n - 2 and the
        tail at i - (n - 1) otherwise, so over all n the family contributes
        the generator tuple at i and the tail tuples at 0..i.
        """
        out = {_project(a, lambda s: stream_at(s, i)) for a in self.explicit}
        for atom in self.families:
            out.add(_project(atom, lambda s: s["generator"][i % len(s["generator"])]))
            tails = [s["tail"] for s in _const_payloads(atom)]
            # the joint tail tuple is periodic after the longest prefix
            settle = max(len(t["prefix"]) for t in tails) + math.lcm(*(len(t["cycle"]) for t in tails))
            for j in range(min(i, settle - 1) + 1):
                out.add(_project(atom, lambda s: stream_at(s["tail"], j)))
        return out


# --- wrap ---------------------------------------------------------------------


def check_wrap(job, doc: dict) -> tuple[list[str], dict]:
    """Per-coordinate equivalence of input and output over the joint horizon plus one period."""
    problems = []
    structure = Structure(load_json(job.facts["structure"]))
    original = PowerSystemDoc(load_json(job.facts["system"]))
    if doc.get("verified") is not True or doc.get("bound_ok") is not True:
        problems.append(f"verified={doc.get('verified')} bound_ok={doc.get('bound_ok')}")
    trace = doc["trace"]
    achieved = (trace["stabilization"], trace["period"])
    if achieved != (job.sizes["stabilization"], job.sizes["period"]):
        problems.append(f"horizon {achieved} differs from the generated {job.sizes}")
    wrapped = PowerSystemDoc(doc["wrapped"])
    if wrapped.families or wrapped.variables != original.variables:
        problems.append("wrapped system is not a finite system over the same variables")
    stab_a, per_a = original.horizon()
    stab_b, per_b = wrapped.horizon()
    stab, period = max(stab_a, stab_b), math.lcm(per_a, per_b)
    cache: dict[frozenset, frozenset] = {}

    def sols(atoms: set) -> frozenset:
        key = frozenset(_freeze(a) for a in atoms)
        if key not in cache:
            cache[key] = structure.solutions(original.variables, atoms)
        return cache[key]

    for i in range(stab + 2 * period):
        if sols(original.atoms_at(i)) != sols(wrapped.atoms_at(i)):
            problems.append(f"solution sets differ at coordinate {i}")
            break
    facts = {
        "horizon": list(achieved),
        "joint_horizon": [stab, period],
        "output_equations": len(doc["wrapped"]["equations"]),
    }
    return problems, facts


# --- consistent -----------------------------------------------------------------


def check_consistent(job, doc: dict) -> tuple[list[str], dict]:
    """Consistency by the planted point; refutations by core, deletions and lifting."""
    problems = []
    structure = Structure(load_json(job.facts["structure"]))
    system = PowerSystemDoc(load_json(job.facts["system"]))
    planted, conflict = job.facts["planted"], job.facts["conflict"]
    stab, period = system.horizon()

    def planted_solves(i: int) -> bool:
        return all(structure.holds(a, planted) for a in system.atoms_at(i))

    if conflict is None:
        if doc != {"consistent": True}:
            problems.append(f"expected consistent, got {doc.get('consistent')}")
        bad = [i for i in range(stab + period) if not planted_solves(i)]
        if bad:
            problems.append(f"planted point fails at coordinates {bad}; cannot confirm consistency")
        return problems, {"horizon": [stab, period]}

    cert = doc.get("certificate")
    if doc.get("consistent") is not False or not cert:
        return [f"expected a refutation at coordinate {conflict}"], {"horizon": [stab, period]}
    if cert["coordinate"] != conflict:
        problems.append(f"refuted at {cert['coordinate']}, planted conflict at {conflict}")
    bad = [i for i in range(conflict) if not planted_solves(i)]
    if bad:
        problems.append(f"coordinates {bad} before the conflict are not shown solvable")
    here = {_freeze(a) for a in system.atoms_at(conflict)}
    core = [_atom(e) for e in cert["core"]["equations"]]
    if any(_freeze(a) not in here for a in core):
        problems.append("core equation missing from the projection at the conflict")
    if structure.satisfiable(core):
        problems.append("core is consistent")
    for k in range(len(core)):
        if not structure.satisfiable(core[:k] + core[k + 1 :]):
            problems.append(f"core minus equation {k} is still inconsistent")
    sources, lifted = cert["sources"], [_atom(e) for e in cert["lifted"]]
    if len(sources) != len(core) or len(lifted) != len(core):
        problems.append("sources, lifted and core differ in length")
    else:
        for src, lift, base in zip(sources, lifted, core):
            given = system.explicit[src["explicit"]]
            same = all(
                _freeze(_project(lift, lambda s: stream_at(s, i)))
                == _freeze(_project(given, lambda s: stream_at(s, i)))
                for i in range(stab + period)
            )
            at = _freeze(_project(given, lambda s: stream_at(s, conflict)))
            if not same or at != _freeze(base):
                problems.append(f"lifted equation for source {src} does not match")
    return problems, {"horizon": [stab, period], "core": len(core)}


# --- witness --------------------------------------------------------------------


def open_walk(universe: list[str], edges: set) -> bool:
    return any(
        (x1, x2) in edges and (x2, x3) in edges and (x3, x4) in edges and (x4, x1) not in edges
        for x1, x2, x3, x4 in product(universe, repeat=4)
    )


def brute_force_negative(structure: Structure) -> bool:
    """NOT_NOETHERIAN by the quasi-identity, strict-pair or independent-triple scan."""
    if structure.kind == "graph":
        return open_walk(structure.universe, structure.tables["E"])
    if structure.kind == "poset":
        leq = structure.tables["leq"]
        return any(a != b and (a, b) in leq for a in structure.universe for b in structure.universe)
    if structure.tables.get("P3"):
        return True
    return open_walk(structure.universe, structure.tables.get("P2", set()))


def _certificate_ok(structure: Structure, kind: str, labels: list[str]) -> bool:
    t = structure.tables
    if kind == "quadruple":
        edges = t["E"] if structure.kind == "graph" else t["P2"]
        a1, a2, a3, a4 = labels
        return (a1, a2) in edges and (a2, a3) in edges and (a3, a4) in edges and (a4, a1) not in edges
    if kind == "pair":
        return labels[0] != labels[1] and tuple(labels) in t["leq"]
    return tuple(labels) in t.get("P3", set())


class FamilyCheck:
    """Does a one-variable point violate member m of a staircase family?"""

    def __init__(self, structure: Structure, atom: tuple) -> None:
        kind, symbol, args = atom
        self.stairs = _const_payloads(atom)
        slots = iter(range(len(self.stairs)))
        self.template = [None if tag == "v" else next(slots) for tag, _ in args]  # None marks the variable
        self.table = structure.tables[symbol] if kind == "rel" else None

    def _holds(self, row: tuple) -> bool:
        return row in self.table if self.table is not None else row[0] == row[1]

    def fails(self, point: dict, m: int) -> bool:
        tails = [s["tail"] for s in self.stairs]
        gens = [s["generator"] for s in self.stairs]
        # past `settle` both the point and member m are periodic with period `cycle`
        settle = max([m - 1 + len(t["prefix"]) for t in tails] + [len(point["prefix"])])
        cycle = math.lcm(*([len(t["cycle"]) for t in tails] + [len(point["cycle"])] + [len(g) for g in gens]))
        for i in range(settle + cycle):
            if i <= m - 2:
                consts = [g[i % len(g)] for g in gens]
            else:
                consts = [stream_at(t, i - (m - 1)) for t in tails]
            value = stream_at(point, i)
            if not self._holds(tuple(value if t is None else consts[t] for t in self.template)):
                return True
        return False


def check_witness(job, doc: dict) -> tuple[list[str], dict]:
    """Verdict by brute force; every point solves 1..n, fails the family, least failure right."""
    problems = []
    structure = Structure(load_json(job.facts["structure"]))
    depth = job.facts["depth"]
    negative = brute_force_negative(structure)
    if not negative:
        return ["structure is not NOT_NOETHERIAN by brute force"], {}
    if doc.get("status") != "NOT_NOETHERIAN" or doc.get("all_ok") is not True:
        return [f"status {doc.get('status')} all_ok {doc.get('all_ok')}"], {}
    package = doc["witness"]
    ((cert_kind, labels),) = package["certificate"].items()
    if not _certificate_ok(structure, cert_kind, labels):
        problems.append(f"certificate {cert_kind} {labels} does not hold in the structure")
    family = FamilyCheck(structure, _atom(package["family"]["family"]))
    rule = package["witness_rule"]
    expected_gap = 1 if cert_kind == "quadruple" else 2
    checked = doc["checked_members"]
    if [c["n"] for c in checked] != list(range(1, depth + 1)):
        problems.append("checked members do not run 1..depth")
    for entry in checked:
        n = entry["n"]
        point = {"prefix": [rule["repeat"]] * (n + rule["offset"]), "cycle": [rule["tail"]]}
        least = next(
            (m for m in range(1, n + expected_gap + 2) if family.fails(point, m)),
            None,
        )
        if entry["ok"] is not True or least is None or least <= n:
            problems.append(f"depth {n}: point does not solve 1..n but fail the family")
        elif entry["first_violated_member"] != least or least != n + expected_gap:
            problems.append(f"depth {n}: first violated member {entry['first_violated_member']}, oracle {least}")
        if problems:
            break
    return problems, {"horizon": [depth + rule["offset"], 1], "certificate": cert_kind}


CHECKS = {"wrap-horizon": check_wrap, "solve-wide": check_consistent, "witness-deep": check_witness}


def check(job, exit_code: int | None, stdout: str, error: str | None) -> tuple[list[str], dict]:
    """Judge one job run: exit code, parseable JSON, then the workload's answer check."""
    if error is not None:
        return [f"raised {error}"], {}
    if exit_code != job.expect_exit:
        return [f"exit code {exit_code}, expected {job.expect_exit}"], {}
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"], {}
    try:
        return CHECKS[job.workload](job, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed answer: {exc!r}"], {}
