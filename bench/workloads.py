"""Seeded input generators for the three benchmark workloads.

Every workload is a fixed ladder of job slots.  The ladder fixes the sizes
that set the cost of a job (horizon, assignment space, witness depth); the
seed only picks the values inside those sizes: structures, stream entries,
planted points and conflicts.  So two seeds cost about the same on different
inputs.

Every job slot gets fresh inputs in every round (`ROUNDS` rounds are written
up front).  A job is a CLI argument list plus the facts the oracle needs to
judge the answer, which are recorded by construction, never read back from
the program.

This module imports nothing from eqpower: inputs are plain JSON documents.
Random graphs for `witness-deep` are kept only when the oracle's brute-force
walk scan gives them a negative verdict.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path

from oracle import open_walk

ROUNDS = 8  # rounds written at set-up; a longer run reuses them cyclically


@dataclass
class Job:
    workload: str
    round: int
    slot: int
    argv: list[str]  # CLI arguments, "--format json" included
    expect_exit: int
    facts: dict = field(default_factory=dict)  # what the oracle checks against
    sizes: dict = field(default_factory=dict)  # horizon, k^n, depth as generated


def _rng(workload: str, seed: int, *parts: object) -> random.Random:
    # str seeds hash through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in (workload, seed) + parts))


class InputFiles:
    """Writes each distinct JSON document once under workdir and returns its path."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def write(self, name: str, doc: object) -> str:
        text = json.dumps(doc) + "\n"
        if text not in self.paths:
            self.paths[text] = str(self.workdir / f"{name}.json")
            Path(self.paths[text]).write_text(text)
        return self.paths[text]


def _structure_doc(kind: str, universe: list[str], relations: dict[str, tuple[int, list]]) -> dict:
    return {
        "kind": kind,
        "universe": list(universe),
        "relations": {
            name: {"arity": arity, "tuples": [list(row) for row in sorted(rows)]}
            for name, (arity, rows) in relations.items()
        },
    }


def _graph_doc(universe: list[str], edges: list[tuple[str, str]]) -> dict:
    rows = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    return _structure_doc("graph", universe, {"E": (2, rows)})


def _is_primitive(word: list[str]) -> bool:
    n = len(word)
    return all(word[:d] * (n // d) != word for d in range(1, n) if n % d == 0)


def _primitive_word(rng: random.Random, alphabet: list[str], length: int) -> list[str]:
    while True:
        word = [rng.choice(alphabet) for _ in range(length)]
        if _is_primitive(word):
            return word


def _stream_doc(prefix: list[str], cycle: list[str]) -> dict:
    return {"prefix": list(prefix), "cycle": list(cycle)}


# --- wrap-horizon ---------------------------------------------------------
#
# Each slot: (period, structure, variables, families, explicit streams).  A
# family is (variable index, generator length, tail cycle length); an explicit
# stream is (variable index, prefix length, cycle length).  Every cycle is
# primitive and no prefix folds into its cycle, so the certified horizon is
# exactly stabilization = max(tail cycles, prefixes) and period = lcm of every
# length, which climbs the ladder 6 .. 210.  The structures are fixed (the
# triangle and the paw); the seed picks stream entries and argument order.

WRAP_LADDER = [
    (6, "triangle", 1, [(0, 2, 3)], []),
    (10, "paw", 1, [(0, 5, 2)], [(0, 1, 1)]),
    (12, "triangle", 2, [(0, 4, 3), (1, 3, 1)], []),
    (14, "paw", 1, [(0, 7, 2)], []),
    (15, "triangle", 1, [(0, 3, 5)], [(0, 2, 1)]),
    (20, "paw", 2, [(0, 4, 5), (1, 2, 1)], [(1, 1, 2)]),
    (21, "triangle", 1, [(0, 7, 3)], []),
    (30, "paw", 1, [(0, 6, 5)], [(0, 1, 2)]),
    (35, "triangle", 1, [(0, 5, 7)], []),
    (42, "paw", 2, [(0, 6, 7)], [(1, 2, 2)]),
    (60, "triangle", 1, [(0, 12, 5)], []),
    (70, "paw", 1, [(0, 14, 5)], []),
    (84, "triangle", 1, [(0, 12, 7)], []),
    (105, "paw", 1, [(0, 15, 7)], []),
    (210, "triangle", 1, [(0, 5, 7), (0, 2, 3)], []),
]

TRIANGLE = ["a", "b", "c"]
TRIANGLE_EDGES = [("a", "b"), ("a", "c"), ("b", "c")]
PAW = ["a", "b", "c", "d"]  # a triangle with a pendant vertex


def _wrap_job(seed: int, rnd: int, slot: int, files: InputFiles) -> Job:
    rng = _rng("wrap-horizon", seed, rnd, slot)
    period, kind, nvars, fams, expl = WRAP_LADDER[slot]
    if kind == "triangle":
        universe, edges = TRIANGLE, TRIANGLE_EDGES
    else:
        universe, edges = PAW, TRIANGLE_EDGES + [("c", "d")]
    variables = ["x", "y"][:nvars]
    equations = []
    for var, gen_len, tail_len in fams:
        gen = _primitive_word(rng, universe, gen_len)
        tail = _primitive_word(rng, universe, tail_len)
        stair = {"staircase": {"generator": gen, "tail": _stream_doc([], tail)}}
        args = [{"var": variables[var]}, stair]
        if rng.random() < 0.5:
            args.reverse()
        equations.append({"family": {"rel": "E", "args": args}})
    for var, pre_len, cyc_len in expl:
        cycle = _primitive_word(rng, universe, cyc_len)
        prefix = [rng.choice(universe) for _ in range(pre_len)]
        if prefix and prefix[-1] == cycle[-1]:  # keep the prefix from folding into the cycle
            prefix[-1] = next(u for u in universe if u != cycle[-1])
        args = [{"var": variables[var]}, {"const": _stream_doc(prefix, cycle)}]
        equations.append({"rel": "E", "args": args})
    lengths = [g for _, g, _ in fams] + [t for _, _, t in fams] + [c for _, _, c in expl]
    assert math.lcm(*lengths) == period, (slot, lengths)

    base = f"wrap-r{rnd:02d}-s{slot:02d}"
    structure = files.write(f"{base}-structure", _graph_doc(universe, edges))
    system = files.write(f"{base}-system", {"variables": variables, "equations": equations})
    stab = max([t for _, _, t in fams] + [p for _, p, _ in expl])
    return Job(
        "wrap-horizon",
        rnd,
        slot,
        ["wrap", structure, system, "--format", "json"],
        0,
        {"structure": structure, "system": system},
        {"stabilization": stab, "period": period, "kn": len(universe) ** nvars},
    )


# --- solve-wide -------------------------------------------------------------
#
# Generic structures with a binary R and a ternary T over k elements, and
# systems over n variables.  Each slot: (k, n, planted conflict coordinate or
# None, equations besides the conflict pair).  Consistent slots plant one
# assignment that every coordinate projection satisfies; refuted slots add one
# equality pair that splits at the conflict coordinate and agrees everywhere
# before it.

SOLVE_LADDER = [
    (4, 5, None, 8),
    (4, 5, 3, 7),
    (5, 5, None, 9),
    (4, 5, 1, 10),
    (4, 5, 4, 8),
    (4, 6, None, 7),
    (4, 5, 5, 9),
    (5, 5, 2, 6),
    (4, 5, 6, 10),
    (4, 6, None, 8),
    (4, 6, 2, 6),
    (5, 5, 3, 7),
    (6, 5, None, 7),
    (5, 5, 7, 6),
    (4, 7, None, 6),
]


def _solve_structure(rng: random.Random, k: int) -> dict:
    universe = [f"u{i}" for i in range(k)]
    binary = [row for row in product(universe, repeat=2) if rng.random() < 0.5]
    ternary = [row for row in product(universe, repeat=3) if rng.random() < 0.4]
    return _structure_doc("generic", universe, {"R": (2, binary), "T": (3, ternary)})


def _stream_from_choices(rng: random.Random, choices: list[str], prefix_len: int, cycle_len: int) -> dict:
    """Canonical stream over two of the choices, using both whenever it has two entries."""
    pool = rng.sample(choices, min(2, len(choices)))
    if len(pool) == 1:
        return _stream_doc([], pool)
    while True:
        cycle = [rng.choice(pool) for _ in range(cycle_len)]
        prefix = [rng.choice(pool) for _ in range(prefix_len)]
        both = len(set(prefix + cycle)) == 2 or prefix_len + cycle_len == 1
        if both and _is_primitive(cycle) and not (prefix and prefix[-1] == cycle[-1]):
            return _stream_doc(prefix, cycle)


SHAPES = ["R-vc", "T-vvc", "R-cv", "eq-vc", "T-vcv", "R-vv"]


def _solve_job(seed: int, rnd: int, slot: int, files: InputFiles) -> Job:
    rng = _rng("solve-wide", seed, rnd, slot)
    k, n, conflict, count = SOLVE_LADDER[slot]
    doc = _solve_structure(rng, k)
    universe = doc["universe"]
    rel = {name: {tuple(row) for row in entry["tuples"]} for name, entry in doc["relations"].items()}
    variables = [f"v{i}" for i in range(1, n + 1)]
    planted = {v: rng.choice(universe) for v in variables}

    def holds(symbol: str, row: tuple[str, ...]) -> bool:
        return row in rel[symbol]

    # Shapes and stream lengths follow the slot, so the number of distinct atoms
    # (each costing k^n evaluations) varies little between seeds.  Prefix <= 2
    # and cycle lengths dividing 6 keep the horizon <= 8.
    equations = []
    for idx in range(count):
        shape = SHAPES[(slot + idx) % len(SHAPES)]
        pre, cyc = idx % 3, (1, 2, 3)[(slot + idx) % 3]
        for _ in range(50):  # variable pairs until the planted point admits the shape
            a, b = rng.sample(variables, 2)
            if shape == "R-vv":
                choices = [planted[b]] if holds("R", (planted[a], planted[b])) else []
            elif shape == "R-vc":
                choices = [u for u in universe if holds("R", (planted[a], u))]
            elif shape == "R-cv":
                choices = [u for u in universe if holds("R", (u, planted[a]))]
            elif shape == "T-vvc":
                choices = [u for u in universe if holds("T", (planted[a], planted[b], u))]
            elif shape == "T-vcv":
                choices = [u for u in universe if holds("T", (planted[a], u, planted[b]))]
            else:
                choices = [planted[a]]
            if len(choices) >= (1 if shape in ("R-vv", "eq-vc") else 2):
                break
        else:
            shape, choices = "eq-vc", [planted[a]]
        const = {"const": _stream_from_choices(rng, choices, pre, cyc)}
        if shape == "R-vv":
            equations.append({"rel": "R", "args": [{"var": a}, {"var": b}]})
        elif shape == "eq-vc":
            equations.append({"eq": [{"var": a}, const]})
        else:
            args = {
                "R-vc": [{"var": a}, const],
                "R-cv": [const, {"var": a}],
                "T-vvc": [{"var": a}, {"var": b}, const],
                "T-vcv": [{"var": a}, const, {"var": b}],
            }[shape]
            equations.append({"rel": shape[0], "args": args})
    if conflict is not None:
        # x = s and x = s' with s' leaving the planted value first at the conflict
        a = rng.choice(variables)
        other = rng.choice([u for u in universe if u != planted[a]])
        if conflict < 2:
            split = _stream_doc([planted[a]] * conflict, [other] + [planted[a]] * rng.choice([1, 2]))
        else:  # the cycle length divides 6, so the horizon stays <= 8
            offset = conflict - 2
            length = next(c for c in (1, 2, 3, 6) if c > offset)
            cycle = [planted[a]] * length
            cycle[offset] = other
            split = _stream_doc([planted[a]] * 2, cycle)
        equations.insert(rng.randint(0, len(equations)), {"eq": [{"var": a}, {"const": _stream_doc([], [planted[a]])}]})
        equations.insert(rng.randint(0, len(equations)), {"eq": [{"var": a}, {"const": split}]})

    base = f"solve-r{rnd:02d}-s{slot:02d}"
    structure = files.write(f"{base}-structure", doc)
    system = files.write(f"{base}-system", {"variables": variables, "equations": equations})
    return Job(
        "solve-wide",
        rnd,
        slot,
        ["consistent", structure, system, "--format", "json"],
        0 if conflict is None else 1,
        {"structure": structure, "system": system, "planted": planted, "conflict": conflict},
        {"kn": k**n, "k": k, "n": n},
    )


# --- witness-deep -----------------------------------------------------------
#
# Every structure here is NOT_NOETHERIAN, so each job expands a certificate
# and verifies the witness to the slot's depth.

WITNESS_DEPTHS = [10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 45, 50, 55, 60]
WITNESS_STRUCTURES = ["cycle5", "path4", "triangle", "random-graph", "chain3", "free-matroid3"]


def _witness_structure(rng: random.Random, name: str) -> dict:
    if name in ("cycle5", "path4"):
        size = 5 if name == "cycle5" else 4
        labels = [f"v{i}" for i in range(1, size + 1)]
        edges = list(zip(labels, labels[1:]))
        if name == "cycle5":
            edges.append((labels[-1], labels[0]))
        return _graph_doc(labels, edges)
    if name == "triangle":
        return _graph_doc(TRIANGLE, TRIANGLE_EDGES)
    if name == "random-graph":
        while True:
            labels = [f"v{i}" for i in range(1, rng.randint(3, 6) + 1)]
            pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
            edges = [p for p in pairs if rng.random() < 0.5]
            oriented = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
            if open_walk(labels, oriented):  # a negative verdict
                return _graph_doc(labels, edges)
    if name == "chain3":
        labels = ["c1", "c2", "c3"]
        rows = [(labels[i], labels[j]) for i in range(3) for j in range(i, 3)]
        return _structure_doc("poset", labels, {"leq": (2, rows)})
    labels = ["e1", "e2", "e3"]
    return _structure_doc(
        "matroid", labels, {f"P{r}": (r, list(permutations(labels, r))) for r in (1, 2, 3)}
    )


def _witness_job(seed: int, rnd: int, slot: int, files: InputFiles) -> Job:
    rng = _rng("witness-deep", seed, rnd, slot)
    depth = WITNESS_DEPTHS[slot]
    order = WITNESS_STRUCTURES[:]
    _rng("witness-deep", seed, rnd).shuffle(order)
    name = order[slot % len(order)]
    structure = files.write(f"witness-r{rnd:02d}-s{slot:02d}-structure", _witness_structure(rng, name))
    return Job(
        "witness-deep",
        rnd,
        slot,
        ["witness", structure, "--depth", str(depth), "--format", "json"],
        0,
        {"structure": structure, "depth": depth, "name": name},
        {"depth": depth},
    )


GENERATORS = {
    "wrap-horizon": (_wrap_job, len(WRAP_LADDER)),
    "solve-wide": (_solve_job, len(SOLVE_LADDER)),
    "witness-deep": (_witness_job, len(WITNESS_DEPTHS)),
}


def generate(workload: str, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[list[Job]]:
    """Write every input file of the workload and return the jobs round by round."""
    make, slots = GENERATORS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    files = InputFiles(workdir)
    return [[make(seed, r, s, files) for s in range(slots)] for r in range(rounds)]
