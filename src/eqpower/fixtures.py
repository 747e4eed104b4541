"""Ready-made structures and systems used by the CLI examples and the tests."""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from .power import PowerElement, PowerSystem, Staircase, StaircaseFamily
from .solver import Const, RelationAtom, Var
from .structures import (
    GRAPH_EDGE_SYMBOL,
    POSET_ORDER_SYMBOL,
    FiniteStructure,
    graph_from_edges,
    matroid_signature,
    poset_signature,
)


def complete_graph(labels: Sequence[str]) -> FiniteStructure:
    labels = tuple(labels)
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    return graph_from_edges(labels, edges)


def triangle_graph() -> FiniteStructure:
    """Complete graph on the three labels a, b, c."""
    return complete_graph(("a", "b", "c"))


def path_graph(n: int) -> FiniteStructure:
    """Path v1 - v2 - ... - vn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"v{i}" for i in range(1, n + 1)]
    return graph_from_edges(labels, zip(labels, labels[1:]))


def cycle_graph(n: int) -> FiniteStructure:
    """Cycle v1 - ... - vn - v1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return graph_from_edges(labels, edges)


def chain_poset(n: int) -> FiniteStructure:
    """Total order c1 <= c2 <= ... <= cn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"c{i}" for i in range(1, n + 1)]
    rows = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)]
    return FiniteStructure(poset_signature(), labels, {POSET_ORDER_SYMBOL: rows})


def antichain_poset(n: int) -> FiniteStructure:
    """Poset in which distinct elements are incomparable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"c{i}" for i in range(1, n + 1)]
    return FiniteStructure(poset_signature(), labels, {POSET_ORDER_SYMBOL: [(u, u) for u in labels]})


def free_matroid(n: int) -> FiniteStructure:
    """Every repeat-free tuple over n ground elements is independent."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"e{i}" for i in range(1, n + 1)]
    tables = {f"P{k}": [tuple(p) for p in permutations(labels, k)] for k in range(1, n + 1)}
    return FiniteStructure(matroid_signature(n), labels, tables)


def rank_one_matroid(n: int) -> FiniteStructure:
    """Singletons are independent, pairs never are."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"e{i}" for i in range(1, n + 1)]
    return FiniteStructure(matroid_signature(2), labels, {"P1": [(u,) for u in labels], "P2": []})


def staircase_demo_system() -> PowerSystem:
    """One staircase family over the triangle graph: the running CLI example.

    Member n forces the first n - 1 coordinates of x to alternate b, c and all
    later coordinates to sit at a.
    """
    family = StaircaseFamily(
        RelationAtom(
            GRAPH_EDGE_SYMBOL,
            (Var("x"), Const(Staircase(("b", "c"), PowerElement((), ("a",))))),
        )
    )
    return PowerSystem(("x",), (), (family,))

