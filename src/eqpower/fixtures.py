"""Ready-made structures and systems used by the CLI examples and the tests."""

from __future__ import annotations

from .power import PowerElement, PowerSystem, Staircase, StaircaseFamily
from .solver import Const, RelationAtom, Var
from .structures import GRAPH_EDGE_SYMBOL, FiniteStructure, graph_from_edges


def triangle_graph() -> FiniteStructure:
    """Complete graph on the three labels a, b, c."""
    return graph_from_edges(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])


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

