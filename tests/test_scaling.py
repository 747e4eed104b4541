"""wrap's per-family work counted, not timed: it grows with L + P + C, not with L^2 or C^2.

One family E(x, stair) over the triangle, with L the generator length, P
the tail prefix and C the tail cycle.  Counts are the same on every Python
the CI matrix runs, so a return to a quadratic scan fails here wherever
it runs.
"""

import random
from unittest import mock

from eqpower.fixtures import triangle_graph
from eqpower.power import Periodic, PowerElement, PowerSystem, Staircase, StaircaseFamily, coordinate_profile
from eqpower.power import stream_horizon
from eqpower.solver import AtomClassifier, Const, RelationAtom, Var
from eqpower.wrap import class_representatives


def edge_family(length: int, prefix: int, cycle: int) -> PowerSystem:
    rng = random.Random(length * 1000 + cycle)

    def labels(n):
        return tuple(rng.choice("abc") for _ in range(n))

    stair = Staircase(labels(length), PowerElement(labels(prefix), labels(cycle)))
    system = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (Var("x"), Const(stair)))),))
    generators, tails = system.families[0].slot_rows
    assert (len(generators.cycle), len(tails.prefix), len(tails.cycle)) == (length, prefix, cycle)
    return system


def test_candidate_scan_classifies_each_family_row_once_at_L_400():
    """At L = 400 the scan classifies at most L + P + C atoms; projecting each member n <= L + 1 made about L^2 / 2."""
    g = triangle_graph()
    system = edge_family(400, 2, 3)
    profile = coordinate_profile(g, system)
    calls = []
    mask = AtomClassifier.mask

    def counted(self, eq):
        calls.append(eq)
        return mask(self, eq)

    with mock.patch.object(AtomClassifier, "mask", counted):
        reps = class_representatives(g, system, profile)
    assert reps
    assert len(calls) <= 400 + 2 + 3


def test_rows_at_reads_at_most_P_plus_one_rows_past_the_cycle_orders_at_C_400():
    """At C = 400 every rows_at call reads P + 1 rows at most beyond cycle_orders, built once in O(C * rows).

    The walk it replaced read up to C + P + 1 members at every coordinate.
    """
    system = edge_family(1, 2, 400)
    (fam,) = system.families
    distinct = len(set(fam.slot_rows[1].cycle))
    assert sum(len(order) for order in fam.cycle_orders) <= 400 * distinct
    reads = []
    at = Periodic.at

    def counted(self, i):
        reads.append(i)
        return at(self, i)

    stab, period = stream_horizon(system)
    worst = 0
    with mock.patch.object(Periodic, "at", counted):
        for i in [*range(stab + period), 10**12]:
            reads.clear()
            fam.rows_at(i)
            worst = max(worst, len(reads))
    assert worst <= 2 + 1
