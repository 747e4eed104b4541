"""Per-family work counted, not timed: it grows with L + P + C, and witness checks build no point or truncation.

One family E(x, stair) over the triangle, with L the generator length, P
the tail prefix and C the tail cycle.  wrap's scans grow with L + P + C,
not with L^2 or C^2.  Counts are the same on every Python the CI matrix
runs, so a return to a quadratic scan, or to a point or a truncation
built per witness depth, or a closed-form check at every depth past the
witness's repeat, fails here wherever it runs.

One test is timed: consistent over 14 variables, where the assignment
space has 4,782,969 points.  Its 1 s bound is about 20 times what the call
takes and under a tenth of what the division-formula cylinder build took,
so it fails only on a return of that build.
"""

import contextlib
import importlib
import io
import json
import math
import random
import time
from pathlib import Path
from unittest import mock

import support
from eqpower import cli, noetherian, power
from eqpower.fixtures import triangle_graph
from eqpower.noetherian import build_witness_family, first_violated_member, power_noetherian
from eqpower.power import Periodic, PowerElement, PowerSystem, Staircase, StaircaseFamily, coordinate_profile
from eqpower.power import consistent, coordinate_masks, horizon, stream_horizon
from eqpower.solver import Const, RelationAtom, Var, const_values
from eqpower.structures import FiniteStructure
from eqpower.wrap import class_representatives, wrap, wrap_result_to_json_dict

WRAP_MODULE = importlib.import_module("eqpower.wrap")  # eqpower.wrap the attribute is the function
TRIANGLE = str(Path(__file__).resolve().parent.parent / "fixtures" / "triangle.json")


def edge_family(length: int, prefix: int, cycle: int) -> PowerSystem:
    rng = random.Random(length * 1000 + cycle)

    def labels(n):
        return tuple(rng.choice("abc") for _ in range(n))

    stair = Staircase(labels(length), PowerElement(labels(prefix), labels(cycle)))
    system = PowerSystem(("x",), (), (StaircaseFamily(RelationAtom("E", (Var("x"), Const(stair)))),))
    (fam,) = system.families
    assert (len(fam.generator_rows), len(fam.tail_rows.prefix), len(fam.tail_rows.cycle)) == (length, prefix, cycle)
    return system


def test_candidate_scan_classifies_each_family_row_once_at_L_400():
    """At L = 400 the scan classifies at most L + P + C rows; projecting each member n <= L + 1 made about L^2 / 2.

    The profile is built on one triangle and the scan run on another, so the
    scan's classifier starts with an empty row memo and classifies every
    row it reads itself.
    """
    system = edge_family(400, 2, 3)
    profile = coordinate_profile(triangle_graph(), system)
    with support.counted_row_classifications() as built:
        reps = class_representatives(triangle_graph(), system, profile)
    assert reps
    assert 0 < len(built) <= 400 + 2 + 3


def _counted_profile(structure, system):
    """coordinate_profile's result, its Periodic.at reads and the rows its AtomClassifier classifies."""
    reads = [0]
    at = Periodic.at

    def counted_at(self, i):
        reads[0] += 1
        return at(self, i)

    with mock.patch.object(Periodic, "at", counted_at), support.counted_row_classifications() as built:
        profile = coordinate_profile(structure, system)
    return profile, reads[0], len(built)


def test_profile_and_one_projection_read_each_family_row_at_most_once_at_C_400():
    """At C = 400 the profile reads no row by coordinate and classifies each distinct row once.

    It builds running tail masks from the P + C tail rows and one mask per
    generator residue, so it makes no Periodic.at read and classifies at
    most L + P + C rows, the distinct ones.  projection_entries at 10**12
    walks down from i through one tail cycle and the tail prefix: at most
    P + C tail reads, plus one generator row read off the descriptors, not
    off the generator rows.  A walk over the members would read
    10**12 + 2 rows.
    """
    system = edge_family(1, 2, 400)
    (fam,) = system.families
    tails = fam.tail_rows
    profile, reads, calls = _counted_profile(triangle_graph(), system)
    assert reads == 0
    assert calls == len(set(fam.generator_rows + tails.prefix + tails.cycle)) <= 1 + 2 + 400
    assert (len(profile.prefix), len(profile.cycle)) == (402, 400)
    rows = {}
    at = Periodic.at

    def counted(self, i):
        rows[id(self)] = rows.get(id(self), 0) + 1
        return at(self, i)

    with mock.patch.object(Periodic, "at", counted):
        power.projection_entries(system, 10**12)
    assert rows == {id(tails): 2 + 400}


def test_one_coordinate_projection_zips_no_generator_rows_at_L_716539():
    """projection_entries reads the generator row at i off the descriptors, so the L generator rows are never zipped.

    Three slots with generators of lengths 97, 89 and 83 give L = 716,539
    generator rows; zipping them made `project --coordinate 5` take about
    0.26 s and 82 MB.  Only the tails are zipped, and the entries are
    support.oracle_projection_entries', in the same order.
    """
    rng = random.Random(716539)

    def stair(length):
        tail = PowerElement(("a",), tuple(rng.choice("ab") for _ in range(3)))
        return Staircase(tuple(rng.choice("ab") for _ in range(length)), tail)

    fam = StaircaseFamily(RelationAtom("Q", (Var("x"), Const(stair(97)), Const(stair(89)), Const(stair(83)))))
    system = PowerSystem(("x",), (RelationAtom("Q", (Var("x"),) + (Const(PowerElement((), ("a", "b"))),) * 3),), (fam,))
    entries = power.projection_entries(system, 5)
    assert "generator_rows" not in vars(fam) and "tail_rows" in vars(fam)
    assert list(entries.items()) == list(support.oracle_projection_entries(system, 5).items())
    assert math.lcm(97, 89, 83) == 716539


def test_one_coordinate_projection_zips_no_explicit_constants_at_1009_by_1013():
    """projection_entries reads an explicit equation at i with project_equation, so its rows are never zipped.

    E(c1, c2) over no variables, the stream cycles 1,009 and 1,013 coprime:
    zipping the constants to their joint horizon built 1,022,117 rows for
    one coordinate, and `project --coordinate 5` took about 0.3 s and
    103 MB.  At 5 and at 10**12 the entries are
    support.oracle_projection_entries', in the same order, and
    power.zip_streams is handed neither constant (support.explicit_zips).
    """
    rng = random.Random(1009)

    def stream(length):
        return Const(PowerElement((), tuple(rng.choice("abc") for _ in range(length))))

    system = PowerSystem((), (RelationAtom("E", (stream(1009), stream(1013))),))
    assert horizon(const_values(system.explicit[0])) == (0, 1009 * 1013)
    for i in (5, 10**12):
        with support.explicit_zips(system) as zipped:
            entries = power.projection_entries(system, i)
        assert zipped == []
        assert list(entries.items()) == list(support.oracle_projection_entries(system, i).items())


def test_coprime_wrap_reads_each_residue_once_at_L_211_C_199():
    """Generator 211 against tail cycle 199: the profile's reads and the masks scan do not grow with L * C.

    The horizon is (199, 41,989).  The profile makes no Periodic.at read
    and classifies at most L + P + C = 410 rows, each distinct row once;
    every entry is a running tail mask list and a generator residue's mask.
    coordinate_masks' family branch ANDs the P + C tail masks into a
    running column (P + C - 1 ANDs), that column with the generator masks
    cycled by residue (stop ANDs), and the result into the entries (stop
    ANDs): 2 * stop + P + C - 1, where a loop per tail position made
    200 * stop.  wrap's document is the one that the per-coordinate scans
    support.reference_coordinate_profile and
    support.reference_coordinate_masks give.
    """
    g = triangle_graph()
    system = edge_family(211, 0, 199)
    (fam,) = system.families
    tails = fam.tail_rows
    stab, period = stream_horizon(system)
    assert (stab, period) == (199, 211 * 199)
    profile, reads, calls = _counted_profile(g, system)
    assert reads == 0
    assert calls == len(set(fam.generator_rows + tails.cycle)) <= 211 + 199
    assert (len(profile.prefix), len(profile.cycle)) == (stab, period)

    ands = [0]

    def counted_and(a, b):
        ands[0] += 1
        return a & b

    stop = stab + 2 * period
    with mock.patch.object(power, "and_", counted_and):
        masks = coordinate_masks(g, system, stop)
    assert ands[0] == 2 * stop + len(tails.prefix) + len(tails.cycle) - 1
    assert masks == support.reference_coordinate_masks(g, system, stop)

    def document(result):
        return json.dumps(wrap_result_to_json_dict(result), indent=2)

    fast = document(wrap(g, system))
    with (
        mock.patch.object(WRAP_MODULE, "coordinate_profile", support.reference_coordinate_profile),
        mock.patch.object(WRAP_MODULE, "coordinate_masks", support.reference_coordinate_masks),
    ):
        assert document(wrap(g, system)) == fast
    assert json.loads(fast)["verified"] is True


def test_consistent_on_a_14_variable_path_builds_its_cylinders_in_well_under_a_second():
    """A 13-edge path over 14 variables on the triangle: k^n = 4,782,969 bits per mask.

    AtomClassifier builds each cylinder by shift-and-OR doubling.  On a
    shared 2-CPU container the whole call takes about 0.05 s in process,
    where the division formula it replaced took about 13.6 s for the 42
    cylinders (as a CLI run); the bound is 1 s.
    """
    variables = tuple(f"x{i}" for i in range(14))
    edges = tuple(RelationAtom("E", (Var(a), Var(b))) for a, b in zip(variables, variables[1:]))
    start = time.perf_counter()
    verdict = consistent(triangle_graph(), PowerSystem(variables, edges))
    elapsed = time.perf_counter() - start
    assert verdict.consistent
    assert elapsed < 1.0, elapsed


def test_witness_depths_read_one_scan_each_and_build_no_truncation():
    """Each witness depth, 1..60 or 10**6, reads the same few table rows and builds no point, column or truncation.

    first_violated_member reads the witness family's four rows in closed
    form from the certificate: no coordinate_masks scan, no PowerElement and
    no StaircaseFamily, so a depth costs at most four row lookups in the
    relation's index table, the same number at every depth that has a
    repeat before its tail.
    """
    g = triangle_graph()
    package = build_witness_family(g, "graph", power_noetherian(g, "graph").certificate)
    assert package.family and package.witness_rule  # both cached on first use, before counting
    lookups, rows = [], []
    index_table = FiniteStructure.index_table

    class CountedTable(frozenset):
        def __contains__(self, row):
            lookups[-1] += 1
            rows.append(row)
            return frozenset.__contains__(self, row)

    def counted_table(self, symbol):
        return CountedTable(index_table(self, symbol))

    with (
        mock.patch.object(power, "coordinate_masks", wraps=coordinate_masks) as scans,
        mock.patch.object(PowerElement, "__post_init__", autospec=True, wraps=PowerElement.__post_init__) as points,
        mock.patch.object(StaircaseFamily, "__init__", autospec=True, wraps=StaircaseFamily.__init__) as fams,
        mock.patch.object(FiniteStructure, "index_table", counted_table),
    ):
        firsts = []
        for n in (*range(1, 61), 10**6):
            lookups.append(0)
            firsts.append(first_violated_member(g, package, n))
    assert firsts == [n + 1 for n in (*range(1, 61), 10**6)]  # quadruples fail member n + 1
    assert (scans.call_count, points.call_count, fams.call_count) == (0, 0, 0)
    # the one generator residue and the one tail position, each with the repeat's row and the tail's;
    # a quadruple's depth-1 point switches at coordinate 0, so it is its tail alone
    assert lookups == [2] + [4] * 60
    # each index row read is in the table exactly when its labels are a row of the relation
    edges = support.label_table(g, "E")
    assert all((row in g.index_table("E")) == (tuple(map(g.label, row)) in edges) for row in rows)


def _witness_json(depth: int) -> str:
    """What `eqpower witness fixtures/triangle.json --depth <depth> --format json` prints, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["witness", TRIANGLE, "--depth", str(depth), "--format", "json"]) == 0
    return out.getvalue()


def test_witness_checks_only_the_depths_before_its_repeat():
    """witness --depth 100000 reads the family's failing rows twice, and its document is the per-depth loop's.

    The triangle's quadruple has offset -1, so first_violated_members
    checks depths 1..1 - offset = 2, and every later depth takes the answer
    of depth 2.  At depth 200 the document is
    byte for byte the one that calling first_violated_member at every depth
    writes.
    """
    with mock.patch.object(noetherian, "_failing_rows", wraps=noetherian._failing_rows) as reads:
        doc = json.loads(_witness_json(100_000))
    assert reads.call_count == 2
    assert doc["all_ok"] is True and len(doc["checked_members"]) == 100_000
    assert doc["checked_members"][-1] == {"n": 100_000, "ok": True, "first_violated_member": 100_001}

    def per_depth(structure, package, depth):
        return [first_violated_member(structure, package, n) for n in range(1, depth + 1)]

    with mock.patch.object(cli, "first_violated_members", per_depth):
        expected = _witness_json(200)
    assert _witness_json(200) == expected
