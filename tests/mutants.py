"""Mutation checks: each entry breaks the program on purpose, and its tests must notice.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

For each mutant the tree is copied to a temporary directory, one exact text
of one file is replaced, and the mutant's pytest selection runs in the copy
with PYTHONPATH=src.  The mutant is killed when a selected test fails.  An
old text that does not occur exactly once in its file fails the run before
any test runs, so an entry cannot go stale unnoticed, and the union of the
selections must pass on an unmutated copy first.  The exit status is 0 only
when every mutant is killed.  Pytest does not collect this file (its name
does not start with test_), and the script itself uses only the standard
library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "_work", "_out")
PYTEST = ("-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest selection, relative to the repository root


MUTANTS = (
    Mutant(
        "the profile reads a family's running tail masks at i mod (P + C), not at min(i, P + C - 1)",
        "src/eqpower/power.py",
        "map(add, chain(tail, repeat(tail[-1]))",
        "map(add, cycle(tail)",
        (
            "tests/test_power.py::test_profile_fold_matches_recomputation",
            "tests/test_power.py::test_profile_fold_matches_recomputation_at_fixed_seeds",
        ),
    ),
    Mutant(
        "the profile's tail column is shifted by one coordinate",
        "src/eqpower/power.py",
        "map(add, chain(tail, repeat(tail[-1]))",
        "map(add, chain(tail[1:], repeat(tail[-1]))",
        (
            "tests/test_power.py::test_profile_fold_matches_recomputation",
            "tests/test_power.py::test_profile_fold_matches_recomputation_at_fixed_seeds",
        ),
    ),
    Mutant(
        "the profile reads the generator row at residue i + 1 mod L",
        "src/eqpower/power.py",
        "islice(cycle(gen), stop)",
        "islice(cycle(gen[1:] + gen[:1]), stop)",
        (
            "tests/test_power.py::test_profile_fold_matches_recomputation",
            "tests/test_power.py::test_profile_fold_matches_recomputation_at_fixed_seeds",
        ),
    ),
    Mutant(
        "coordinate_masks starts a family's running tail column one coordinate late",
        "src/eqpower/power.py",
        "chain(tail, repeat(tail[-1])), cycle(gen)",
        "chain([classifier.full], tail, repeat(tail[-1])), cycle(gen)",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_for_every_slot_count",
            "tests/test_power.py::test_coordinate_masks_stop_before_the_tail_column_holds",
            "tests/test_power.py::test_coordinate_masks_pinned_on_two_families",
        ),
    ),
    Mutant(
        "coordinate_masks reads each generator row one coordinate late",
        "src/eqpower/power.py",
        ", cycle(gen))))",
        ", chain([classifier.full], cycle(gen)))))",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_for_every_slot_count",
            "tests/test_power.py::test_coordinate_masks_pinned_on_two_families",
        ),
    ),
    Mutant(
        "coordinate_masks ANDs a family's column one coordinate late",
        "src/eqpower/power.py",
        "masks = list(map(and_, masks, map(and_, chain(",
        "masks = masks[:1] + list(map(and_, masks[1:], map(and_, chain(",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_stop_before_the_tail_column_holds",
        ),
    ),
    Mutant(
        "coordinate_masks reads the generator row at residue i + 1 mod L",
        "src/eqpower/power.py",
        ", cycle(gen))))",
        ", cycle(gen[1:] + gen[:1]))))",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_for_every_slot_count",
            "tests/test_power.py::test_coordinate_masks_stop_before_the_tail_column_holds",
            "tests/test_power.py::test_coordinate_masks_pinned_on_two_families",
        ),
    ),
    Mutant(
        "coordinate_masks holds a family's tail column at position 0, not at P + C - 1",
        "src/eqpower/power.py",
        "chain(tail, repeat(tail[-1])), cycle(gen)",
        "chain(tail, repeat(tail[0])), cycle(gen)",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_for_every_slot_count",
            "tests/test_power.py::test_coordinate_masks_stop_before_the_tail_column_holds",
        ),
    ),
    Mutant(
        "coordinate_masks reads each tail position's own mask, not the running AND",
        "src/eqpower/power.py",
        "tail = list(accumulate(map(row_masks.__getitem__, tails.prefix + tails.cycle), and_))",
        "tail = list(map(row_masks.__getitem__, tails.prefix + tails.cycle))",
        (
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_at_every_coordinate",
            "tests/test_power.py::test_coordinate_masks_match_the_oracle_for_every_slot_count",
            "tests/test_power.py::test_coordinate_masks_stop_before_the_tail_column_holds",
            "tests/test_power.py::test_coordinate_masks_pinned_on_two_families",
        ),
    ),
    Mutant(
        "coordinate_masks reads no row of an explicit equation without constants",
        "src/eqpower/power.py",
        "if streams else repeat((), stop)",
        "if streams else ()",
        ("tests/test_power.py::test_explicit_columns_without_constants_or_past_their_own_horizon_match_the_oracle",),
    ),
    Mutant(
        "coordinate_masks classifies a family's tail rows before its generator rows",
        "src/eqpower/power.py",
        "        gen = [row_masks[values] for values in fam.generator_rows[:stop]]\n"
        "        tail = list(accumulate(map(row_masks.__getitem__, tails.prefix + tails.cycle), and_))\n",
        "        tail = list(accumulate(map(row_masks.__getitem__, tails.prefix + tails.cycle), and_))\n"
        "        gen = [row_masks[values] for values in fam.generator_rows[:stop]]\n",
        ("tests/test_power.py::test_unknown_labels_are_named_in_classification_order",),
    ),
    Mutant(
        "the row memo is keyed without the variable pattern",
        "src/eqpower/solver.py",
        "key = (atom.symbol, tuple(a.name if isinstance(a, Var) else None for a in atom.args))",
        "key = (atom.symbol, len(atom.args))",
        (
            "tests/test_solver.py::test_row_memo_is_the_mask_of_the_atom_with_the_row_whoever_filled_it",
            "tests/test_solver.py::test_row_memo_is_one_dict_per_shape",
        ),
    ),
    Mutant(
        "the row memo is keyed without the symbol",
        "src/eqpower/solver.py",
        "key = (atom.symbol, tuple(a.name if isinstance(a, Var) else None for a in atom.args))",
        "key = tuple(a.name if isinstance(a, Var) else None for a in atom.args)",
        (
            "tests/test_solver.py::test_row_memo_is_the_mask_of_the_atom_with_the_row_whoever_filled_it",
            "tests/test_solver.py::test_row_memo_is_one_dict_per_shape",
        ),
    ),
    Mutant(
        "the row plans share a table across argument counts",
        "src/eqpower/solver.py",
        "key = (atom.symbol, len(atom.args), tuple(slots))",
        "key = (atom.symbol, tuple(slots))",
        ("tests/test_solver.py::test_row_plans_share_one_table_per_symbol_argument_count_and_slots",),
    ),
    Mutant(
        "the row plans share a table, and its slot picker, across slot positions",
        "src/eqpower/solver.py",
        "key = (atom.symbol, len(atom.args), tuple(slots))",
        "key = (atom.symbol, len(atom.args))",
        ("tests/test_solver.py::test_row_plans_share_one_table_per_symbol_argument_count_and_slots",),
    ),
    Mutant(
        "the row plan compares each constant at the argument position before its own",
        "src/eqpower/solver.py",
        "itemgetter(*slots) if slots else None",
        "itemgetter(*[p - 1 for p in slots]) if slots else None",
        ("tests/test_solver.py::test_row_plan_matches_oracle_on_every_shape_and_row",),
    ),
    Mutant(
        "a one-variable row ORs the cylinder of the entry before its variable's",
        "src/eqpower/solver.py",
        "[cylinders[t[p]] for t in table]",
        "[cylinders[t[p - 1]] for t in table]",
        ("tests/test_solver.py::test_row_plan_matches_oracle_on_every_shape_and_row",),
    ),
    Mutant(
        "a two-variable row drops the AND with the second variable's cylinder",
        "src/eqpower/solver.py",
        "[first[t[p]] & second[t[q]] for t in table]",
        "[first[t[p]] for t in table]",
        ("tests/test_solver.py::test_row_plan_matches_oracle_on_every_shape_and_row",),
    ),
    Mutant(
        "FiniteStructure's whole-table pass skips the arity check",
        "src/eqpower/structures.py",
        "if None in indices or not all(map(arity.__eq__, map(len, rows))):",
        "if None in indices:",
        ("tests/test_structures.py::test_structure_decode_names_a_bad_row_after_good_rows",),
    ),
    Mutant(
        "the structure decoder's whole-table pass skips the string check",
        "src/eqpower/structures.py",
        "if not (lists and all(map(isinstance, chain.from_iterable(rows), repeat(str)))):",
        "if not lists:",
        ("tests/test_structures.py::test_structure_decode_names_a_bad_row_after_good_rows",),
    ),
    Mutant(
        "verify_wrap compares masks folded at stab + period",
        "src/eqpower/wrap.py",
        "stop = stab + 2 * period",
        "stop = stab + period",
        ("tests/test_wrap.py::test_verify_wrap_computes_its_extra_period",),
    ),
    Mutant(
        "verify_wrap compares the original with itself",
        "src/eqpower/wrap.py",
        "== coordinate_masks(structure, wrapped, stop)",
        "== coordinate_masks(structure, original, stop)",
        ("tests/test_wrap.py::test_verify_wrap_reports_first_bad_coordinate",),
    ),
    Mutant(
        "every wrap step reads the first representative's mask",
        "src/eqpower/wrap.py",
        "mask = classifier.mask(rep.representative)",
        "mask = classifier.mask(reps[0].representative)",
        ("tests/test_wrap.py::test_verify_wrap_matches_the_oracle_profile",),
    ),
    Mutant(
        "holds looks labels up with a bare index",
        "src/eqpower/structures.py",
        "tuple(map(self.index, row))",
        "tuple(self._index[v] for v in row)",
        ("tests/test_structures.py::test_holds_names_an_unknown_label_like_index",),
    ),
    Mutant(
        "zip_streams of no streams has no empty row",
        "src/eqpower/power.py",
        "for s in streams))) or ((),)",
        "for s in streams)))",
        (
            "tests/test_power.py::test_zip_streams_reads_every_stream_at_every_coordinate",
            "tests/test_acceptance.py::test_wrap_size_bound_on_random_systems",
        ),
    ),
    Mutant(
        "zip_streams takes period rows instead of stab + period",
        "src/eqpower/power.py",
        "s.take(stab + period) for s in streams",
        "s.take(period) for s in streams",
        (
            "tests/test_power.py::test_zip_streams_reads_every_stream_at_every_coordinate",
            "tests/test_power.py::test_projection_entries_match_the_uncut_reference",
            "tests/test_power.py::test_zip_streams_pinned",
        ),
    ),
    Mutant(
        "the core search builds its own AtomClassifier",
        "src/eqpower/solver.py",
        "classifier = AtomClassifier.of(structure, system.variables)\n    masks = [",
        "classifier = AtomClassifier(structure, system.variables)\n    masks = [",
        ("tests/test_power.py::test_consistent_builds_one_mask_per_distinct_atom",),
    ),
    Mutant(
        "first_violated_member returns m without reading its failing rows",
        "src/eqpower/noetherian.py",
        "return m if solves_earlier and not members_hold(structure, failing, m) else None",
        "return m",
        ("tests/test_noetherian.py::test_first_violated_member_refuses_a_wrong_package",),
    ),
    Mutant(
        "the witness decoder compares documents with == instead of JSON text",
        "src/eqpower/noetherian.py",
        "if json.dumps(doc, sort_keys=True) != expected:",
        "if doc != package.to_json_dict():",
        ("tests/test_noetherian.py::test_witness_package_copies_must_agree",),
    ),
    Mutant(
        "the verdict decoder has no status check",
        "src/eqpower/noetherian.py",
        'if doc["status"] != verdict.status:',
        "if False:",
        ("tests/test_noetherian.py::test_verdict_copies_must_agree",),
    ),
    Mutant(
        "a witness truncation keeps the whole family",
        "src/eqpower/noetherian.py",
        "tuple(self.family.member(m) for m in range(1, n + 1)))",
        "(), (self.family,))",
        ("tests/test_noetherian.py::test_witness_package_computes_its_rule_once_and_truncations_bound_the_family",),
    ),
    Mutant(
        "a witness truncation stops one member short",
        "src/eqpower/noetherian.py",
        "for m in range(1, n + 1)",
        "for m in range(1, n)",
        ("tests/test_noetherian.py::test_witness_package_computes_its_rule_once_and_truncations_bound_the_family",),
    ),
    Mutant(
        "first_violated_member takes depth 0",
        "src/eqpower/noetherian.py",
        'raise ValueError("witness points are indexed from 1")\n    offset = package.witness_rule[2]',
        "offset = package.witness_rule[2]",
        ("tests/test_noetherian.py::test_witness_depths_are_numbered_from_1",),
    ),
    Mutant(
        "the witness family shows the repeat's rows at switch 0 too",
        "src/eqpower/noetherian.py",
        "if switch > 0:",
        "if switch >= 0:",
        ("tests/test_noetherian.py::test_failing_rows_match_the_oracle_at_every_switch",),
    ),
    Mutant(
        "the witness family shows (u, g) at member switch + 1",
        "src/eqpower/noetherian.py",
        "((point_tail, generator), switch + 2)",
        "((point_tail, generator), switch + 1)",
        ("tests/test_noetherian.py::test_failing_rows_match_the_oracle_at_every_switch",),
    ),
    Mutant(
        "the witness family shows (repeat, g) at member 1",
        "src/eqpower/noetherian.py",
        "((repeat, generator), 2)",
        "((repeat, generator), 1)",
        ("tests/test_noetherian.py::test_failing_rows_match_the_oracle_at_every_switch",),
    ),
    Mutant(
        "members_hold filters members < last",
        "src/eqpower/noetherian.py",
        "if member <= last)",
        "if member < last)",
        (
            "tests/test_noetherian.py::test_first_violated_member_refuses_a_wrong_package",
            "tests/test_power.py::test_members_hold_names_an_unknown_label_whatever_the_row_order",
        ),
    ),
    Mutant(
        "a family's failing rows skip the label lookup",
        "src/eqpower/noetherian.py",
        "rows = sorted(row for row, member in failing.items() if member <= last)\n    for row in rows:\n"
        "        for label in row:\n            structure.index(label)  # raises for a label outside the universe\n"
        "    return not rows",
        "return not any(member <= last for member in failing.values())",
        (
            "tests/test_power.py::test_members_hold_names_an_unknown_label_whatever_the_row_order",
            "tests/test_noetherian.py::test_first_violated_member_names_an_unknown_label_as_the_truncation_checks_did",
        ),
    ),
    Mutant(
        "members_hold swallows an unknown label",
        "src/eqpower/noetherian.py",
        "structure.index(label)  # raises for a label outside the universe",
        "pass",
        ("tests/test_power.py::test_members_hold_names_an_unknown_label_whatever_the_row_order",),
    ),
    Mutant(
        "members_hold looks up only the first failing row",
        "src/eqpower/noetherian.py",
        "rows = sorted(row for row, member in failing.items() if member <= last)",
        "rows = sorted(row for row, member in failing.items() if member <= last)[:1]",
        ("tests/test_power.py::test_members_hold_names_an_unknown_label_whatever_the_row_order",),
    ),
    Mutant(
        "satisfies stops at the system's horizon, not the joint one with the point",
        "src/eqpower/power.py",
        "stop = max(stab, point_stab) + math.lcm(period, point_period)",
        "stop = stab + period",
        (
            "tests/test_power.py::test_satisfies_edge_cases_match_oracle",
            "tests/test_power.py::test_satisfies_matches_oracle_on_long_prefixes",
        ),
    ),
    Mutant(
        "projection_entries keeps the latest source of a repeated equation",
        "src/eqpower/power.py",
        "out.setdefault(_with_slots(fam.atom, values), SourceRef(index, member))",
        "out[_with_slots(fam.atom, values)] = SourceRef(index, member)",
        ("tests/test_power.py::test_projection_entries_order_and_dedup",),
    ),
    Mutant(
        "projection_entries names tail position j member i - j + 2",
        "src/eqpower/power.py",
        "members.setdefault(tails.at(j), i - j + 1)",
        "members.setdefault(tails.at(j), i - j + 2)",
        (
            "tests/test_power.py::test_projection_entries_pinned",
            "tests/test_power.py::test_projection_entries_match_the_uncut_reference",
        ),
    ),
    Mutant(
        "projection_entries walks the tail cycle down to i - C + 2, one residue short",
        "src/eqpower/power.py",
        "max(tail_prefix, i - tail_cycle + 1)",
        "max(tail_prefix, i - tail_cycle + 2)",
        (
            "tests/test_power.py::test_projection_entries_pinned",
            "tests/test_power.py::test_projection_entries_match_the_uncut_reference",
        ),
    ),
    Mutant(
        "projection_entries walks the tail prefix from P - 2, one position short",
        "src/eqpower/power.py",
        "range(min(i, tail_prefix - 1), -1, -1)",
        "range(min(i, tail_prefix - 2), -1, -1)",
        ("tests/test_power.py::test_projection_entries_match_the_uncut_reference",),
    ),
    Mutant(
        "the profile's explicit column stops one coordinate short",
        "src/eqpower/power.py",
        "(row_masks[values],)).take(stop)",
        "(row_masks[values],)).take(stop - 1)",
        ("tests/test_power.py::test_explicit_columns_without_constants_or_past_their_own_horizon_match_the_oracle",),
    ),
    Mutant(
        "wrap's candidate scan reads an explicit equation's cycle rows only, not its prefix",
        "src/eqpower/wrap.py",
        "rows.prefix + rows.cycle",
        "rows.cycle",
        ("tests/test_power.py::test_explicit_columns_without_constants_or_past_their_own_horizon_match_the_oracle",),
    ),
    Mutant(
        "the greedy takes the last candidate of the largest gain",
        "src/eqpower/wrap.py",
        "max(coverage, key=",
        "max(reversed(coverage), key=",
        (
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference",
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference_at_fixed_seeds",
        ),
    ),
    Mutant(
        "wrap's candidate scan stops at member L",
        "src/eqpower/wrap.py",
        "range(1, min(stop, len(generators)) + 2)",
        "range(1, min(stop, len(generators)) + 1)",
        (
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference",
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference_at_fixed_seeds",
        ),
    ),
    Mutant(
        "member n's generator coordinates stop one short",
        "src/eqpower/wrap.py",
        "if hit[0] < n - 1)",
        "if hit[0] < n - 2)",
        (
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference",
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference_at_fixed_seeds",
        ),
    ),
    Mutant(
        "member n's tail rows start at coordinate n",
        "src/eqpower/wrap.py",
        "(n - 1 + j, projected)",
        "(n + j, projected)",
        (
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference",
            "tests/test_wrap.py::test_cut_candidate_scan_matches_the_uncut_reference_at_fixed_seeds",
        ),
    ),
    Mutant(
        "the poset scan returns the last strict pair",
        "src/eqpower/noetherian.py",
        "pair for pair in product(poset.universe, repeat=2) if",
        "pair for pair in reversed(list(product(poset.universe, repeat=2))) if",
        ("tests/test_noetherian.py::test_poset_verdicts_over_every_poset_up_to_four_elements",),
    ),
    Mutant(
        "zip_streams repeats each stream's cycle once, not to the joint period",
        "src/eqpower/power.py",
        "zip(*(s.take(stab + period) for s in streams))",
        "zip(*(s.prefix + s.cycle for s in streams))",
        (
            "tests/test_power.py::test_zip_streams_reads_every_stream_at_every_coordinate",
            "tests/test_power.py::test_projected_member_is_the_projection_of_the_written_out_member",
            "tests/test_power.py::test_zip_streams_pinned",
        ),
    ),
    Mutant(
        "stream_horizon leaves C out of the period",
        "src/eqpower/power.py",
        "period = math.lcm(period, len(fam.generator_rows), len(tails.cycle))",
        "period = math.lcm(period, len(fam.generator_rows))",
        (
            "tests/test_power.py::test_profile_fold_matches_recomputation",
            "tests/test_power.py::test_projected_system_reads_far_coordinates_at_their_residue",
        ),
    ),
    Mutant(
        "Periodic.at reads the cycle without subtracting the prefix length",
        "src/eqpower/power.py",
        "return self.cycle[(i - len(self.prefix)) % len(self.cycle)]",
        "return self.cycle[i % len(self.cycle)]",
        (
            "tests/test_power.py::test_periodic_take_map_and_horizon",
            "tests/test_power.py::test_projected_member_is_the_projection_of_the_written_out_member",
        ),
    ),
    Mutant(
        "stream_horizon leaves the tail pass out of a family's stabilization",
        "src/eqpower/power.py",
        "stab = max(stab, len(tails.prefix) + len(tails.cycle))",
        "stab = max(stab, len(tails.prefix))",
        (
            "tests/test_power.py::test_profile_fold_matches_recomputation",
            "tests/test_power.py::test_profile_fold_matches_recomputation_at_fixed_seeds",
            "tests/test_wrap.py::test_verify_wrap_matches_the_oracle_profile",
        ),
    ),
    Mutant(
        "_is_obstruction accepts a pair with a == b",
        "src/eqpower/noetherian.py",
        "return labels[0] != labels[1] and structure.holds(POSET_ORDER_SYMBOL, labels)",
        "return structure.holds(POSET_ORDER_SYMBOL, labels)",
        ("tests/test_noetherian.py::test_witness_rejects_bogus_certificates",),
    ),
    Mutant(
        "Periodic.take reads a negative n as a negative slice",
        "src/eqpower/power.py",
        'if n < 0:\n            raise IndexError("coordinates are numbered from 0")\n        repeats',
        "repeats",
        ("tests/test_power.py::test_periodic_take_map_and_horizon",),
    ),
    Mutant(
        "the wrap-result decoder takes a negative stabilization",
        "src/eqpower/wrap.py",
        'json_int(tdoc["stabilization"], "stabilization", 0)',
        'json_int(tdoc["stabilization"], "stabilization")',
        ("tests/test_wrap.py::test_wrap_result_refuses_negative_numbers[stabilization]",),
    ),
    Mutant(
        "the wrap-result decoder takes a negative period",
        "src/eqpower/wrap.py",
        'json_int(tdoc["period"], "period", 1)',
        'json_int(tdoc["period"], "period")',
        ("tests/test_wrap.py::test_wrap_result_refuses_negative_numbers[period]",),
    ),
    Mutant(
        "the wrap-result decoder takes a negative representative coordinate",
        "src/eqpower/wrap.py",
        'json_int(doc["coordinate"], "class representative coordinate", 0)',
        'json_int(doc["coordinate"], "class representative coordinate")',
        ("tests/test_wrap.py::test_wrap_result_refuses_negative_numbers[representative-coordinate]",),
    ),
    Mutant(
        "the equality table misses the diagonal's last element",
        "src/eqpower/structures.py",
        "frozenset((i, i) for i in range(len(labels)))",
        "frozenset((i, i) for i in range(len(labels) - 1))",
        ("tests/test_solver.py::test_equalities_match_brute_force_on_every_fixture",),
    ),
    Mutant(
        "the rel decoder accepts the equality symbol",
        "src/eqpower/solver.py",
        "if symbol == EQUALITY:",
        "if False:",
        ("tests/test_solver.py::test_equation_json_rejects_malformed",),
    ),
    Mutant(
        "the equation encoder writes equality as a rel",
        "src/eqpower/solver.py",
        'return {"eq": args} if eq.symbol == EQUALITY else {"rel": eq.symbol, "args": args}',
        'return {"rel": eq.symbol, "args": args}',
        ("tests/test_solver.py::test_equation_json_round_trip",),
    ),
    Mutant(
        "every wrap step reads the first representative's source",
        "src/eqpower/wrap.py",
        "_merged_equation(rep, sources[rep.source], match)",
        "_merged_equation(rep, sources[reps[0].source], match)",
        ("tests/test_wrap.py::test_verify_wrap_matches_the_oracle_profile",),
    ),
    Mutant(
        "PowerSystem keeps a plain label",
        "src/eqpower/power.py",
        "return v if isinstance(v, PowerElement) else PowerElement((), (v,))",
        "return v",
        ("tests/test_power.py::test_a_plain_label_is_its_constant_stream",),
    ),
    Mutant(  # of the random corpora, only support.planted_power_system writes plain labels
        "PowerSystem writes plain labels as streams in its first explicit equation only",
        "src/eqpower/power.py",
        "tuple(map(streams, self.explicit)))",
        "tuple(map(streams, self.explicit[:1])) + tuple(self.explicit[1:]))",
        ("tests/test_wrap.py::test_wrap_verifies_planted_systems",),
    ),
    Mutant(
        "power_noetherian tries the P2 walk before the independent triple",
        "src/eqpower/noetherian.py",
        "        obstruction = matroid_independent_triple(structure)\n"
        "        if obstruction is None and structure.signature.has(WALK_SYMBOLS[kind]):\n"
        "            obstruction = graph_quasi_identity(structure, WALK_SYMBOLS[kind])\n",
        '        obstruction = graph_quasi_identity(structure, "P2") if structure.signature.has("P2") else None\n'
        "        if obstruction is None:\n"
        "            obstruction = matroid_independent_triple(structure)\n",
        ("tests/test_noetherian.py::test_matroid_walks_follow_p2_as_the_graph_of_independent_pairs",),
    ),
    Mutant(
        "graph_quasi_identity walks E whatever the symbol",
        "src/eqpower/noetherian.py",
        "table = structure.index_table(symbol)",
        "table = structure.index_table(GRAPH_EDGE_SYMBOL)",
        ("tests/test_noetherian.py::test_matroid_walks_follow_p2_as_the_graph_of_independent_pairs",),
    ),
    Mutant(
        "shape_obstruction skips two-slot shapes",
        "tests/support.py",
        "for size in range(min(arity, max_slots) + 1):",
        "for size in (s for s in range(min(arity, max_slots) + 1) if s != 2):",
        ("tests/test_noetherian.py::test_a_quaternary_obstruction_needs_two_slots",),
    ),
    Mutant(
        "first_violated_members checks one depth before the repeat too few",
        "src/eqpower/noetherian.py",
        "last = 1 - offset",
        "last = -offset",
        ("tests/test_noetherian.py::test_folded_depths_match_the_per_depth_calls_on_every_certificate",),
    ),
    Mutant(
        "a folded witness depth copies the member number of depth 1 - offset",
        "src/eqpower/noetherian.py",
        "None if firsts[-1] is None else n + offset + 2",
        "firsts[-1]",
        (
            "tests/test_scaling.py::test_witness_checks_only_the_depths_before_its_repeat",
            "tests/test_noetherian.py::test_folded_depths_match_the_per_depth_calls_on_every_certificate",
        ),
    ),
    Mutant(
        "the JSON writer drops the case of an empty list or object",
        "src/eqpower/cli.py",
        '            if not v:\n                write("{}" if isinstance(v, dict) else "[]")\n                return\n',
        "",
        (
            "tests/test_cli.py::test_json_writer_matches_json_dumps_indent_2",
            "tests/test_cli.py::test_json_writer_matches_json_dumps_on_edge_documents",
        ),
    ),
    Mutant(
        "main reports a subcommand's leftover arguments through the subcommand's parser",
        "src/eqpower/cli.py",
        "                parser.error(f\"unrecognized arguments: {' '.join(extras)}\")",
        "                commands[argv[0]].error(f\"unrecognized arguments: {' '.join(extras)}\")",
        ("tests/test_cli.py::test_argument_errors_and_spellings_print_what_a_top_level_parse_prints",),
    ),
    Mutant(
        "main drops a subcommand's leftover arguments",
        "src/eqpower/cli.py",
        "            if extras:\n                parser.error(f\"unrecognized arguments: {' '.join(extras)}\")\n",
        "",
        ("tests/test_cli.py::test_argument_errors_and_spellings_print_what_a_top_level_parse_prints",),
    ),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *PYTEST, *tests], cwd=tree, env=env, capture_output=True, text=True, timeout=900
    )


def _copy(scratch: Path, name: str) -> Path:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def _mutated(tree: Path, mutant: Mutant) -> str:
    """The mutant's file in tree with its old text replaced; exits if that text does not occur exactly once."""
    text = (tree / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name!r}: the old text occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def _failed_test(result: subprocess.CompletedProcess) -> str:
    return next((line for line in result.stdout.splitlines() if line.startswith("FAILED")), "")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="eqpower-mutants-") as scratch:
        scratch = Path(scratch)
        for mutant in chosen:  # every text is checked before any test runs
            _mutated(ROOT, mutant)
        selection = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        baseline = _pytest(_copy(scratch, "baseline"), selection)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:])
            print("the selections fail on the unmutated tree", file=sys.stderr)
            return 2
        killed = 0
        for k, mutant in enumerate(chosen):
            tree = _copy(scratch, f"mutant{k}")
            (tree / mutant.path).write_text(_mutated(tree, mutant))
            result = _pytest(tree, mutant.tests)
            shutil.rmtree(tree)
            if result.returncode == 1:
                killed += 1
                print(f"killed    {mutant.name}  ({_failed_test(result)})")
            elif result.returncode == 0:
                print(f"SURVIVED  {mutant.name}")
            else:
                print(result.stdout[-3000:] + result.stderr[-3000:])
                print(f"ERROR     {mutant.name}: pytest exited {result.returncode}")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
