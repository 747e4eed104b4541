"""Golden CLI transcripts: exact stdout and exit code of every subcommand on the fixtures.

Each case's stdout is stored byte for byte under tests/golden/<case>.txt and its
exit code in tests/golden/exit_codes.json.  The help text of the program and
of each subcommand is pinned too; argparse wraps it to the terminal width, so
every case runs with COLUMNS=80.  After an intended output change,
rewrite the transcripts with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from eqpower.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"  # base systems, which the decoder fuzz corpus reads too
POWER_INPUTS = GOLDEN / "power_inputs"

STRUCTURES = (
    "antichain3",
    "chain2",
    "cycle5",
    "free_matroid2",
    "free_matroid3",
    "path4",
    "rank_one_matroid2",
    "star3",
    "triangle",
)
POWER_SYSTEMS = ("planted_inconsistent", "staircase_demo")  # both paired with the triangle
# horizon 3 + 90: the generator has length 5, and the class of E(x, c) first occurs at member 6
WRAP_INPUTS = {"wide_staircase": "triangle"}
BASE_SYSTEMS = {
    "chain2_below": "chain2",
    "free_matroid2_repeated": "free_matroid2",
    "triangle_duplicate_core": "triangle",
    "triangle_inconsistent": "triangle",
    "triangle_three_vars": "triangle",
    "triangle_walk": "triangle",
}

SUBCOMMANDS = ("validate", "solve", "project", "consistent", "noetherian", "witness", "wrap")


def _fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def _cases() -> dict[str, list[str]]:
    plain: dict[str, list[str]] = {}
    for name in STRUCTURES:
        plain[f"validate_{name}"] = ["validate", _fixture(name)]
        plain[f"noetherian_{name}"] = ["noetherian", _fixture(name)]
        plain[f"witness_{name}"] = ["witness", _fixture(name), "--depth", "6"]
    for name in POWER_SYSTEMS:
        pair = [_fixture("triangle"), _fixture(name)]
        plain[f"consistent_{name}"] = ["consistent", *pair]
        for i in range(4):
            plain[f"project_{name}_{i}"] = ["project", *pair, "--coordinate", str(i)]
        plain[f"wrap_{name}"] = ["wrap", *pair]
    for name, structure in WRAP_INPUTS.items():
        plain[f"wrap_{name}"] = ["wrap", _fixture(structure), str(POWER_INPUTS / f"{name}.json")]
    for name, structure in BASE_SYSTEMS.items():
        plain[f"solve_{name}"] = ["solve", _fixture(structure), str(INPUTS / f"{name}.json")]
    cases = {"help": ["--help"]}
    for command in SUBCOMMANDS:
        cases[f"help_{command}"] = [command, "--help"]
    for name, argv in plain.items():
        cases[f"{name}_text"] = argv
        cases[f"{name}_json"] = argv + ["--format", "json"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    return code, out.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcript(case):
    code, out = _run(CASES[case])
    assert out == (GOLDEN / f"{case}.txt").read_text()
    assert code == _exit_codes()[case]


def test_golden_directory_has_no_stale_cases():
    recorded = {p.stem for p in GOLDEN.glob("*.txt")}
    assert recorded == set(CASES)
    assert set(_exit_codes()) == set(CASES)


if __name__ == "__main__":
    codes = {}
    for case in sorted(CASES):
        codes[case], out = _run(CASES[case])
        (GOLDEN / f"{case}.txt").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
