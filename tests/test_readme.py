"""README transcripts: every `$ eqpower ...` line in a sh block prints the lines under it.

Each command runs through cli.main from the repository root, so the fixture
paths in the README resolve as they do for a reader there.  The expected
stdout is every line after the command up to the next `$ ` line or the end of
the block.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from eqpower.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _transcripts() -> dict[str, str]:
    """Command line -> expected stdout, for each `$ eqpower` line of the README's sh blocks."""
    transcripts: dict[str, list[str]] = {}
    in_sh, command = False, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line == "```sh":
            in_sh = True
        elif line == "```":
            in_sh, command = False, None
        elif in_sh and line.startswith("$ "):
            command = line[2:]
            transcripts[command] = []
        elif command is not None:
            transcripts[command].append(line)
    return {command: "".join(f"{line}\n" for line in lines) for command, lines in transcripts.items()}


TRANSCRIPTS = _transcripts()


def test_readme_has_the_command_tour():
    assert len(TRANSCRIPTS) == 6
    assert all(command.startswith("eqpower ") for command in TRANSCRIPTS)


@pytest.mark.parametrize("command", sorted(TRANSCRIPTS))
def test_readme_transcript(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(shlex.split(command)[1:])
    assert out.getvalue() == TRANSCRIPTS[command]
