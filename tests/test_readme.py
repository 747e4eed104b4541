"""README examples: the command tour's transcripts and the library sketch.

Every `$ eqpower ...` line in a sh block prints the lines under it.  Each
command runs through cli.main from the repository root, so the fixture
paths in the README resolve as they do for a reader there.  The expected
stdout is every line after the command up to the next `$ ` line or the end of
the block.  The one python block, the library sketch, runs as written.
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


def test_readme_library_sketch_runs_and_its_comments_hold(monkeypatch):
    """The sketch wraps to four equations that verify, and its witness check for n = 5 holds."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")
    assert len(blocks) == 2
    sketch = blocks[1].split("```\n")[0]
    monkeypatch.chdir(ROOT)
    names: dict = {}
    exec(sketch, names)
    assert len(names["result"].wrapped.explicit) == 4
    assert names["result"].verified
    assert names["verify_witness"](names["g"], names["package"], 5)
