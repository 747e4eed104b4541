"""Every mutant in tests/mutants.py names an old text that occurs exactly once in its file.

`python tests/mutants.py` refuses a stale entry too, but only in a run that
takes minutes; this test reads the table without copying the tree or
running a mutant.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants() -> tuple:
    spec = importlib.util.spec_from_file_location("eqpower_mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants.MUTANTS


def test_every_mutant_text_occurs_once_in_its_file():
    mutants = _mutants()
    assert mutants
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in mutants}
    assert {name: count for name, count in counts.items() if count != 1} == {}
