"""Every mutant in tests/mutants.py names an old text that occurs exactly once in its file, and tests that exist.

`python tests/mutants.py` refuses a stale entry too, but only in a run that
takes minutes; these tests read the table without copying the tree or
running a mutant.  A ratchet also bounds how many selections hold only
Hypothesis tests.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# selections whose every test is a @given test; lower it when one of them gains a deterministic test
HYPOTHESIS_ONLY_AT_MOST = 4


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


def test_every_mutant_selects_tests_that_exist():
    """Each selection entry names a file and, after `::` with any `[param]` id stripped, a `def` in it."""
    stale = []
    for m in _mutants():
        for entry in m.tests:
            path, _, name = entry.partition("::")
            file = ROOT / path
            name = name.partition("[")[0]
            if not file.is_file() or (name and not re.search(rf"^def {re.escape(name)}\(", file.read_text(), re.M)):
                stale.append((m.name, entry))
    assert stale == []


def _is_given(entry: str) -> bool:
    """Whether a selection entry names a test that carries the `hypothesis` attribute @given sets."""
    path, _, name = entry.partition("::")
    module = importlib.import_module(Path(path).stem)  # tests/ is on sys.path, as `import support` needs
    return hasattr(getattr(module, name.partition("[")[0]), "hypothesis")


def test_few_mutants_are_killed_by_hypothesis_tests_alone():
    """At most HYPOTHESIS_ONLY_AT_MOST selections hold only @given tests.

    Hypothesis also draws literals it mines from the tested modules'
    source, so whether such a selection kills its mutant under a fixed
    seed can change with an unrelated edit; a deterministic test in the
    selection keeps the kill.
    """
    only = [m.name for m in _mutants() if all(map(_is_given, m.tests))]
    assert len(only) <= HYPOTHESIS_ONLY_AT_MOST, only
