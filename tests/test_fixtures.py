"""The JSON files under fixtures/ are the documents that eqpower.fixtures and support.fixture_structures build."""

import json
from pathlib import Path

import support
from eqpower.fixtures import staircase_demo_system
from eqpower.power import power_system_from_json_dict
from eqpower.structures import structure_from_json_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _documents() -> dict:
    return {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}


def test_structure_files_match_fixture_structures():
    docs = _documents()
    decoded = {stem: structure_from_json_dict(doc) for stem, doc in docs.items() if "kind" in doc}
    assert decoded == support.fixture_structures()


def test_staircase_demo_file_matches_staircase_demo_system():
    assert power_system_from_json_dict(_documents()["staircase_demo"]) == staircase_demo_system()
