import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from eqpower.cli import _json_text, _render_witness_point, main
from eqpower.noetherian import WitnessPackage, build_witness_family, power_noetherian

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_system_doc(*equations):
    return {"variables": ["x"], "equations": list(equations)}


def rel(symbol, label):
    return {"rel": symbol, "args": [{"var": "x"}, {"const": label}]}


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "triangle.json"))
    assert code == 0
    assert "graph axioms: PASS (3 elements)" in out


def test_validate_fail_lists_violations(capsys, tmp_path):
    doc = {
        "kind": "graph",
        "universe": ["a"],
        "relations": {"E": {"arity": 2, "tuples": [["a", "a"]]}},
    }
    code, out, _ = run(capsys, "validate", write_json(tmp_path, "loop.json", doc))
    assert code == 1
    assert "graph axioms: FAIL" in out
    assert "a" in out.splitlines()[-1]


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "chain2.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_solve_text_and_exit_codes(capsys, tmp_path):
    system = write_json(tmp_path, "sys.json", base_system_doc(rel("E", "a")))
    code, out, _ = run(capsys, "solve", str(FIXTURES / "triangle.json"), system)
    assert code == 0
    assert "x=b" in out and "x=c" in out and "solutions: 2" in out


def test_solve_inconsistent_prints_core(capsys, tmp_path):
    system = write_json(
        tmp_path,
        "sys.json",
        base_system_doc(rel("E", "a"), {"eq": [{"var": "x"}, {"const": "a"}]}),
    )
    code, out, _ = run(capsys, "solve", str(FIXTURES / "triangle.json"), system)
    assert code == 1
    assert "solutions: 0" in out
    assert "minimal inconsistent core:" in out

    code, out, _ = run(capsys, "solve", str(FIXTURES / "triangle.json"), system, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["solutions"] == [] and len(doc["minimal_core"]) == 2


def test_solve_core_keeps_one_copy_of_a_repeated_equation(capsys, tmp_path):
    x_is_a = {"eq": [{"var": "x"}, {"const": "a"}]}
    system = write_json(tmp_path, "sys.json", base_system_doc(x_is_a, x_is_a, rel("E", "a")))
    code, out, _ = run(capsys, "solve", str(FIXTURES / "triangle.json"), system, "--format", "json")
    assert code == 1
    assert json.loads(out)["minimal_core"] == [x_is_a, rel("E", "a")]


def test_project_demo(capsys):
    code, out, _ = run(
        capsys,
        "project",
        str(FIXTURES / "triangle.json"),
        str(FIXTURES / "staircase_demo.json"),
        "--coordinate",
        "0",
    )
    assert code == 0
    assert "coordinate 0: 2 distinct equations" in out
    assert "E(x, a)" in out and "E(x, b)" in out


def test_project_far_coordinate_reads_its_residue(capsys):
    def project(coordinate):
        return run(
            capsys,
            "project",
            str(FIXTURES / "triangle.json"),
            str(FIXTURES / "staircase_demo.json"),
            "--coordinate",
            coordinate,
        )

    code, far, _ = project("1000000000000")  # stabilization 1, period 2: read at coordinate 2
    _, near, _ = project("2")
    assert code == 0
    assert far == near.replace("coordinate 2:", "coordinate 1000000000000:")


def test_project_rejects_negative_coordinate(capsys):
    code, _, err = run(
        capsys,
        "project",
        str(FIXTURES / "triangle.json"),
        str(FIXTURES / "staircase_demo.json"),
        "--coordinate",
        "-1",
    )
    assert code == 2
    assert "coordinate" in err


def test_consistent_positive(capsys):
    code, out, _ = run(
        capsys, "consistent", str(FIXTURES / "triangle.json"), str(FIXTURES / "staircase_demo.json")
    )
    assert code == 0
    assert "consistent" in out


def test_consistent_negative_certificate(capsys, tmp_path):
    system = {
        "variables": ["x"],
        "equations": [
            {"eq": [{"var": "x"}, {"const": {"prefix": ["a", "a", "b"], "cycle": ["a"]}}]},
            {"eq": [{"var": "x"}, {"const": {"prefix": [], "cycle": ["a"]}}]},
        ],
    }
    path = write_json(tmp_path, "planted.json", system)
    code, out, _ = run(capsys, "consistent", str(FIXTURES / "triangle.json"), path)
    assert code == 1
    assert "inconsistent at coordinate 2" in out
    assert "minimal core:" in out and "explicit" in out

    code, out, _ = run(capsys, "consistent", str(FIXTURES / "triangle.json"), path, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["certificate"]["coordinate"] == 2
    assert len(doc["certificate"]["lifted"]) == len(doc["certificate"]["sources"])


def test_consistent_rejects_an_unknown_label_past_the_failing_coordinate(capsys, tmp_path):
    """Every atom of the horizon is classified, also after the first coordinate without a solution."""
    system = {
        "variables": ["x"],
        "equations": [
            {"eq": [{"var": "x"}, {"const": {"prefix": ["a"], "cycle": ["b"]}}]},
            {"eq": [{"var": "x"}, {"const": {"prefix": ["b", "b", "b"], "cycle": ["z"]}}]},
        ],
    }
    path = write_json(tmp_path, "late_label.json", system)
    code, out, err = run(capsys, "consistent", str(FIXTURES / "triangle.json"), path)
    assert code == 2
    assert out == ""
    assert "error: constant 'z' is not a universe element" in err


@pytest.mark.parametrize("command", ["solve", "consistent", "wrap"])
def test_a_space_past_the_cylinder_budget_is_an_input_error(command, tmp_path):
    """A 39-edge path over 40 variables asks for 3^40 bits a mask: exit 2 with the estimate, never a traceback.

    Exit 1 is "no solution" for solve and "inconsistent" for consistent, so
    a MemoryError there would read as an answer.
    """
    xs = [f"x{i}" for i in range(40)]
    doc = {"variables": xs, "equations": [{"rel": "E", "args": [{"var": a}, {"var": b}]} for a, b in zip(xs, xs[1:])]}
    path = write_json(tmp_path, "path40.json", doc)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "eqpower", command, str(FIXTURES / "triangle.json"), path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: 40 variables over 3 elements give 3^40 = 12,157,665,459,056,928,801")
    assert "MB, over the 1,024 MB limit" in proc.stderr and "Traceback" not in proc.stderr


def test_noetherian_exit_codes(capsys):
    code, out, _ = run(capsys, "noetherian", str(FIXTURES / "triangle.json"))
    assert code == 1
    assert "status: NOT_NOETHERIAN" in out and "certificate (quadruple):" in out

    code, out, _ = run(capsys, "noetherian", str(FIXTURES / "star3.json"))
    assert code == 0
    assert "status: NOETHERIAN" in out

    code, out, _ = run(capsys, "noetherian", str(FIXTURES / "antichain3.json"))
    assert code == 0
    assert "status: NOETHERIAN" in out and "note:" in out


def test_noetherian_rejects_generic_kind(capsys, tmp_path):
    doc = {
        "kind": "generic",
        "universe": ["a"],
        "relations": {"R": {"arity": 1, "tuples": [["a"]]}},
    }
    code, _, err = run(capsys, "noetherian", write_json(tmp_path, "generic.json", doc))
    assert code == 2
    assert "graph, poset, or matroid" in err


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", str(FIXTURES / "triangle.json"), "--depth", "3")
    assert code == 0
    assert "certificate (quadruple):" in out
    assert "first violated member 4" in out
    assert "witness verified to depth 3: yes" in out


def test_witness_text_prints_each_point_as_the_point_itself_prints(capsys):
    """Every `depth n:` line's point is str(witness_point(n)[0]), at depths 1..50 on every refuted fixture.

    The lines are written from the witness rule without building the point.
    Quadruples switch at n - 1, so their depth-1 point is the tail alone;
    a rule whose repeat equals its tail prints as that constant stream.
    """
    refuted = 0
    for name, (kind, structure) in sorted(support.fixture_structures().items()):
        verdict = power_noetherian(structure, kind)
        if verdict.certificate is None:
            continue
        refuted += 1
        package = build_witness_family(structure, kind, verdict.certificate)
        code, out, _ = run(capsys, "witness", str(FIXTURES / f"{name}.json"), "--depth", "50")
        assert code == 0
        points = [line.split(" point ")[1].split(" solves ")[0] for line in out.splitlines() if "  depth " in line]
        assert points == [str(package.witness_point(n)[0]) for n in range(1, 51)], name
        assert (package.witness_rule[2] == -1) == (points[0] == f"[({package.witness_rule[1]})]")
    assert refuted >= 5
    constant = WitnessPackage("graph", ("a", "b", "a", "c"))  # repeat a, tail a
    assert [_render_witness_point(constant, n) for n in (1, 2, 5)] == ["[(a)]"] * 3
    assert all(_render_witness_point(constant, n) == str(constant.witness_point(n)[0]) for n in (1, 2, 5))


def test_witness_json(capsys):
    code, out, _ = run(
        capsys, "witness", str(FIXTURES / "chain2.json"), "--depth", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert [c["n"] for c in doc["checked_members"]] == [1, 2, 3, 4]
    assert doc["checked_members"][0]["first_violated_member"] == 3


def test_witness_without_refutation(capsys):
    code, out, _ = run(capsys, "witness", str(FIXTURES / "star3.json"))
    assert code == 1
    assert "no witness family to build" in out


def test_witness_rejects_bad_depth(capsys):
    code, _, err = run(capsys, "witness", str(FIXTURES / "triangle.json"), "--depth", "0")
    assert code == 2
    assert "depth" in err


def test_wrap_builtin_example(capsys):
    code, out, _ = run(capsys, "wrap", "--paper-example-1")
    assert code == 0
    assert "projected-equation classes: 3 (stabilization 1, period 2)" in out
    assert "seed equations: 1" in out
    assert "wrapped system: 4 equations" in out
    assert "E(x, [b,c,(a)])" in out
    assert "E(x, [(a)])" in out
    assert "E(x, [b,c,(b,a)])" in out
    assert "E(x, [b,(c,a)])" in out
    assert "verified equivalent per coordinate: yes" in out
    assert "size bounds respected: yes" in out


def test_wrap_from_files_matches_builtin(capsys):
    code, out, _ = run(
        capsys, "wrap", str(FIXTURES / "triangle.json"), str(FIXTURES / "staircase_demo.json")
    )
    assert code == 0
    assert "wrapped system: 4 equations" in out


def test_wrap_json_format(capsys):
    code, out, _ = run(capsys, "wrap", "--paper-example-1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True and doc["bound_ok"] is True
    assert len(doc["wrapped"]["equations"]) == 4
    assert len(doc["trace"]["representatives"]) == 3


def test_wrap_argument_conflicts(capsys):
    code, _, err = run(
        capsys,
        "wrap",
        str(FIXTURES / "triangle.json"),
        str(FIXTURES / "staircase_demo.json"),
        "--paper-example-1",
    )
    assert code == 2
    assert "replaces" in err

    code, _, err = run(capsys, "wrap")
    assert code == 2
    assert "structure file" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "graph",')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1 column" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in err


def test_too_deeply_nested_json_names_the_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")


def test_non_utf8_file_names_the_file(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"variables": ["x"],\r\n"equations": [,]}\r\n', "line 2 column 15: Expecting value"),
        (b'{"variables": ["x"],\r"equations": [,]}\r', "line 2 column 15: Expecting value"),
        (b'{"variables": ["x"],\r\n"equations": [,]\r}\n', "line 2 column 15: Expecting value"),
        (b'\xff{"variables": []}', "not UTF-8 text: invalid start byte at byte 0"),
        (b"[" + b'"a", ' * 4000 + b'"\xe9\xff"]', "not UTF-8 text: invalid continuation byte at byte 20002"),
    ],
    ids=["crlf", "lone-cr", "mixed-newlines", "not-utf8", "not-utf8-deep"],
)
def test_unreadable_input_reads_as_a_universal_newline_text_read(capsys, tmp_path, data, message):
    """Line ends and decode errors report as a text-mode read with universal newlines reported them.

    A lone CR ends a line, as a CR LF pair does: without that, the lone-CR
    file would report line 1 column 36.  A byte that is not UTF-8 is
    named by its offset in the file, also past the first 20,000 bytes.
    """
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert run(capsys, "consistent", str(FIXTURES / "triangle.json"), str(path)) == (2, "", f"error: {path}: {message}\n")


def test_a_missing_path_and_a_directory_name_the_os_error(capsys, tmp_path):
    missing, folder = tmp_path / "missing.json", tmp_path / "folder"
    folder.mkdir()
    for path, reason in ((missing, "No such file or directory"), (folder, "Is a directory")):
        code, out, err = run(capsys, "consistent", str(FIXTURES / "triangle.json"), str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {reason}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_crlf_copy_of_an_input_prints_what_the_lf_file_prints(capsys, tmp_path, fmt):
    planted = FIXTURES / "planted_inconsistent.json"
    assert b"\r" not in planted.read_bytes()
    crlf = tmp_path / "planted_crlf.json"
    crlf.write_bytes(planted.read_bytes().replace(b"\n", b"\r\n"))
    triangle = str(FIXTURES / "triangle.json")
    expected = run(capsys, "consistent", triangle, str(planted), "--format", fmt)
    assert expected[0] == 1 and expected[1]
    assert run(capsys, "consistent", triangle, str(crlf), "--format", fmt) == expected


def test_wrong_document_shape(capsys, tmp_path):
    path = write_json(tmp_path, "notastructure.json", {"variables": [], "equations": []})
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err


def test_equality_is_reserved_in_input_files(capsys, tmp_path):
    """A structure cannot declare "=", and a system writes equality only as {"eq": ...}."""
    structure = {"kind": "generic", "universe": ["a"], "relations": {"=": {"arity": 2, "tuples": [["a", "a"]]}}}
    code, out, err = run(capsys, "validate", write_json(tmp_path, "declares_equality.json", structure))
    assert (code, out) == (2, "")
    assert "'=' is reserved for equality" in err

    system = write_json(tmp_path, "rel_equality.json", base_system_doc(rel("=", "a")))
    code, out, err = run(capsys, "solve", str(FIXTURES / "triangle.json"), system)
    assert (code, out) == (2, "")
    assert 'equality is written {"eq": [lhs, rhs]}' in err


def test_decoding_errors_name_the_file(capsys, tmp_path):
    structure = {"kind": "generic", "universe": ["a"], "relations": {"P": {"arity": True, "tuples": [["a"]]}}}
    path = write_json(tmp_path, "bool_arity.json", structure)
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")

    path = write_json(tmp_path, "duplicate_variables.json", {"variables": ["x", "x"], "equations": []})
    code, out, err = run(capsys, "solve", str(FIXTURES / "triangle.json"), path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")


def test_usage_error_exit_code(capsys):
    assert main(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_second_call_builds_no_parser(capsys, monkeypatch):
    triangle = str(FIXTURES / "triangle.json")
    run(capsys, "validate", triangle)
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, out, _ = run(capsys, "validate", triangle)
    assert (code, built) == (0, [])
    assert "graph axioms: PASS" in out


def test_no_value_carries_over_between_calls(capsys):
    triangle = str(FIXTURES / "triangle.json")
    code, out, _ = run(capsys, "witness", triangle, "--depth", "2")
    assert code == 0 and out.count("  depth ") == 2
    code, out, _ = run(capsys, "witness", triangle)
    assert code == 0 and out.count("  depth ") == 10

    code, out, _ = run(capsys, "noetherian", triangle, "--format", "json")
    assert json.loads(out)["status"] == "NOT_NOETHERIAN"
    code, out, _ = run(capsys, "noetherian", triangle)
    assert out.startswith("status: NOT_NOETHERIAN\n")

    code, out, _ = run(capsys, "wrap", "--paper-example-1")
    assert code == 0
    code, out, err = run(capsys, "wrap", triangle, str(FIXTURES / "staircase_demo.json"))
    assert (code, err) == (0, "")
    assert "wrapped system: 4 equations" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", str(FIXTURES / "cycle5.json"), "--depth", "300", "--format", "json"],  # fails while printing
        ["wrap", "--paper-example-1"],  # fits the buffer, so fails only when flushed
    ],
    ids=["witness", "wrap"],
)
def test_closed_stdout_exits_141_quietly(argv):
    """A reader gone before any output is written gives exit 141 (128 + SIGPIPE) and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eqpower", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (141, "")


# strings over ASCII, quotes, backslashes, control characters, non-ASCII, astral code points and a lone surrogate
json_strings = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f/é\u2028\U0001f600\ud800'))
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 1e300, -1e-300, 0.1])
    | json_strings
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200)
@given(json_documents)
def test_json_writer_matches_json_dumps_indent_2(doc):
    """The CLI's writer gives json.dumps(doc, indent=2) byte for byte, nested empty containers and tuples too."""
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [{"a": [[], {}, ()]}, [{}], {"": {"": []}}, float("nan"), [float("-inf")]],
    ids=["empties", "empty-dict-in-list", "empty-keys", "nan", "negative-infinity"],
)
def test_json_writer_matches_json_dumps_on_edge_documents(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [{"a": {1, 2}}, [object()], {"a": [b"bytes"]}], ids=["set", "object", "bytes"]
)
def test_json_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as refused:
        _json_text(doc)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize(
    "key",
    [1, 2.5, True, None, ("tuple", "key"), frozenset()],
    ids=["int-key", "float-key", "bool-key", "none-key", "tuple-key", "frozenset-key"],
)
def test_json_writer_refuses_a_non_string_key(key):
    """Every key a command writes is a string; the writer refuses any other, even where json.dumps would quote it."""
    with pytest.raises(TypeError):
        _json_text({"a": [{"b": 0, key: 1}]})
