"""Command line front end.

Subcommands mirror the library: validate structures, solve finite systems,
project and compress systems over direct powers, decide the Noetherian
property, and expand refutation certificates into verified witness families.

Exit codes: 0 for a passing result, 1 for a negative result (axiom violations,
inconsistency, NOT_NOETHERIAN, failed verification), 2 for unusable input, 141
(128 + SIGPIPE, as a shell reports it) when stdout closes before all is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .errors import InputFormatError, UnboundVariableError
from .fixtures import staircase_demo_system, triangle_graph
from .noetherian import build_witness_family, first_violated_members, power_noetherian
from .power import (
    consistent,
    power_equation_to_json_dict,
    power_system_from_json_dict,
    projected_system,
)
from .solver import (
    Equation,
    Var,
    check_equation,
    equation_to_json_dict,
    minimal_inconsistent_subset,
    solve,
    system_from_json_dict,
    system_to_json_dict,
)
from .structures import EQUALITY, structure_from_json_dict, validate
from .wrap import wrap, wrap_result_to_json_dict


class CliInputError(Exception):
    """Input that cannot be used; reported on stderr with exit code 2."""


def _load(path: str, decode: Callable[[Any], Any]) -> Any:
    """Read a JSON file and decode it; unusable input becomes a CliInputError naming the file.

    The file is read as bytes and decoded from UTF-8 in one call, which
    costs less than a text-mode read.  A text that holds a carriage return
    has each CR LF pair, and then each lone CR, replaced by LF: that is the
    universal-newline text Path.read_text(encoding="utf-8") gives, so JSON
    error lines and columns, decode-error byte offsets and OSError texts
    read as they did from a text-mode read.
    """
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise CliInputError(f"{path}: JSON nested too deeply to decode") from None
    except InputFormatError as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _render_arg(arg) -> str:
    return arg.name if isinstance(arg, Var) else str(arg.value)


def _render_equation(eq: Equation) -> str:
    if eq.symbol == EQUALITY:
        return " = ".join(map(_render_arg, eq.args))
    return f"{eq.symbol}({', '.join(map(_render_arg, eq.args))})"


def _render_family(fam) -> str:
    return f"{_render_equation(fam.atom)} for every member n >= 1"


def _render_witness_point(package, n: int) -> str:
    """str(package.witness_point(n)[0]), written from the witness rule with no point built.

    The point is n + offset repeats, then the tail forever; its canonical
    form drops the repeats only when they equal the tail.
    """
    repeat, tail, offset = package.witness_rule
    body = "" if repeat == tail else f"{repeat}," * (n + offset)
    return f"[{body}({tail})]"


def _render_source(ref) -> str:
    if ref.member is None:
        return f"explicit {ref.index}"
    return f"family {ref.index} member {ref.member}"


def _json_text(doc: Any) -> str:
    """The text of json.dumps(doc, indent=2), written by one recursive pass into one list.

    With indent set, json.dumps runs the stdlib's pure-Python encoder.  This
    writer makes the same choices in the same order: strings and keys by
    encode_basestring_ascii, None, True, False, ints by int.__repr__,
    tuples as lists, "[]" and "{}" for empty containers, and every other
    value (floats, and what JSON cannot hold) by json.dumps itself, which
    raises the same TypeError.  Keys must be strings, as in every document
    a command writes; encode_basestring_ascii raises TypeError for any other.
    """
    out: list[str] = []
    write = out.append

    def value(v: Any, pad: str) -> None:  # pad: a newline and the current indent
        if isinstance(v, str):
            write(encode_basestring_ascii(v))
        elif v is None:
            write("null")
        elif v is True:
            write("true")
        elif v is False:
            write("false")
        elif isinstance(v, int):
            write(int.__repr__(v))
        elif isinstance(v, (list, tuple, dict)):
            if not v:
                write("{}" if isinstance(v, dict) else "[]")
                return
            inner = pad + "  "
            if isinstance(v, dict):
                sep = "{" + inner
                for key, item in v.items():
                    write(sep + encode_basestring_ascii(key) + ": ")
                    value(item, inner)
                    sep = "," + inner
                write(pad + "}")
            else:
                sep = "[" + inner
                for item in v:
                    write(sep)
                    value(item, inner)
                    sep = "," + inner
                write(pad + "]")
        else:
            write(json.dumps(v))

    value(doc, "\n")
    return "".join(out)


def _print_json(doc: Any) -> None:
    print(_json_text(doc))


def cmd_validate(args: argparse.Namespace) -> int:
    kind, structure = _load(args.structure, structure_from_json_dict)
    report = validate(structure, kind)
    if args.format == "json":
        _print_json(report.to_json_dict())
    elif report.passed:
        print(f"{kind} axioms: PASS ({structure.size} elements)")
    else:
        print(f"{kind} axioms: FAIL")
        for axiom, witness in report.violations:
            print(f"  {axiom}: {', '.join(witness)}")
    return 0 if report.passed else 1


def cmd_solve(args: argparse.Namespace) -> int:
    _, structure = _load(args.structure, structure_from_json_dict)
    system = _load(args.system, system_from_json_dict)
    result = solve(structure, system)
    core = minimal_inconsistent_subset(structure, system).equations if result.is_empty else None
    if args.format == "json":
        doc = {
            "variables": list(system.variables),
            "solutions": [list(p) for p in result.sorted_points()],
            "count": len(result.points),
        }
        if core is not None:
            doc["minimal_core"] = [equation_to_json_dict(eq) for eq in core]
        _print_json(doc)
    else:
        for point in result.sorted_points():
            print(", ".join(f"{v}={x}" for v, x in zip(system.variables, point)))
        print(f"solutions: {len(result.points)}")
        if core is not None:
            print("minimal inconsistent core:")
            for eq in core:
                print(f"  {_render_equation(eq)}")
    return 0 if result.points else 1


def cmd_project(args: argparse.Namespace) -> int:
    _, structure = _load(args.structure, structure_from_json_dict)
    system = _load(args.system, power_system_from_json_dict)
    if args.coordinate < 0:
        raise CliInputError("coordinate must be >= 0")
    projected = projected_system(system, args.coordinate)
    for eq in projected.equations:  # surfaces symbol and arity mismatches early
        check_equation(structure, projected.variables, eq)
    if args.format == "json":
        _print_json(system_to_json_dict(projected))
    else:
        print(f"coordinate {args.coordinate}: {len(projected.equations)} distinct equations")
        for eq in projected.equations:
            print(f"  {_render_equation(eq)}")
    return 0


def cmd_consistent(args: argparse.Namespace) -> int:
    _, structure = _load(args.structure, structure_from_json_dict)
    system = _load(args.system, power_system_from_json_dict)
    verdict = consistent(structure, system)
    if args.format == "json":
        doc: dict[str, Any] = {"consistent": verdict.consistent}
        if verdict.certificate is not None:
            cert = verdict.certificate
            doc["certificate"] = {
                "coordinate": cert.coordinate,
                "core": system_to_json_dict(cert.core),
                "sources": [ref.to_json_dict() for ref in cert.sources],
                "lifted": [power_equation_to_json_dict(eq) for eq in cert.lifted],
            }
        _print_json(doc)
    elif verdict.consistent:
        print("consistent: every coordinate projection has a solution")
    else:
        cert = verdict.certificate
        print(f"inconsistent at coordinate {cert.coordinate}")
        print("minimal core:")
        for eq, ref in zip(cert.core.equations, cert.sources):
            print(f"  {_render_equation(eq)}    [{_render_source(ref)}]")
        print("finite inconsistent subsystem over the power:")
        for eq in cert.lifted:
            print(f"  {_render_equation(eq)}")
    return 0 if verdict.consistent else 1


def cmd_noetherian(args: argparse.Namespace) -> int:
    kind, structure = _load(args.structure, structure_from_json_dict)
    if kind == "generic":
        raise CliInputError("noetherian verdicts need kind graph, poset, or matroid")
    verdict = power_noetherian(structure, kind)
    if args.format == "json":
        _print_json(verdict.to_json_dict())
    else:
        print(f"status: {verdict.status}")
        if verdict.certificate is not None:
            print(f"certificate ({verdict.certificate_kind}): {', '.join(verdict.certificate)}")
        if verdict.transcript:
            print(f"note: {verdict.transcript}")
    return 0 if verdict.certificate is None else 1


def cmd_witness(args: argparse.Namespace) -> int:
    kind, structure = _load(args.structure, structure_from_json_dict)
    if kind == "generic":
        raise CliInputError("witness families need kind graph, poset, or matroid")
    if args.depth < 1:
        raise CliInputError("depth must be >= 1")
    verdict = power_noetherian(structure, kind)
    if verdict.certificate is None:
        if args.format == "json":
            _print_json({"status": verdict.status, "witness": None})
        else:
            print(f"status: {verdict.status}; no witness family to build")
        return 1
    package = build_witness_family(structure, kind, verdict.certificate)
    firsts = dict(enumerate(first_violated_members(structure, package, args.depth), start=1))
    all_ok = None not in firsts.values()
    if args.format == "json":
        _print_json(
            {
                "status": verdict.status,
                "witness": package.to_json_dict(),
                "checked_members": [
                    {"n": n, "ok": first is not None, "first_violated_member": first}
                    for n, first in firsts.items()
                ],
                "all_ok": all_ok,
            }
        )
    else:
        print(f"certificate ({package.certificate_kind}): {', '.join(package.certificate)}")
        print(f"family: {_render_family(package.family)}")
        for n, first in firsts.items():
            point = _render_witness_point(package, n)
            status = "ok" if first is not None else "FAILED"
            tail = f", first violated member {first}" if first is not None else ""
            print(f"  depth {n}: point {point} solves members 1..{n} but not the family: {status}{tail}")
        print(f"witness verified to depth {args.depth}: {'yes' if all_ok else 'NO'}")
    return 0 if all_ok else 1


def cmd_wrap(args: argparse.Namespace) -> int:
    if args.paper_example_1:
        if args.structure or args.system:
            raise CliInputError("--paper-example-1 replaces the structure and system arguments")
        structure = triangle_graph()
        system = staircase_demo_system()
    else:
        if not args.structure or not args.system:
            raise CliInputError("wrap needs a structure file and a system file (or --paper-example-1)")
        _, structure = _load(args.structure, structure_from_json_dict)
        system = _load(args.system, power_system_from_json_dict)
    result = wrap(structure, system)
    if args.format == "json":
        _print_json(wrap_result_to_json_dict(result))
    else:
        trace = result.trace
        print(
            f"projected-equation classes: {len(trace.representatives)}"
            f" (stabilization {trace.stabilization}, period {trace.period})"
        )
        for rep in trace.representatives:
            print(
                f"  {_render_equation(rep.representative)}"
                f"    [coordinate {rep.coordinate}, {_render_source(rep.source)}]"
            )
        print(f"seed equations: {len(trace.seeds)}")
        for eq in trace.seeds:
            print(f"  {_render_equation(eq)}")
        print(f"wrapped system: {len(result.wrapped.explicit)} equations")
        for eq in result.wrapped.explicit:
            print(f"  {_render_equation(eq)}")
        print(f"verified equivalent per coordinate: {'yes' if result.verified else 'NO'}")
        print(f"size bounds respected: {'yes' if result.bound_ok else 'NO'}")
        print(f"(original horizon: stabilization {trace.stabilization}, period {trace.period})")
    return 0 if result.verified and result.bound_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="eqpower",
        description="Equation systems over direct powers of finite structures: "
        "solve, compress, and decide the Noetherian property.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check the axioms for a structure's declared kind")
    p.add_argument("structure", help="structure JSON file")
    add_format(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("solve", help="solve a finite equation system over a structure")
    p.add_argument("structure")
    p.add_argument("system", help="finite system JSON file")
    add_format(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("project", help="project a power system onto one coordinate")
    p.add_argument("structure")
    p.add_argument("system", help="power system JSON file")
    p.add_argument("--coordinate", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("consistent", help="decide whether a power system has a solution")
    p.add_argument("structure")
    p.add_argument("system", help="power system JSON file")
    add_format(p)
    p.set_defaults(handler=cmd_consistent)

    p = sub.add_parser("noetherian", help="decide the Noetherian property for a direct power")
    p.add_argument("structure")
    add_format(p)
    p.set_defaults(handler=cmd_noetherian)

    p = sub.add_parser("witness", help="expand a refutation certificate into a verified family")
    p.add_argument("structure")
    p.add_argument("--depth", type=int, default=10, help="verify members up to this index")
    add_format(p)
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("wrap", help="compress a staircase system into a finite equivalent")
    p.add_argument("structure", nargs="?")
    p.add_argument("system", nargs="?", help="power system JSON file")
    p.add_argument(
        "--paper-example-1",
        action="store_true",
        help="run the built-in triangle staircase example instead of reading files",
    )
    add_format(p)
    p.set_defaults(handler=cmd_wrap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away; stdout now goes to devnull, so the exit-time flush succeeds
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (CliInputError, ValueError, UnboundVariableError, KeyError) as exc:
        # ValueError covers InputFormatError, SignatureMismatchError and InvalidCertificateError;
        # str() of a KeyError quotes its message, so the message is printed as given
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
