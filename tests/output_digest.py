"""Digests of what the CLI prints on every benchmark workload job, to compare two trees.

Run from anywhere:

    python tests/output_digest.py

Every job of the three workloads in bench/workloads.py, at seeds 1 and 7, is
generated into a temporary directory and run in process through
eqpower.cli.main twice: as written (JSON) and with "--format json" dropped
(text).  Per workload and format the script prints the job count and a
SHA-256 over repr((exit code, stdout, stderr)) in job order; for JSON also a
SHA-256 over each stdout's decoded value, json.dumps(json.loads(stdout)), so
two trees that print the same values in different layouts give the same
value digest.  The temporary directory is written as "<workdir>" before
hashing, so no path enters a digest.

The exit status is 1 when a job's exit code differs from the one the
generator expects or a JSON stdout does not decode, and 0 otherwise.  It
imports eqpower from src/ next to this directory, loads the workload
generator by path and writes no bytecode, so bench/ is left as it was.
Pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eqpower import cli  # noqa: E402

SEEDS = (1, 7)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads imports oracle by name
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str], workdir: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().replace(workdir, "<workdir>"), err.getvalue().replace(workdir, "<workdir>")


def _text_argv(argv: list[str]) -> list[str]:
    i = argv.index("--format")
    assert argv[i + 1] == "json", argv
    return argv[:i] + argv[i + 2 :]


def main() -> int:
    _load("oracle")
    workloads = _load("workloads")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(workloads.GENERATORS):
            jobs = []
            for seed in SEEDS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                jobs += [job for rnd in workloads.generate(workload, seed, workdir) for job in rnd]
            digests = {"json": hashlib.sha256(), "json value": hashlib.sha256(), "text": hashlib.sha256()}
            for job in jobs:
                for fmt, argv in (("json", list(job.argv)), ("text", _text_argv(job.argv))):
                    code, out, err = _run(argv, tmp)
                    digests[fmt].update(repr((code, out, err)).encode())
                    if code != job.expect_exit:
                        failures += 1
                        print(f"{workload} {fmt} exit {code}, expected {job.expect_exit}: {argv}", file=sys.stderr)
                    if fmt == "json":
                        try:
                            value = json.dumps(json.loads(out))
                        except ValueError:
                            failures += 1
                            print(f"{workload} json stdout does not decode: {argv}", file=sys.stderr)
                            value = out
                        digests["json value"].update((value + "\n").encode())
            for fmt, digest in digests.items():
                print(f"{workload} {fmt}: {len(jobs)} jobs sha256 {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
