"""Checks on the benchmark itself: seeded inputs, exact counts, the oracle.

    python3 -m pytest -q bench/test_bench.py

Takes about two minutes: it traces one round of every workload in process
and runs the traced benchmark twice per workload in fresh interpreters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path):
    workloads.generate(workload, 7, tmp_path / "a", rounds=2)
    workloads.generate(workload, 7, tmp_path / "b", rounds=2)
    workloads.generate(workload, 8, tmp_path / "c", rounds=2)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass over round 0 of every workload, judged by the oracle."""
    out = {}
    for workload in WORKLOADS:
        rounds = run.setup(workload, 3, tmp_path_factory.mktemp(workload))[0]
        tracer = Tracer()
        runs = run.trace_pass(rounds[0], tracer)
        run.judge(runs)
        out[workload] = (runs, tracer)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_answers_pass_the_oracle(traced, workload):
    runs, tracer = traced[workload]
    assert [r["problems"] for r in runs] == [[] for _ in runs]
    assert tracer.missing == []


def test_wrap_verify_scans_stab_plus_two_periods(traced):
    runs, tracer = traced["wrap-horizon"]
    for i, r in enumerate(runs):
        stab, period = r["facts"]["joint_horizon"]
        assert tracer.per_job[i]["wrap.verify.coords"] == stab + 2 * period


def test_classified_atoms_times_kn_is_evaluate_calls(traced):
    runs, tracer = traced["solve-wide"]
    for i, r in enumerate(runs):
        assert tracer.per_job[i]["solver.classify.assignments"] > 0
    assert tracer.values["solver.classify.assignments"] == tracer.count("solver.evaluate")
    per_job_atoms = [tracer.per_job[i]["solver.classify.atoms"] for i in range(len(runs))]
    assert sum(per_job_atoms) == tracer.values["solver.classify.atoms"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_isolates_its_layer(traced, workload):
    _, tracer = traced[workload]
    for name, share, op, limit in run.isolation(workload, tracer):
        assert (share >= limit) if op == ">=" else (share <= limit), (name, share)


def _mutations(workload: str, doc: dict):
    if workload == "wrap-horizon":
        bad = json.loads(json.dumps(doc))
        bad["wrapped"]["equations"] = bad["wrapped"]["equations"][:1]
        yield bad
        bad = json.loads(json.dumps(doc))
        bad["trace"]["period"] += 1
        yield bad
    elif workload == "solve-wide":
        yield {"consistent": not doc["consistent"]}
        if not doc["consistent"]:
            bad = json.loads(json.dumps(doc))
            bad["certificate"]["coordinate"] += 1
            yield bad
            bad = json.loads(json.dumps(doc))
            bad["certificate"]["core"]["equations"].pop()
            yield bad
    else:
        for field, delta in (("first_violated_member", 1), ("n", 1)):
            bad = json.loads(json.dumps(doc))
            bad["checked_members"][-1][field] += delta
            yield bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_rejects_wrong_answers(traced, workload):
    runs, _ = traced[workload]
    checked = 0
    for r in runs:
        job = r["job"]
        assert oracle.check(job, r["exit"], r["stdout"], None)[0] == []
        assert oracle.check(job, 1 - job.expect_exit, r["stdout"], None)[0] != []
        for bad in _mutations(workload, json.loads(r["stdout"])):
            assert oracle.check(job, r["exit"], json.dumps(bad), None)[0] != [], (job.slot, bad)
            checked += 1
    assert checked >= len(runs)


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())[kind]]


def test_untraced_metrics_are_the_declared_end_to_end_ones(traced):
    runs, _ = traced["witness-deep"]
    metrics = run.end_to_end(runs, [0.1, 0.2, 0.3], 20.0)
    assert sorted(metrics) == sorted(_declared("end_to_end"))
    assert all(m["value"] > 0 for m in metrics.values())


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "0"]
        + ["--trace", "1"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    assert sorted(doc["metrics"]) == sorted(_declared("per_layer"))
    return {k: m["value"] for k, m in doc["metrics"].items() if m["unit"] in ("count", "coords")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_processes(workload):
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert first == second
    assert any(first.values())
