"""Seeded benchmark of eqpower CLI jobs, run in process by one closed-loop client.

    python3 bench/run.py --workload wrap-horizon --seed 1 --seconds 20 --trace 0

Set-up imports eqpower from `src/` next to this directory and writes every
input file from the seed.  The untraced run (`--trace 0`) then runs whole
rounds of jobs, each job `eqpower.cli.main([..., "--format", "json"])` with
stdout captured, until `--seconds` have passed and at least `MIN_JOBS` jobs
are done.  The traced run (`--trace 1`) alternates an untraced and a traced
pass over round 0 for `--seconds`.  Every answer is then checked by the
independent oracle, outside the timed region.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics of the mode.

Times are normalised to the machine's current speed: a fixed pure-Python
reference task runs right before and right after every job, and a job's
seconds are scaled by REF_S / (reference seconds).  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 7
MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
MAX_TIMED_S = 120.0  # stop adding rounds past this even below MIN_JOBS
REF_S = 0.005  # normalised times read as on a machine where reference_work() takes 5 ms

import oracle  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def reference_work() -> int:
    """A fixed pure-Python task shaped like eqpower's inner loops: tuples, sets, dicts, objects."""
    seen: set = set()
    table: dict = {}
    for i in range(2500):
        row = tuple((i * k) % 31 for k in range(5))
        key = frozenset(row)
        if key not in seen:
            seen.add(key)
        table[row] = _Node(key, str(row[0]))
    return len(seen) + len(table)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def timed(fn):
    """Run fn between two reference tasks: (result, raw seconds, normalised seconds)."""
    before = reference_seconds()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    ref = (before + reference_seconds()) / 2
    return result, elapsed, elapsed * REF_S / ref


def import_eqpower():
    """A fresh import of eqpower.cli from the checkout's src/, never an installed copy."""
    for name in [m for m in sys.modules if m == "eqpower" or m.startswith("eqpower.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("eqpower.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"eqpower imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[list[workloads.Job]], list[float], list[float]]:
    """Import and generate SETUP_REPS times: the jobs, raw and normalised seconds per set-up."""

    def once():
        import_eqpower()
        return workloads.generate(workload, seed, workdir)

    raw, norm = [], []
    for _ in range(SETUP_REPS):
        rounds, elapsed, scaled = timed(once)
        raw.append(elapsed)
        norm.append(scaled)
    return rounds, raw, norm


def run_job(job: workloads.Job, tracer: Tracer | None = None, index: int = 0) -> dict:
    """One CLI call with stdout captured; only the call itself is timed."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["eqpower.cli"].main  # looked up per call so tracing wrappers apply

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(list(job.argv)), None
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return None, repr(exc)

    if tracer is not None:
        tracer.start_job(index)
    (code, error), elapsed, norm = timed(call)
    if tracer is not None:
        tracer.end_job()
    return {"job": job, "exit": code, "stdout": out.getvalue(), "error": error, "seconds": elapsed, "norm": norm}


def round_order(workload: str, seed: int, rnd: int, slots: int) -> list[int]:
    order = list(range(slots))
    random.Random(f"{workload}:{seed}:order:{rnd}").shuffle(order)
    return order


def timed_rounds(workload: str, seed: int, rounds, seconds: float) -> list[dict]:
    """Whole rounds, each in a seeded order, so every run measures the same mix of slots."""
    runs: list[dict] = []
    start = time.perf_counter()
    rnd = 0
    while True:
        jobs = rounds[rnd % len(rounds)]
        for slot in round_order(workload, seed, rnd, len(jobs)):
            runs.append(run_job(jobs[slot]))
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(runs) >= MIN_JOBS or elapsed >= MAX_TIMED_S):
            return runs


def trace_pass(jobs: list[workloads.Job], tracer: Tracer) -> list[dict]:
    tracer.install()
    try:
        return [run_job(job, tracer, i) for i, job in enumerate(jobs)]
    finally:
        tracer.uninstall()


def traced_passes(rounds, seconds: float) -> tuple[list[dict], list[tuple[Tracer, float]], list[float]]:
    """Alternate untraced and traced passes over round 0 until `seconds` have passed.

    Returns every run, each traced pass's tracer with the factor that
    normalises its times, and each pair's traced-over-untraced time.
    """
    jobs = rounds[0]
    runs, passes, ratios = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer = Tracer()
        if len(passes) % 2:  # alternate which pass runs first
            traced = trace_pass(jobs, tracer)
            plain = [run_job(job) for job in jobs]
        else:
            plain = [run_job(job) for job in jobs]
            traced = trace_pass(jobs, tracer)
        runs += plain + traced
        passes.append((tracer, statistics.median(r["norm"] / r["seconds"] for r in traced)))
        ratios.append(sum(r["norm"] for r in traced) / sum(r["norm"] for r in plain))
    return runs, passes, ratios


def judge(runs: list[dict]) -> None:
    """Attach oracle problems and facts to every run; equal answers share one check."""
    verdicts: dict[tuple, tuple] = {}
    for run in runs:
        job = run["job"]
        key = (job.round, job.slot, run["exit"], run["stdout"], run["error"])
        if key not in verdicts:
            verdicts[key] = oracle.check(job, run["exit"], run["stdout"], run["error"])
        run["problems"], run["facts"] = verdicts[key]


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[dict], setup_norm: list[float], rss_mb: float) -> dict:
    latencies = [r["norm"] for r in runs]
    correct = sum(1 for r in runs if not r["problems"])
    return {
        "setup_s": metric(statistics.median(setup_norm), "s"),
        "jobs_per_s": metric(correct / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": metric(quantile(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


# per-layer self times: metric name -> traced span or leaf name
SELF_TIMES = {
    "power.projection.self_s": "power.projection",
    "power.profile.self_s": "power.profile",
    "power.satisfies.self_s": "power.satisfies",
    "power.canonical.self_s": "power.canonical",
    "power.consistent.self_s": "power.consistent",
    "solver.classify.self_s": "solver.classify",
    "solver.core.self_s": "solver.core",
    "wrap.representatives.self_s": "wrap.representatives",
    "wrap.seeds.self_s": "wrap.seeds",
    "wrap.merge.self_s": "wrap.merge",
    "wrap.verify.self_s": "wrap.verify",
    "noetherian.verdict.self_s": "noetherian.verdict",
    "noetherian.build.self_s": "noetherian.build",
    "noetherian.verify_witness.self_s": "noetherian.verify_witness",
    "noetherian.first_violated.self_s": "noetherian.first_violated",
    "structures.validate.self_s": "structures.validate",
    "structures.load.self_s": "structures.load",
    "cli.self_s": "cli",
    "cli.decode.self_s": "cli.decode",
    "cli.encode.self_s": "cli.encode",
}


def pass_counts(tracer: Tracer) -> dict[str, int]:
    """The exact counts of one traced pass."""
    v = tracer.values

    def leaf_calls(name: str) -> int:
        return sum(c for (_, n), (c, _, _) in tracer.leaves.items() if n == name)

    return {
        "power.projection.calls": leaf_calls("power.projection"),
        "power.projection.members": tracer.count("power.member", "power.projection")
        + tracer.count("power.project", "power.projection"),
        "power.projection.entries": v["power.projection.entries"],
        "power.satisfies.calls": sum(1 for s in tracer.spans if s[1] == "power.satisfies"),
        "power.satisfies.coords": tracer.leaf_under("power.projection", "power.satisfies")[0],
        "power.canonical.calls": leaf_calls("power.canonical"),
        "power.consistent.coords": tracer.leaf_under("power.projection", "power.consistent")[0],
        "solver.classify.lookups": leaf_calls("solver.classify"),
        "solver.classify.atoms": v["solver.classify.atoms"],
        "solver.core.trials": v["solver.core.trials"],
        "solver.core.equations": v["solver.core.equations"],
        "solver.intersect.calls": tracer.count("solver.intersect"),
        "solver.evaluate.calls": tracer.count("solver.evaluate"),
        "wrap.candidates": v["wrap.candidates"],
        "wrap.verify.coords": v["wrap.verify.coords"],
        "wrap.output_equations": v["wrap.output_equations"],
        "noetherian.members_checked": v["noetherian.members_checked"],
    }


def isolation(workload: str, tracer: Tracer) -> list[tuple[str, float, str, float]]:
    """Shares of traced job time that show each workload isolates its layer."""
    own = tracer.self_times()
    total = tracer.job_time()
    classify = own["solver.classify"] / total
    if workload == "wrap-horizon":
        wrap_self = sum(t for name, t in own.items() if name.startswith("wrap."))
        return [
            ("power.projection + wrap.* self", (own["power.projection"] + wrap_self) / total, ">=", 0.5),
            ("solver.classify self", classify, "<=", 0.1),
        ]
    if workload == "solve-wide":
        return [("solver.classify self", classify, ">=", 0.5)]
    under = tracer.leaf_under("power.projection", "power.satisfies")[1]
    return [
        ("power.projection self under satisfies", under / total, ">=", 0.5),
        ("solver.classify self", classify, "<=", 0.1),
    ]


def per_layer(runs: list[dict], passes: list[tuple[Tracer, float]], ratios: list[float]) -> dict:
    """Counts from the first traced pass; normalised self times, median over passes."""
    first = passes[0][0]
    counts = pass_counts(first)
    scaled = [{name: t * scale for name, t in tracer.self_times().items()} for tracer, scale in passes]
    own = {m: statistics.median(p.get(name, 0.0) for p in scaled) for m, name in SELF_TIMES.items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {name: metric(value, "count") for name, value in counts.items()}
    out.update({name: metric(value, "s") for name, value in own.items()})
    # every pass runs the same jobs, so the mean over all runs is the mean per job
    horizon = statistics.mean(sum(r["facts"].get("horizon", (0, 0))) for r in runs)
    assignments = first.values["solver.classify.assignments"]
    out.update(
        {
            "power.projection.useful_ratio": metric(
                ratio(counts["power.projection.entries"], counts["power.projection.members"]), "ratio"
            ),
            "power.horizon": metric(horizon, "coords"),
            "solver.classify.useful_ratio": metric(
                ratio(first.values["solver.classify.distinct"], counts["solver.classify.atoms"]), "ratio"
            ),
            "solver.classify.us_per_assignment": metric(ratio(own["solver.classify.self_s"] * 1e6, assignments), "us"),
            "trace.overhead_ratio": metric(statistics.median(ratios), "ratio"),
        }
    )
    return out


def slot_table(runs: list[dict]) -> list[str]:
    """One line per job slot: generated sizes, achieved horizon, samples, median latency."""
    by_slot: dict[int, list[dict]] = {}
    for r in runs:
        by_slot.setdefault(r["job"].slot, []).append(r)
    lines = []
    for slot in sorted(by_slot):
        rs = by_slot[slot]
        sizes = " ".join(f"{k}={v}" for k, v in rs[0]["job"].sizes.items())
        achieved = sorted({tuple(r["facts"].get("horizon", ())) for r in rs})
        raw = statistics.median(r["seconds"] for r in rs) * 1000
        norm = statistics.median(r["norm"] for r in rs) * 1000
        lines.append(
            f"  slot {slot:2d}: {sizes}; achieved horizon {achieved}; jobs {len(rs)};"
            f" median {norm:.1f} ms normalised, {raw:.1f} ms raw"
        )
    return lines


def write_records(path: Path, runs: list[dict], tracers: list[Tracer]) -> None:
    """Every job with its sizes, oracle facts and times, plus every traced pass's spans."""
    doc = {
        "jobs": [
            {
                "round": r["job"].round,
                "slot": r["job"].slot,
                "argv": r["job"].argv,
                "sizes": r["job"].sizes,
                "facts": r["facts"],
                "exit": r["exit"],
                "seconds": r["seconds"],
                "normalised_seconds": r["norm"],
                "problems": r["problems"],
            }
            for r in runs
        ],
        "passes": [{"spans": t.span_records(), "missing": t.missing} for t in tracers],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqpower" / "__init__.py").is_file():
        print(f"error: no eqpower sources at {SRC}", file=sys.stderr)
        return 2
    workdir = BENCH / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    passes: list[tuple[Tracer, float]] = []
    try:
        rounds, setup_raw, setup_norm = setup(args.workload, args.seed, workdir)
        gc.collect()
        if args.trace:
            runs, passes, ratios = traced_passes(rounds, args.seconds)
        else:
            runs = timed_rounds(args.workload, args.seed, rounds, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        judge(runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in runs if r["problems"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(runs)} jobs")
    for line in slot_table(runs):
        print(line)
    for r in failed[:10]:
        print(f"  FAILED round {r['job'].round} slot {r['job'].slot}: {'; '.join(r['problems'])}")
    print(f"failed_ratio {len(failed) / len(runs):.4f} ({len(failed)} failed of {len(runs)} attempted)")
    ref_ms = statistics.median(r["seconds"] / r["norm"] for r in runs) * REF_S * 1000
    print(f"reference task: median {ref_ms:.2f} ms here; normalised times assume {REF_S * 1000:.0f} ms")
    if args.trace:
        metrics = per_layer(runs, passes, ratios)
        for name, share, op, limit in isolation(args.workload, passes[len(passes) // 2][0]):
            ok = share >= limit if op == ">=" else share <= limit
            print(f"isolation {name}: {share:.3f} of traced job time ({op} {limit}) {'PASS' if ok else 'FAIL'}")
        if passes[0][0].missing:
            print(f"untraced bindings (absent from the program): {', '.join(passes[0][0].missing)}")
    else:
        metrics = end_to_end(runs, setup_norm, rss_mb)
        raw = [r["seconds"] for r in runs]
        beyond = sum(1 for r in runs if r["norm"] * 1000 > metrics["latency_p90_ms"]["value"])
        print(
            f"latency samples {len(runs)}, {beyond} beyond p90; raw p50 {statistics.median(raw) * 1000:.1f} ms,"
            f" raw p90 {quantile(raw, 0.9) * 1000:.1f} ms, raw jobs/s {len(runs) / sum(raw):.3f},"
            f" raw set-up {statistics.median(setup_raw):.3f} s"
        )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    path = BENCH / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_records(path, runs, [tracer for tracer, _ in passes])
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
