"""Spans and counters around eqpower's layer functions, installed from outside.

`Tracer.install()` replaces each traced function under every module
attribute that binds it (for example `projection_entries` is bound in both
`eqpower.power` and `eqpower.wrap`) and each traced method on its class;
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, job) for the
  layer entry points, kept in memory and written out when the run ends;
* leaf: the hot calls (`projection_entries`, `AtomClassifier.solutions`,
  `PowerElement` construction) are timed but aggregated as count, total and
  self time under their parent span, so memory stays bounded;
* counter: calls too frequent to time (`evaluate`, member projections,
  `system_solutions`) only bump a count keyed by the innermost timed frame.

Self time is a call's duration minus the time of the timed calls nested in
it.  A binding missing from the program leaves its metrics at zero and is
listed in `missing`.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from time import perf_counter

# metric prefix -> (module, attribute) where the original lives
SPANS = {
    "cli": ("eqpower.cli", "main"),
    "cli.decode": ("eqpower.power", "power_system_from_json_dict"),
    "structures.load": ("eqpower.structures", "structure_from_json_dict"),
    "structures.validate": ("eqpower.structures", "validate"),
    "power.profile": ("eqpower.power", "coordinate_profile"),
    "power.satisfies": ("eqpower.power", "satisfies"),
    "power.consistent": ("eqpower.power", "consistent"),
    "solver.core": ("eqpower.solver", "minimal_inconsistent_subset"),
    "wrap.merge": ("eqpower.wrap", "wrap"),
    "wrap.representatives": ("eqpower.wrap", "class_representatives"),
    "wrap.seeds": ("eqpower.wrap", "seed_equations"),
    "wrap.verify": ("eqpower.wrap", "verify_wrap"),
    "noetherian.verdict": ("eqpower.noetherian", "power_noetherian"),
    "noetherian.build": ("eqpower.noetherian", "build_witness_family"),
    "noetherian.verify_witness": ("eqpower.noetherian", "verify_witness"),
    "noetherian.first_violated": ("eqpower.noetherian", "first_violated_member"),
}
LEAVES = {
    "power.projection": ("eqpower.power", "projection_entries"),
    "solver.classify": ("eqpower.solver", "AtomClassifier.solutions"),
    "power.canonical": ("eqpower.power", "PowerElement.__post_init__"),
}
COUNTERS = {
    "solver.evaluate": ("eqpower.solver", "evaluate"),
    "solver.intersect": ("eqpower.solver", "AtomClassifier.system_solutions"),
    "power.member": ("eqpower.power", "StaircaseFamily.projected_member"),
    "power.project": ("eqpower.power", "project_equation"),
    "wrap.candidates": ("eqpower.wrap", "_candidates"),
}
# every `*_to_json_dict` function and `to_json_dict` method of these modules is an encode span
ENCODE_MODULES = ("eqpower.solver", "eqpower.power", "eqpower.wrap", "eqpower.noetherian", "eqpower.structures")


class Tracer:
    def __init__(self) -> None:
        self.job: int | None = None
        self.spans: list[tuple] = []  # (id, name, job, parent, start, end, self)
        self.span_names: dict[int, str] = {0: "outside"}
        self.leaves: dict[tuple[int, str], list] = {}  # (parent id, name) -> [count, total, self]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (frame name, counter) -> calls
        self.values: dict[str, int] = defaultdict(int)  # sums taken from arguments and results
        self.per_job: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self._stack: list[list] = [[0, 0.0, "outside"]]  # [span id, child time, frame name]
        self._next_id = 1
        self._seen_atoms: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._job_atoms: set = set()
        self._verify_coords: dict[int, set[int]] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack, spans, names, clock = self._stack, self.spans, self.span_names, perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            names[sid] = name
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][1] += end - start
                spans.append((sid, name, self.job, parent, start, end, end - start - frame[1]))
            if after is not None:
                after(args, result, sid)
            return result

        return traced

    def _leaf(self, name: str, fn, before=None, after=None):
        stack, leaves, clock = self._stack, self.leaves, perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            if before is not None:
                before(args, parent)
            frame = [parent, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][1] += end - start
                agg = leaves.get((parent, name))
                if agg is None:
                    agg = leaves[(parent, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += end - start
                agg[2] += end - start - frame[1]
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def _counter(self, name: str, fn, after=None):
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            counts[(stack[-1][2], name)] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return counted

    # --- per-call bookkeeping ---------------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.values[key] += amount
        self.per_job[self.job][key] += amount

    def _after_projection(self, args, result, parent) -> None:
        self._add("power.projection.entries", len(result))
        if self.span_names[parent] == "wrap.verify":
            self._verify_coords[parent].add(args[1])

    def _before_classify(self, args, parent) -> None:
        classifier, eq = args[0], args[1]
        seen = self._seen_atoms.setdefault(classifier, set())
        if eq not in seen:  # first lookup of this atom on this classifier: a cache miss
            seen.add(eq)
            self._add("solver.classify.atoms", 1)
            self._add("solver.classify.assignments", len(classifier.structure.universe) ** len(classifier.variables))
            self._job_atoms.add((classifier.variables, eq))

    def _after_core(self, args, result, sid) -> None:
        self._add("solver.core.trials", len(args[1].equations))
        self._add("solver.core.equations", len(result.equations) if result is not None else 0)

    def _after_wrap(self, args, result, sid) -> None:
        self._add("wrap.output_equations", len(result.wrapped.explicit))

    def _after_verify(self, args, result, sid) -> None:
        self._add("wrap.verify.coords", len(self._verify_coords.pop(sid, ())))

    def _after_candidates(self, args, result) -> None:
        self._add("wrap.candidates", len(result))

    def _after_verify_witness(self, args, result, sid) -> None:
        self._add("noetherian.members_checked", args[2])

    def _after_first_violated(self, args, result, sid) -> None:
        if result is not None:  # None fails the job in the oracle
            self._add("noetherian.members_checked", result - args[2])

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        after = {
            "solver.core": self._after_core,
            "wrap.merge": self._after_wrap,
            "wrap.verify": self._after_verify,
            "noetherian.verify_witness": self._after_verify_witness,
            "noetherian.first_violated": self._after_first_violated,
        }
        for name, (module, attr) in SPANS.items():
            self._patch(module, attr, lambda fn, n=name: self._span(n, fn, after.get(n)))
        hooks = {"power.projection": (None, self._after_projection), "solver.classify": (self._before_classify, None)}
        for name, (module, attr) in LEAVES.items():
            before, after_leaf = hooks.get(name, (None, None))
            self._patch(module, attr, lambda fn, n=name, b=before, a=after_leaf: self._leaf(n, fn, b, a))
        for name, (module, attr) in COUNTERS.items():
            hook = self._after_candidates if name == "wrap.candidates" else None
            self._patch(module, attr, lambda fn, n=name, h=hook: self._counter(n, fn, h))
        for module_name in ENCODE_MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if attr.endswith("_to_json_dict") and callable(value) and value.__module__ == module_name:
                    self._patch(module_name, attr, lambda fn: self._span("cli.encode", fn))
                elif isinstance(value, type) and value.__module__ == module_name and "to_json_dict" in vars(value):
                    self._patch(module_name, f"{attr}.to_json_dict", lambda fn: self._span("cli.encode", fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:  # a method: one binding, on its class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "eqpower" or name.startswith("eqpower."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self._job_atoms = set()

    def end_job(self) -> None:
        self._add("solver.classify.distinct", len(self._job_atoms))
        self.job = None

    # --- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, _, own in self.spans:
            out[name] += own
        for (_, name), (_, _, own) in self.leaves.items():
            out[name] += own
        return out

    def leaf_under(self, leaf: str, parent: str) -> tuple[int, float]:
        """Calls and self time of a leaf whose parent span has the given name."""
        calls, own = 0, 0.0
        for (pid, name), (count, _, s) in self.leaves.items():
            if name == leaf and self.span_names[pid] == parent:
                calls += count
                own += s
        return calls, own

    def count(self, counter: str, frame: str | None = None) -> int:
        return sum(v for (f, c), v in self.counts.items() if c == counter and (frame is None or f == frame))

    def job_time(self) -> float:
        return sum(end - start for _, name, _, _, start, end, _ in self.spans if name == "cli")

    def span_records(self) -> list[dict]:
        spans = [
            {"id": sid, "name": name, "job": job, "parent": parent, "start": start, "end": end}
            for sid, name, job, parent, start, end, _ in self.spans
        ]
        leaves = [
            {"parent": pid, "name": name, "count": c, "total_s": t, "self_s": s}
            for (pid, name), (c, t, s) in self.leaves.items()
        ]
        return spans + leaves
