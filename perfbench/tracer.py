"""Span tracer that wraps sumcol's functions from outside the package.

Several modules import the traced functions by name (``memetic`` and
``bench`` hold their own references to ``tabu_search``,
``generate_population``, ``memetic_search`` and ``initial_coloring``, and
the package attribute ``sumcol.tabu_search`` is the function, not the
module), so each function is replaced by identity in every loaded
``sumcol.*`` namespace that holds it.  A target that cannot be found
raises ``TraceError`` instead of reporting zeros.

Spans (name, start, end, parent, run id) are kept in flat arrays and
written out at the end; per-run aggregates (calls, total and self seconds
per span name, plus a few counters) are updated as spans close.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
import types
from array import array
from collections import Counter

_clock = time.perf_counter

ROOT_SPAN = "bench.run"

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("sumcol.graph", "load_dimacs", "graph.load_dimacs"),
    ("sumcol.graph", "Graph.component_masks", "graph.component_masks"),
    ("sumcol.coloring", "canonical_relabel", "coloring.canonical_relabel"),
    ("sumcol.coloring", "is_proper", "coloring.is_proper"),
    ("sumcol.coloring", "hamming_distance", "coloring.hamming_distance"),
    ("sumcol.tabucol", "tabucol", "tabucol.tabucol"),
    ("sumcol.tabucol", "generate_population", "tabucol.generate_population"),
    ("sumcol.tabucol", "initial_coloring", "tabucol.initial_coloring"),
    ("sumcol.tabu_search", "tabu_search", "tabu_search.tabu_search"),
    ("sumcol.tabu_search", "TabuSearchRun.run_phase", "tabu_search.phase"),
    ("sumcol.tabu_search", "perturb", "tabu_search.perturb"),
    ("sumcol.memetic", "memetic_search", "memetic.memetic_search"),
    ("sumcol.memetic", "partition_crossover", "memetic.partition_crossover"),
    ("sumcol.memetic", "update_population", "memetic.update_population"),
)
PHASES = ("exchange", "relocate")  # run_phase's ``kind`` values


class TraceError(RuntimeError):
    """A traced function is missing, so its counters would read zero."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.runs: list[tuple[list[list], Counter]] = []  # per run: aggregates by name id, counters
        self._agg: list[list] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        for name in [ROOT_SPAN] + [span for _, _, span in TARGETS if span != "tabu_search.phase"]:
            self._id(name)
        for kind in PHASES:
            self._id(f"tabu_search.{kind}")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_run(self) -> int:
        self._agg = [[0, 0.0, 0.0] for _ in self.names]
        self.counters = Counter()
        self.runs.append((self._agg, self.counters))
        return len(self.runs) - 1

    def call(self, sid: int, fn, args, kwargs):
        """Run ``fn`` inside a span; returns (result, duration)."""
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_run.append(len(self.runs) - 1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        start = _clock()
        self.span_start.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.span_end[idx] = end
            duration = end - start
            if stack:
                stack[-1][1] += duration
            agg = self._agg[sid]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]
        return result, duration

    def _wrapper(self, span: str, fn):
        call = self.call
        tracer = self
        if span == "tabu_search.phase":
            phase_ids = {kind: self._id(f"tabu_search.{kind}") for kind in PHASES}

            def wrapper(run, kind, idle_limit):
                before = run.tabu.iteration
                call(phase_ids[kind], fn, (run, kind, idle_limit), {})
                tracer.counters[f"tabu_search.{kind}.iters"] += run.tabu.iteration - before
            return wrapper
        sid = self._id(span)
        if span == "tabucol.tabucol":
            def wrapper(*args, **kwargs):
                result, duration = call(sid, fn, args, kwargs)
                if result is None:
                    tracer.counters["tabucol.fail_calls"] += 1
                    tracer.counters["tabucol.fail_s"] += duration
                return result
        elif span == "memetic.update_population":
            def wrapper(*args, **kwargs):
                accepted, _ = call(sid, fn, args, kwargs)
                tracer.counters["memetic.update_population.accepted"] += bool(accepted)
                return accepted
        else:
            def wrapper(*args, **kwargs):
                return call(sid, fn, args, kwargs)[0]
        return wrapper

    def install(self) -> None:
        """Patch every target; raises TraceError if one is missing."""
        if self._patches:
            raise TraceError("tracer already installed")
        loaded = [m for name, m in list(sys.modules.items())
                  if (name == "sumcol" or name.startswith("sumcol.")) and isinstance(m, types.ModuleType)]
        try:
            for module_name, attr, span in TARGETS:
                module = sys.modules.get(module_name)
                if not isinstance(module, types.ModuleType):
                    raise TraceError(f"{module_name} is not a loaded module")
                owner_name, _, name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = vars(owner).get(name) if isinstance(owner, type) else None
                    if not callable(original):
                        raise TraceError(f"{module_name}.{attr} not found")
                    self._patch(owner, name, original, self._wrapper(span, original))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TraceError(f"{module_name}.{attr} not found")
                wrapper = self._wrapper(span, original)
                for namespace in loaded:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_metrics(self, runs: list[int]) -> dict[str, float]:
        """Per-layer metrics averaged over ``runs`` (ratios over their totals)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        counters: Counter = Counter()
        for run in runs:
            agg, run_counters = self.runs[run]
            for i, name in enumerate(self.names):
                calls[name] += agg[i][0]
                total[name] += agg[i][1]
                self_s[name] += agg[i][2]
            counters.update(run_counters)

        def layer_self(layer: str) -> float:
            return sum(v for name, v in self_s.items() if name.split(".")[0] == layer)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        tabucol_calls = calls["tabucol.tabucol"]
        ex_iters = counters["tabu_search.exchange.iters"]
        re_iters = counters["tabu_search.relocate.iters"]
        generations = calls["memetic.update_population"]
        sums = {
            "tabucol.calls": tabucol_calls,
            "tabucol.fail_calls": counters["tabucol.fail_calls"],
            "tabucol.self_s": layer_self("tabucol"),
            "tabucol.fail_s": counters["tabucol.fail_s"],
            "tabucol.generate_population_s": total["tabucol.generate_population"],
            "tabu_search.calls": calls["tabu_search.tabu_search"],
            "tabu_search.iters": ex_iters + re_iters,
            "tabu_search.self_s": layer_self("tabu_search"),
            "tabu_search.exchange.iters": ex_iters,
            "tabu_search.exchange.s": total["tabu_search.exchange"],
            "tabu_search.relocate.iters": re_iters,
            "tabu_search.relocate.s": total["tabu_search.relocate"],
            "tabu_search.perturb.calls": calls["tabu_search.perturb"],
            "graph.component_masks.calls": calls["graph.component_masks"],
            "graph.component_masks.self_s": self_s["graph.component_masks"],
            "memetic.generations": generations,
            "memetic.partition_crossover.self_s": self_s["memetic.partition_crossover"],
            "memetic.update_population.self_s": self_s["memetic.update_population"],
            "coloring.canonical_relabel.self_s": self_s["coloring.canonical_relabel"],
            "coloring.is_proper.self_s": self_s["coloring.is_proper"],
            "coloring.hamming_distance.self_s": self_s["coloring.hamming_distance"],
            "bench.overhead_s": self_s[ROOT_SPAN],
        }
        out = {name: value / len(runs) for name, value in sums.items()}
        out.update({
            "tabucol.success_ratio": ratio(tabucol_calls - counters["tabucol.fail_calls"], tabucol_calls),
            "tabu_search.exchange.iters_per_s": ratio(ex_iters, total["tabu_search.exchange"]),
            "tabu_search.relocate.iters_per_s": ratio(re_iters, total["tabu_search.relocate"]),
            "graph.component_masks.per_exchange_iter": ratio(calls["graph.component_masks"], ex_iters),
            "memetic.update_population.accept_ratio": ratio(
                counters["memetic.update_population.accepted"], generations),
        })
        return out

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV; times in seconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span,run,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                out.write(f"{i},{self.span_run[i]},{self.span_parent[i]},{names[self.span_name[i]]},"
                          f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f}\n")
