"""Run one workload's solver runs in this process and write them as JSON.

Every run goes through ``sumcol.cli.main(["solve", ...])`` -- the path the
``sumcol solve`` command takes -- with ``--runs 1 --jobs 1``, so one call
is one solver run at one derived seed.  Each run saves its best coloring,
which is re-checked here against the instance's edges before the run
counts as passed.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE OUT_PREFIX
writes OUT_PREFIX.worker.json and, when tracing, OUT_PREFIX.spans.csv.gz.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import ROOT_SPAN, Tracer, TraceError
from workloads import WORKLOADS

DETERMINISTIC = ("sum", "k", "iterations")
TRACED_COUNTERS = ("tabucol.calls", "graph.component_masks.calls", "memetic.generations")


def read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 1-based edges of a DIMACS file, parsed independently
    of the package under test."""
    n, edges = 0, []
    for line in path.read_text(encoding="ascii").splitlines():
        fields = line.split()
        if fields and fields[0] == "p":
            n = int(fields[2])
        elif fields and fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2])))
    return n, edges


def seeded_greedy(n: int, edges: list[tuple[int, int]], seed: int) -> list[int]:
    """Proper first-fit coloring over a seeded random vertex order."""
    adjacent: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    colors = [0] * (n + 1)
    for v in order:
        used = {colors[u] for u in adjacent[v]}
        colors[v] = next(c for c in range(1, n + 2) if c not in used)
    return colors[1:]


def write_coloring(path: Path, colors: list[int]) -> None:
    lines = [f"s {sum(colors)} {max(colors)}"] + [f"v {v} {c}" for v, c in enumerate(colors, 1)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_coloring(path: Path) -> tuple[int, int, list[int]]:
    header, colors = None, {}
    for line in path.read_text(encoding="ascii").splitlines():
        fields = line.split()
        if fields and fields[0] == "s":
            header = (int(fields[1]), int(fields[2]))
        elif fields and fields[0] == "v":
            colors[int(fields[1])] = int(fields[2])
    if header is None:
        raise ValueError("no header line")
    return header[0], header[1], [colors.get(v, 0) for v in range(1, len(colors) + 1)]


class Runner:
    def __init__(self, root: Path, workload, work: Path):
        sys.path.insert(0, str(root / "src"))
        import sumcol
        from sumcol import Coloring, cli, is_proper, load_dimacs, run_seed

        package = Path(sumcol.__file__).resolve()
        if package.parent != (root / "src" / "sumcol").resolve():
            raise RuntimeError(f"imported sumcol from {package}, not from {root / 'src'}")
        self.cli_main = cli.main
        self.run_seed = run_seed
        self.workload = workload
        self.work = work
        self.instance = root / "instances" / workload.instance
        self.n, self.edges = read_edges(self.instance)
        graph = load_dimacs(str(self.instance))
        # The package's own properness check, bound before any tracing.
        self.is_proper = lambda colors: is_proper(Coloring.from_assignment(colors), graph)

    def run(self, base_seed: int, label: str, tracer: Tracer | None = None) -> dict:
        """One solver run through the CLI; returns its row with any problems."""
        w = self.workload
        report_path = self.work / f"report-{label}.json"
        best_path = self.work / f"best-{label}.col"
        argv = ["solve", str(self.instance), "--mode", w.mode, "--runs", "1",
                "--seed", str(base_seed), "--jobs", "1", "--format", "json", "--times",
                "--out", str(report_path), "--save-best", str(best_path)]
        for param in w.params:
            argv += ["--param", param]
        if w.target is not None:
            argv += ["--target", str(w.target)]
        if w.warm_start:
            warm_path = self.work / f"warm-{label}.col"
            write_coloring(warm_path, seeded_greedy(self.n, self.edges, base_seed))
            argv += ["--warm-start", str(warm_path)]
        stderr = io.StringIO()
        if tracer is not None:
            run_id = tracer.begin_run()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli_main(argv)
                else:
                    code, _ = tracer.call(tracer.names.index(ROOT_SPAN), self.cli_main, (argv,), {})
        except Exception:  # a crashing run is a failed operation, not a crashed benchmark
            code = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        row = {"label": label, "base_seed": base_seed, "wall_s": wall, "cpu_s": cpu, "problems": []}
        if tracer is not None:
            row["trace_run"] = run_id
        if code != 0:
            row["problems"].append(f"solve failed ({code}): {stderr.getvalue()[-500:]}")
            return row
        try:
            self._check(row, report_path, best_path)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            row["problems"].append(f"unreadable output: {exc!r}")
        return row

    def _check(self, row: dict, report_path: Path, best_path: Path) -> None:
        w = self.workload
        result = json.loads(report_path.read_text())["reports"][0]["rows"][0]
        row.update(seed=result["seed"], sum=result["sum"], k=result["k"],
                   iterations=result["iterations"], best_s=result["best_seconds"])
        problems = row["problems"]
        header_sum, header_k, colors = read_coloring(best_path)
        if len(colors) != self.n or 0 in colors:
            problems.append("saved coloring does not cover every vertex")
            return
        clashes = sum(1 for u, v in self.edges if colors[u - 1] == colors[v - 1])
        if clashes:
            problems.append(f"saved coloring has {clashes} monochromatic edges")
        if not self.is_proper(colors):
            problems.append("is_proper rejects the saved coloring")
        total = sum(colors)
        if not total == header_sum == result["sum"]:
            problems.append(f"sum mismatch: recomputed {total}, file {header_sum}, report {result['sum']}")
        if not len(set(colors)) == header_k == result["k"]:
            problems.append(f"k mismatch: file {header_k}, report {result['k']}")
        if total < w.optimum:
            problems.append(f"sum {total} below the exact optimum {w.optimum}")
        if result["iterations"] > w.iteration_cap:
            problems.append(f"{result['iterations']} iterations exceed the budget {w.iteration_cap}")


def traced_op(runner: Runner, tracer: Tracer, base_seed: int, index: int) -> dict:
    """One seed run untraced, then traced twice: the two traced runs give the
    repetition check and the untraced one the tracing overhead."""
    w = runner.workload
    plain = runner.run(base_seed, f"{index}u")
    tracer.install()
    try:
        traced = [runner.run(base_seed, f"{index}t{rep}", tracer) for rep in (1, 2)]
    finally:
        tracer.uninstall()
    problems = plain["problems"] + traced[0]["problems"] + traced[1]["problems"]
    counts = []
    for row in traced:
        layer = tracer.layer_metrics([row["trace_run"]])
        row["counters"] = {name: int(layer[name]) for name in TRACED_COUNTERS}
        if "iterations" in row and layer["tabu_search.iters"] != row["iterations"]:
            problems.append(f"traced phase iterations {layer['tabu_search.iters']} != "
                            f"reported {row['iterations']}")
        for name in w.zero:
            if layer[name] != 0:
                problems.append(f"{name} = {layer[name]}, expected 0 on {w.name}")
        for name in w.nonzero:
            if layer[name] == 0:
                problems.append(f"{name} = 0, expected > 0 on {w.name}")
        counts.append(row["counters"])
    runs = [plain] + traced
    for field in DETERMINISTIC:
        values = [row.get(field) for row in runs]
        if len(set(values)) != 1:
            problems.append(f"{field} differs across repetitions: {values}")
    if counts[0] != counts[1]:
        problems.append(f"trace counters differ across repetitions: {counts}")
    return {**plain, "problems": problems, "traced": traced}


def main(argv: list[str]) -> int:
    root, workload_name, seed, seconds, trace, prefix = argv
    root = Path(root)
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = WORKLOADS[workload_name]
    work = root / "perfbench" / "out" / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workload, work)
        tracer = Tracer() if trace else None
        ops: list[dict] = []
        durations: list[float] = []
        started = time.perf_counter()
        while True:
            base_seed = runner.run_seed(seed, len(ops))
            op_started = time.perf_counter()
            if tracer is None:
                ops.append(runner.run(base_seed, str(len(ops))))
            else:
                ops.append(traced_op(runner, tracer, base_seed, len(ops)))
            durations.append(time.perf_counter() - op_started)
            # Start another run only if a typical one still fits the window.
            if time.perf_counter() - started + statistics.median(durations) > seconds:
                break
        result = {"ops": ops, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            traced_runs = [op["traced"][0]["trace_run"] for op in ops]
            result["layers"] = tracer.layer_metrics(traced_runs)
            spans_path = Path(f"{prefix}.spans.csv.gz")
            tracer.write_spans(str(spans_path))
            result["spans"] = spans_path.name
    except TraceError as exc:
        print(f"tracing failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(f"{prefix}.worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
