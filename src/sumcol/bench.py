"""Benchmark harness: instance manifests, seeded batch runs, statistics,
and CSV/JSON reports.

Each batch derives one independent seed per run from the base seed, so a
report is a pure function of (instance, mode, parameters, runs, base_seed).
Report files are byte-identical across repetitions by default; wall-clock
fields are only filled in on request since they can never be deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import time
from typing import NamedTuple, Sequence

from .coloring import Coloring
from .graph import Graph, InputError, load_dimacs, naming_file
from .memetic import MemeticParams, memetic_search
from .tabu_search import (
    BOTH_NEIGHBORHOODS,
    EXCHANGE,
    RELOCATE,
    SearchStats,
    TabuSearchParams,
    tabu_search,
)
from .tabucol import initial_coloring

MASC = "masc"
DNTS = "dnts"
TS_N1 = "ts-n1"
TS_N2 = "ts-n2"
MODES = (MASC, DNTS, TS_N1, TS_N2)

# Single-solution modes get a larger tabu budget than the per-offspring
# budget used inside the memetic loop, so mode comparisons pit one long
# search against one full memetic run.
SINGLE_MODE_BUDGET = 500_000

_NEIGHBORHOODS = {
    DNTS: BOTH_NEIGHBORHOODS,
    TS_N1: (EXCHANGE,),
    TS_N2: (RELOCATE,),
}

# CSV column -> field of the report summary it shows.
CSV_COLUMNS = {
    "name": "name", "n": "n", "m": "m", "best_known": "best_known", "lb": "lower_bound",
    "mode": "mode", "sum_best": "sum_best", "k_best": "k_best", "sr": "success_rate",
    "avg": "average", "sigma": "sigma", "time_min": "time_minutes", "runs": "runs",
    "seed": "base_seed",
}

_MASK64 = (1 << 64) - 1


class InstanceRecord(NamedTuple):
    """One manifest row: where an instance lives and what is known about it."""
    name: str
    path: str
    n: int
    m: int
    best_known: int | None = None
    bound_exact: bool | None = None
    gcp_k: int | None = None


def load_manifest(path: str) -> list[InstanceRecord]:
    """Parse a manifest file into records.

    One instance per line: ``name path n m best bound k`` where ``bound``
    is ``exact`` or ``ub`` and ``--`` marks an unknown ``best`` or ``k``.
    Blank lines and ``#`` comments are skipped; paths are resolved
    relative to the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    records: list[InstanceRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle, naming_file(path):
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 7:
                raise InputError(f"expected 7 fields, got {len(parts)}", line_no)
            name, rel, n_s, m_s, best_s, bound_s, k_s = parts
            if name in seen:
                raise InputError(f"duplicate instance name {name!r}", line_no)
            seen.add(name)
            try:
                n = int(n_s)
                m = int(m_s)
            except ValueError:
                raise InputError(f"bad vertex/edge counts {n_s!r} {m_s!r}", line_no) from None
            if best_s == "--":
                best = None
                if bound_s != "--":
                    raise InputError("bound given without a best value", line_no)
                bound = None
            else:
                try:
                    best = int(best_s)
                except ValueError:
                    raise InputError(f"bad best value {best_s!r}", line_no) from None
                if bound_s not in ("exact", "ub"):
                    raise InputError(f"bound must be 'exact' or 'ub', got {bound_s!r}", line_no)
                bound = bound_s == "exact"
            try:
                k = None if k_s == "--" else int(k_s)
            except ValueError:
                raise InputError(f"bad color count {k_s!r}", line_no) from None
            records.append(InstanceRecord(name, os.path.join(base, rel), n, m, best, bound, k))
    return records


def load_instance(record: InstanceRecord) -> Graph:
    """Load a record's graph and check it against the declared sizes."""
    graph = load_dimacs(record.path)
    if graph.n != record.n or graph.edge_count != record.m:
        raise InputError(
            f"instance {record.name}: file has n={graph.n} m={graph.edge_count}, "
            f"manifest declares n={record.n} m={record.m}"
        )
    return graph


def default_params(mode: str) -> MemeticParams:
    """Stock parameters for a mode; single-solution modes widen the tabu
    budget to SINGLE_MODE_BUDGET."""
    if mode == MASC:
        return MemeticParams()
    return MemeticParams(tabu=TabuSearchParams(iteration_budget=SINGLE_MODE_BUDGET))


def run_seed(base_seed: int, index: int) -> int:
    """Seed of run ``index`` in a batch: one splitmix64 step over the base
    seed's index-th successor, so per-run streams are decorrelated while
    the whole batch stays reproducible from (base_seed, runs)."""
    x = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class RunRow(NamedTuple):
    seed: int
    sum: int
    k: int
    iterations: int
    wall_seconds: float
    best_seconds: float


class RunReport(NamedTuple):
    record: InstanceRecord
    mode: str
    base_seed: int
    rows: list[RunRow]
    lower_bound: int  # the graph's clique-partition bound on the sum (Graph.sum_bound)
    best_assignment: list[int] | None = None

    @property
    def runs(self) -> int:
        return len(self.rows)

    @property
    def sum_best(self) -> int:
        return min(row.sum for row in self.rows)

    @property
    def k_best(self) -> int:
        return min(self.rows, key=lambda row: row.sum).k

    @property
    def success_rate(self) -> float | None:
        best_known = self.record.best_known
        if best_known is None:
            return None
        hits = sum(1 for row in self.rows if row.sum <= best_known)
        return hits / len(self.rows)

    @property
    def average(self) -> float:
        return statistics.fmean(row.sum for row in self.rows)

    @property
    def sigma(self) -> float:
        return statistics.pstdev(row.sum for row in self.rows)

    @property
    def time_minutes(self) -> float:
        """Mean minutes until the runs that found sum_best first reached it.

        In mode "masc" a run's time is taken when the tabu-search call that
        improved the best returns, so it can trail the iteration that
        reached the sum by up to one call."""
        best = self.sum_best
        times = [row.best_seconds for row in self.rows if row.sum == best]
        return statistics.fmean(times) / 60.0

    def sums(self) -> list[int]:
        return [row.sum for row in self.rows]


def _run_once(
    graph: Graph,
    mode: str,
    seed: int,
    params: MemeticParams,
    warm_start: Coloring | None,
    target: int | None,
    validate: bool,
) -> tuple[RunRow, list[int]]:
    rng = random.Random(seed)
    stats = SearchStats()
    started = time.perf_counter()
    best_at = 0.0

    def note(*_improvement: int) -> None:
        nonlocal best_at
        best_at = time.perf_counter() - started

    if mode == MASC:
        best = memetic_search(
            graph, params, rng,
            warm_start=warm_start, target=target, validate=validate,
            on_improve=note, stats=stats,
        )
    else:
        start = warm_start if warm_start is not None else initial_coloring(graph, params.init, rng)
        note()
        best = tabu_search(
            start, graph, params.tabu, rng,
            neighborhoods=_NEIGHBORHOODS[mode], validate=validate,
            on_improve=note, stats=stats,
        )
    wall = time.perf_counter() - started
    row = RunRow(seed=seed, sum=best.sum, k=best.k, iterations=stats.iterations,
                 wall_seconds=wall, best_seconds=best_at)
    return row, list(best.assignment)


def run_instance(
    record: InstanceRecord,
    mode: str = MASC,
    runs: int = 10,
    base_seed: int = 1,
    params: MemeticParams | None = None,
    graph: Graph | None = None,
    warm_start: Coloring | None = None,
    target: int | None = None,
    jobs: int = 1,
    validate: bool = False,
) -> RunReport:
    """Run one instance ``runs`` times and aggregate the rows.

    ``target`` (mode "masc" only) stops a run early once its
    best sum reaches the value; summary sums are unaffected because the
    incumbent is monotone.  Runs spread over ``min(jobs, runs)`` worker
    processes; row order, and so the report, match the sequential result.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if target is not None and mode != MASC:
        raise ValueError(f"target applies only to mode {MASC!r}, not {mode!r}")
    if params is None:
        params = default_params(mode)
    if graph is None:
        graph = load_instance(record)
    tasks = [
        (graph, mode, run_seed(base_seed, i), params, warm_start, target, validate)
        for i in range(runs)
    ]
    workers = min(jobs, runs)
    if workers > 1:
        # imported here, so that `import sumcol` does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_once, *zip(*tasks)))
    else:
        results = [_run_once(*task) for task in tasks]
    rows = [row for row, _ in results]
    best_index = min(range(len(rows)), key=lambda i: (rows[i].sum, i))
    return RunReport(
        record=record, mode=mode, base_seed=base_seed, rows=rows,
        lower_bound=graph.sum_bound, best_assignment=results[best_index][1],
    )


class WelchTestResult(NamedTuple):
    statistic: float
    df: float
    p_value: float
    significant: bool
    degenerate: bool


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchTestResult:
    """Two-sided Welch test at the 95% level for a difference in means.

    When both samples have zero variance the statistic degenerates; the
    result is flagged and never reported significant, with p fixed at 1
    for equal means and 0 otherwise.
    """
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise ValueError("both samples need at least two observations")
    mean_a = statistics.fmean(sample_a)
    mean_b = statistics.fmean(sample_b)
    var_a = statistics.variance(sample_a)
    var_b = statistics.variance(sample_b)
    term_a = var_a / len(sample_a)
    term_b = var_b / len(sample_b)
    squared_error = term_a + term_b
    if squared_error == 0.0:
        if mean_a == mean_b:
            return WelchTestResult(0.0, math.inf, 1.0, False, True)
        stat = math.copysign(math.inf, mean_a - mean_b)
        return WelchTestResult(stat, math.inf, 0.0, False, True)
    stat = (mean_a - mean_b) / math.sqrt(squared_error)
    df = squared_error ** 2 / (
        (term_a ** 2) / (len(sample_a) - 1) + (term_b ** 2) / (len(sample_b) - 1)
    )
    from scipy.stats import t as student_t  # on use: scipy would dominate import time

    p_value = 2.0 * float(student_t.sf(abs(stat), df))
    return WelchTestResult(stat, df, p_value, p_value < 0.05, False)


def _summary(report: RunReport, include_times: bool) -> dict:
    """One report as the JSON object it is written as; wall-clock fields
    stay None unless ``include_times`` is set."""
    record = report.record
    return {
        "name": record.name,
        "n": record.n,
        "m": record.m,
        "best_known": record.best_known,
        "bound_exact": record.bound_exact,
        "lower_bound": report.lower_bound,
        "mode": report.mode,
        "runs": report.runs,
        "base_seed": report.base_seed,
        "sum_best": report.sum_best,
        "k_best": report.k_best,
        "success_rate": report.success_rate,
        "average": report.average,
        "sigma": report.sigma,
        "time_minutes": report.time_minutes if include_times else None,
        "rows": [
            {
                "seed": row.seed,
                "sum": row.sum,
                "k": row.k,
                "iterations": row.iterations,
                "wall_seconds": row.wall_seconds if include_times else None,
                "best_seconds": row.best_seconds if include_times else None,
            }
            for row in report.rows
        ],
    }


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return value


def render_report(
    reports: Sequence[RunReport],
    fmt: str = "csv",
    include_times: bool = False,
) -> str:
    """Serialize reports to a CSV or JSON string.

    Both formats show the same per-report summary; a CSV row holds its
    fields named in CSV_COLUMNS.  Identical inputs yield identical bytes:
    timing columns that depend on the wall clock stay null (JSON) or empty
    (CSV) unless ``include_times`` is set.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    summaries = [_summary(report, include_times) for report in reports]
    if fmt == "json":
        return json.dumps({"reports": summaries}, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for summary in summaries:
        writer.writerow([_csv_cell(summary[field]) for field in CSV_COLUMNS.values()])
    return out.getvalue()
