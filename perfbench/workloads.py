"""Workload definitions shared by run.py and worker.py.

Each workload runs one solver mode on one shipped instance. Budgets are
fixed so that one solver run costs roughly the same work on every seed:
time-to-target on queen8.8 at the default budget ranges from ~10 s to a
~90 s miss, far too wide to gate on, so that workload runs a fixed number
of generations instead and records time-to-291 per run as TTT data.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    instance: str                    # file under instances/
    mode: str                        # sumcol --mode
    optimum: int                     # exact minimum sum (manifest "exact" row)
    iteration_cap: int               # largest SearchStats.iterations a run may report
    params: tuple[str, ...] = ()     # --param overrides
    target: int | None = None        # passed as --target (masc early stop)
    ttt_target: int | None = None    # sum that counts as a hit for ttt/hit_rate
    warm_start: bool = False         # pass a seeded greedy coloring via --warm-start
    # Trace counters that must read zero / non-zero in every traced run, so a
    # wrapper that stops firing (say, after a module rename) cannot pass as 0.
    zero: tuple[str, ...] = ()
    nonzero: tuple[str, ...] = ()


_TABU_BUDGET = 10_000  # TabuSearchParams.iteration_budget default (per offspring)
_MASC_GENERATIONS = 50  # MemeticParams.max_generations default
QUEEN8_GENERATIONS = 4
MYCIEL7_ITERATIONS = 20_000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="masc-queen8_8",
            instance="queen8_8.col",
            mode="masc",
            optimum=291,
            iteration_cap=QUEEN8_GENERATIONS * _TABU_BUDGET,
            # One TABUCOL restart: the k=8 attempt fails on every seed (chi = 9), and
            # three of them made the run's length swing with the seed.
            params=(f"max_generations={QUEEN8_GENERATIONS}", "init_restarts=1"),
            ttt_target=291,
            nonzero=(
                "tabucol.calls", "tabucol.fail_calls", "tabu_search.calls",
                "tabu_search.exchange.iters", "tabu_search.relocate.iters",
                "graph.component_masks.calls", "memetic.generations",
            ),
        ),
        Workload(
            name="masc-queen7_7",
            instance="queen7_7.col",
            mode="masc",
            optimum=196,
            iteration_cap=_MASC_GENERATIONS * _TABU_BUDGET,
            target=196,
            ttt_target=196,
            zero=(
                "tabu_search.calls", "tabu_search.iters",
                "graph.component_masks.calls", "memetic.generations",
            ),
            nonzero=("tabucol.calls", "tabucol.fail_calls"),
        ),
        Workload(
            name="dnts-warm-myciel7",
            instance="myciel7.col",
            mode="dnts",
            optimum=381,
            iteration_cap=MYCIEL7_ITERATIONS,
            params=(f"iteration_budget={MYCIEL7_ITERATIONS}",),
            warm_start=True,
            zero=("tabucol.calls", "tabucol.generate_population_s", "memetic.generations"),
            nonzero=(
                "tabu_search.calls", "tabu_search.exchange.iters",
                "tabu_search.relocate.iters", "graph.component_masks.calls",
            ),
        ),
    )
}
