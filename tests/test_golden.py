"""Golden trajectories: fixed-seed runs replayed bit for bit.

Each myciel5 case records what a run observably does: every improvement
event, the population sums after each memetic generation, the iteration
count, the number of perturbations and the final assignment.  The queen8_8
case records the same for an exchange-only search on a dense graph, where
class pairs have large linked components.  The queen6_6 case records a
TABUCOL descent on a dense graph whose last attempt fails, and the random
bits drawn after it, so a change in how failing attempts consume the
stream shows.  The myciel4 case records the same for a descent with the
default parameters, whose failing attempts end by the idle stop rather
than by their iteration budget.  The myciel7 cases record the
relocation-only and the alternating search on a larger sparse graph, where
classes are small beside their neighborhoods; their short phases make
perturbation and its class locks fire.  A change that claims to keep the
solver's behaviour must leave all of it unchanged.

The data in ``golden/`` is regenerated only on purpose, when a change is
meant to alter the search, by running

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import sumcol.tabu_search as tabu_search_module
from sumcol import (
    MemeticParams,
    TabucolParams,
    TabuSearchParams,
    load_dimacs,
    memetic_search,
)
from sumcol.tabu_search import EXCHANGE, RELOCATE, SearchStats, tabu_search
from sumcol.tabucol import initial_coloring

ROOT = Path(__file__).resolve().parent
GOLDEN_PATH = ROOT / "golden" / "myciel5.json"
INSTANCE_PATH = ROOT.parent / "instances" / "myciel5.col"
DENSE_GOLDEN_PATH = ROOT / "golden" / "queen8_8.json"
DENSE_INSTANCE_PATH = ROOT.parent / "instances" / "queen8_8.col"
SPARSE_GOLDEN_PATH = ROOT / "golden" / "myciel7.json"
SPARSE_INSTANCE_PATH = ROOT.parent / "instances" / "myciel7.col"
SPARSE_CASES = ("dnts", "ts-n2")
DESCENT_CASES = {
    # from greedy's k = 9, warm attempts reach 8 and 7, then the warm and the
    # fresh attempt at k = 6 exhaust their budget
    "queen6_6": TabucolParams(iteration_budget=3000, restarts=2),
    # greedy's k = 5 is optimal: the warm attempt and both fresh ones at
    # k = 4 end by the idle stop, then a fresh attempt at k = 5 succeeds
    "myciel4": TabucolParams(),
}

INIT = TabucolParams(iteration_budget=2000, restarts=1)
# Short phases and a low stall limit make perturbation fire several times.
SINGLE = TabuSearchParams(exchange_idle_limit=200, relocate_idle_limit=200,
                          stall_limit=300, iteration_budget=3000)
NEIGHBORHOODS = {
    "dnts": (EXCHANGE, RELOCATE),
    "ts-n1": (EXCHANGE,),
    "ts-n2": (RELOCATE,),
}
SEED = 2013


def _run_masc(graph) -> dict:
    params = MemeticParams(max_generations=5, init=INIT,
                           tabu=TabuSearchParams(iteration_budget=2000))
    improvements: list[int] = []
    generations: list[list[int]] = []
    stats = SearchStats()
    best = memetic_search(
        graph, params, random.Random(SEED),
        on_improve=improvements.append,
        on_generation=lambda _g, pop, _best: generations.append([m.sum for m in pop]),
        stats=stats,
    )
    return {"improvements": improvements, "generations": generations,
            "iterations": stats.iterations, "sum": best.sum, "assignment": best.assignment}


def _run_single(graph, mode: str) -> dict:
    rng = random.Random(SEED)
    start = initial_coloring(graph, INIT, rng)
    improvements: list[list[int]] = []
    stats = SearchStats()
    best = tabu_search(start, graph, SINGLE, rng, neighborhoods=NEIGHBORHOODS[mode],
                       on_improve=lambda s, it: improvements.append([s, it]), stats=stats)
    return {"start": start.assignment, "improvements": improvements,
            "iterations": stats.iterations, "sum": best.sum, "assignment": best.assignment}


def run_case(mode: str, instance_path: Path = INSTANCE_PATH) -> dict:
    """One golden case, with the number of perturbations it went through."""
    graph = load_dimacs(str(instance_path))
    original = tabu_search_module.perturb
    calls = 0

    def counting_perturb(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    tabu_search_module.perturb = counting_perturb
    try:
        out = _run_masc(graph) if mode == "masc" else _run_single(graph, mode)
    finally:
        tabu_search_module.perturb = original
    out["perturbations"] = calls
    return out


def descent_golden_path(name: str) -> Path:
    return ROOT / "golden" / f"{name}.json"


def run_descent_case(name: str) -> dict:
    """``initial_coloring`` on one instance with ``DESCENT_CASES[name]``."""
    graph = load_dimacs(str(ROOT.parent / "instances" / f"{name}.col"))
    rng = random.Random(SEED)
    best = initial_coloring(graph, DESCENT_CASES[name], rng)
    return {"k": best.k, "assignment": best.assignment, "next_bits": rng.getrandbits(64)}


CASES = ("masc",) + tuple(NEIGHBORHOODS)


@pytest.mark.parametrize("mode", CASES)
def test_golden_trajectory_replays(mode):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[mode]
    assert run_case(mode) == expected


def run_dense_case() -> dict:
    """Exchange-only search (``ts-n1``) on queen8_8."""
    return run_case("ts-n1", DENSE_INSTANCE_PATH)


def test_golden_dense_exchange_replays():
    expected = json.loads(DENSE_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_dense_case() == expected


@pytest.mark.parametrize("mode", SPARSE_CASES)
def test_golden_sparse_trajectory_replays(mode):
    expected = json.loads(SPARSE_GOLDEN_PATH.read_text(encoding="utf-8"))[mode]
    assert run_case(mode, SPARSE_INSTANCE_PATH) == expected


def _assert_descent_replays(name: str) -> None:
    expected = json.loads(descent_golden_path(name).read_text(encoding="utf-8"))
    assert run_descent_case(name) == expected


def test_golden_tabucol_descent_replays():
    _assert_descent_replays("queen6_6")


def test_golden_default_descent_replays():
    _assert_descent_replays("myciel4")


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    for path, data in ((GOLDEN_PATH, {mode: run_case(mode) for mode in CASES}),
                       (DENSE_GOLDEN_PATH, run_dense_case()),
                       (SPARSE_GOLDEN_PATH, {mode: run_case(mode, SPARSE_INSTANCE_PATH)
                                             for mode in SPARSE_CASES}),
                       *((descent_golden_path(name), run_descent_case(name)) for name in DESCENT_CASES)):
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
