import math
import pickle
import random

import pytest

from sumcol import Graph, TabucolParams, is_proper
from sumcol.coloring import canonical_relabel
from sumcol.tabucol import (
    PopulationInitError,
    generate_population,
    greedy_coloring,
    initial_coloring,
    tabucol,
)

import oracles


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_greedy_coloring_proper_on_random_graphs():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 15)
        g = Graph.from_edges(n, oracles.random_gnp(n, 0.4, rng))
        c = greedy_coloring(g)
        assert is_proper(c, g)
        assert c.k <= max((g.degree(v) for v in range(n)), default=0) + 1


def test_greedy_coloring_deterministic():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert greedy_coloring(g).assignment == greedy_coloring(g).assignment


def test_tabucol_finds_feasible_k():
    g = complete_graph(4)
    params = TabucolParams(iteration_budget=2000)
    c = tabucol(g, 4, params, random.Random(1))
    assert c is not None
    assert is_proper(c, g)
    assert max(c.assignment) <= 4


def test_tabucol_gives_up_below_chromatic_number():
    g = complete_graph(5)
    params = TabucolParams(iteration_budget=500, restarts=2)
    assert tabucol(g, 4, params, random.Random(1)) is None


class _CountingRandom(random.Random):
    """Counts ``randint`` calls, one per TABUCOL move (its tabu tenure), and
    fails the test instead of letting a search that never stops hang it."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.moves = 0
        self.limit = limit

    def randint(self, a, b):
        self.moves += 1
        assert self.moves <= self.limit, "TABUCOL attempt did not stop"
        return super().randint(a, b)


def test_tabucol_attempt_stops_after_idle_limit(myciel3):
    """Below the chromatic number (4 on myciel3) an attempt with no
    practical budget ends 10,000 iterations after its last new best
    conflict count."""
    rng = _CountingRandom(1, limit=100_000)
    params = TabucolParams(iteration_budget=10**9, restarts=1)
    assert tabucol(myciel3, 3, params, rng) is None


def test_tabucol_one_color_cases():
    empty = Graph.from_edges(3, [])
    c = tabucol(empty, 1, TabucolParams(), random.Random(0))
    assert c is not None and c.assignment == [1, 1, 1]
    edge = Graph.from_edges(2, [(0, 1)])
    assert tabucol(edge, 1, TabucolParams(), random.Random(0)) is None


def test_tabucol_rejects_bad_k():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        tabucol(g, 0, TabucolParams(), random.Random(0))
    with pytest.raises(ValueError):
        tabucol(g, 4, TabucolParams(), random.Random(0))


def test_tabucol_params_validation():
    with pytest.raises(ValueError):
        TabucolParams(iteration_budget=0)
    with pytest.raises(ValueError):
        TabucolParams(restarts=0)
    with pytest.raises(ValueError):
        TabucolParams(tenure_base=-1)
    for slope in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            TabucolParams(tenure_slope=slope)


def test_initial_coloring_is_proper_and_canonical(myciel3):
    c = initial_coloring(myciel3, TabucolParams(), random.Random(9))
    assert is_proper(c, myciel3)
    assert c.assignment == canonical_relabel(c).assignment


def test_generate_population_distinct_and_proper(myciel3):
    members = generate_population(myciel3, 8, TabucolParams(), random.Random(4))
    assert len(members) == 8
    assert len({tuple(m.assignment) for m in members}) == 8
    for m in members:
        assert is_proper(m, myciel3)
        assert m.assignment == canonical_relabel(m).assignment


def test_generate_population_includes_warm_start(myciel3):
    rng = random.Random(5)
    warm = initial_coloring(myciel3, TabucolParams(), rng)
    members = generate_population(myciel3, 6, TabucolParams(), rng, include=warm)
    assert len(members) == 6
    assert tuple(warm.assignment) in {tuple(m.assignment) for m in members}


def test_generate_population_fails_when_too_few_partitions_exist():
    # a complete graph has exactly one partition into independent sets
    g = complete_graph(3)
    with pytest.raises(PopulationInitError, match="n=3") as caught:
        generate_population(g, 5, TabucolParams(iteration_budget=300, restarts=1), random.Random(2))
    # the error carries what was built, also across a process boundary
    assert [m.assignment for m in caught.value.members] == [[1, 2, 3]]
    again = pickle.loads(pickle.dumps(caught.value))
    assert str(again) == str(caught.value)
    assert [m.assignment for m in again.members] == [[1, 2, 3]]
