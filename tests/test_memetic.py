import math
import random
from collections import Counter

import pytest

import sumcol.tabucol as tabucol_module
from sumcol import (
    Coloring,
    MemeticParams,
    TabucolParams,
    TabuSearchParams,
    is_proper,
    memetic_search,
)
from sumcol.coloring import canonical_relabel
from sumcol.memetic import diversity_score, update_population
from sumcol.tabu_search import SearchStats
from sumcol.tabucol import greedy_coloring, initial_coloring

import oracles
from conftest import require_instance


def quick_params(**overrides):
    base = dict(
        tabu=TabuSearchParams(exchange_idle_limit=40, relocate_idle_limit=80,
                              stall_limit=300, iteration_budget=800),
        init=TabucolParams(iteration_budget=20_000),
    )
    base.update(overrides)
    return MemeticParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        MemeticParams(population_size=1)
    with pytest.raises(ValueError):
        MemeticParams(max_generations=0)
    with pytest.raises(ValueError):
        MemeticParams(replace_second_worst_probability=1.5)


def test_diversity_score_formula():
    a = Coloring.from_assignment([1, 1, 1, 1])  # sum 4
    b = Coloring.from_assignment([1, 1, 1, 2])  # distance 1 from a
    c = Coloring.from_assignment([2, 2, 2, 2])  # distance 4 from a, 3 from b
    pool = [a, b, c]
    assert diversity_score(0, pool, 4) == pytest.approx(4 + math.exp(0.08 * 4 / 1))
    assert diversity_score(2, pool, 4) == pytest.approx(8 + math.exp(0.08 * 4 / 3))
    dup = [a, b, Coloring.from_assignment([1, 1, 1, 1])]
    assert diversity_score(0, dup, 4) == math.inf
    assert diversity_score(2, dup, 4) == math.inf


def test_diversity_penalty_past_the_float_range_counts_as_a_duplicate():
    """At n = 9000 two colorings one vertex apart have exp(720) as their
    penalty, past the largest float: both score infinite, and the pool is
    still updated.  At n = 8872, exp(709.76) is still a float."""
    n = 9000
    a = Coloring.from_assignment([1] * n)
    b = Coloring.from_assignment([1] * (n - 1) + [2])
    x = Coloring.from_assignment([2] * n)
    pool = [a, x, b]
    assert diversity_score(0, pool, n) == math.inf
    assert diversity_score(2, pool, n) == math.inf
    assert diversity_score(1, pool, n) == pytest.approx(2 * n + math.exp(0.08 * n / (n - 1)))
    assert diversity_score(0, [Coloring.from_assignment([1] * 8872),
                               Coloring.from_assignment([1] * 8871 + [2])], 8872) < math.inf
    for seed in range(4):
        pop = [a, x]
        entered = update_population(pop, b, random.Random(seed), 0.2)
        # a and b tie as the worst: one of them leaves, never the distant x
        assert pop == ([b, x] if entered else [a, x])


def test_update_population_discards_duplicates():
    pop = [Coloring.from_assignment(x) for x in ([1, 1, 2], [1, 2, 1], [2, 1, 1])]
    clone = Coloring.from_assignment([1, 2, 1])
    assert update_population(pop, clone, random.Random(0), 1.0) is False
    assert [m.assignment for m in pop] == [[1, 1, 2], [1, 2, 1], [2, 1, 1]]


def test_update_population_replaces_scored_worst():
    # all pairs far apart, so the sums dominate the crowding terms
    good = Coloring.from_assignment([1, 1, 1, 1, 2])   # sum 6
    mid = Coloring.from_assignment([2, 2, 2, 1, 1])    # sum 8
    bad = Coloring.from_assignment([3, 3, 2, 2, 1])    # sum 11
    pop = [good, mid, bad]
    newcomer = Coloring.from_assignment([1, 1, 2, 2, 1])  # sum 7
    assert update_population(pop, newcomer, random.Random(0), 0.2) is True
    assert bad not in pop and newcomer in pop
    assert len(pop) == 3


def test_update_population_worst_offspring_needs_the_coin():
    good = Coloring.from_assignment([1, 1, 1, 1, 2])
    mid = Coloring.from_assignment([2, 2, 2, 1, 1])
    worst_member = Coloring.from_assignment([3, 3, 2, 2, 1])
    offspring = Coloring.from_assignment([3, 3, 3, 2, 2])  # sum 13, scored worst
    pop = [good, mid, worst_member]
    assert update_population(pop, offspring, random.Random(0), 0.0) is False
    assert offspring not in pop and worst_member in pop

    pop = [good, mid, worst_member]
    assert update_population(pop, offspring, random.Random(0), 1.0) is True
    assert offspring in pop and worst_member not in pop
    assert good in pop and mid in pop


def test_update_population_keeps_a_distinct_list():
    """Over 300 canonical offspring on a 10-vertex graph, about half of them
    copies of members: the list keeps its size and stays pairwise distinct,
    the return value says whether the offspring entered, an entering
    offspring takes exactly one slot, and a rejected one (every duplicate)
    changes nothing."""
    rng = random.Random(5)
    edges = oracles.random_gnp(10, 0.3, rng)

    def random_canonical():
        colors = oracles.random_proper_assignment(10, edges, rng)
        return canonical_relabel(Coloring.from_assignment(colors))

    population = []
    while len(population) < 5:
        c = random_canonical()
        if c not in population:
            population.append(c)
    outcomes = Counter()
    for _ in range(300):
        if rng.random() < 0.5:
            offspring = Coloring.from_assignment(rng.choice(population).assignment)
        else:
            offspring = random_canonical()
        duplicate = tuple(offspring.assignment) in {tuple(m.assignment) for m in population}
        before = list(population)
        accepted = update_population(population, offspring, rng, 0.5)
        assert len(population) == 5
        assert len({tuple(m.assignment) for m in population}) == 5
        assert accepted == (offspring in population and not duplicate)
        changed = [i for i, (a, b) in enumerate(zip(before, population)) if a is not b]
        if accepted:
            assert len(changed) == 1 and population[changed[0]] is offspring
        else:
            assert changed == []
        outcomes[duplicate, accepted] += 1
    assert outcomes[True, False] >= 100  # duplicates, never accepted
    assert outcomes[False, True] and outcomes[False, False]


def test_memetic_search_reaches_known_optimum(myciel3):
    best = memetic_search(myciel3, quick_params(), random.Random(4), target=21)
    assert best.sum == 21 == sum(best.assignment)
    assert is_proper(best, myciel3)
    assert best.assignment == canonical_relabel(best).assignment


def test_memetic_search_callbacks_and_stats(myciel4):
    stats = SearchStats()
    improvements = []
    generations = []

    def on_gen(gen, population, best_sum):
        generations.append(gen)
        assert len(population) == 4
        keys = {tuple(m.assignment) for m in population}
        assert len(keys) == 4

    params = quick_params(population_size=4, max_generations=5)
    best = memetic_search(
        myciel4, params, random.Random(12),
        on_improve=improvements.append, on_generation=on_gen, stats=stats,
    )
    assert generations == [1, 2, 3, 4, 5]
    assert improvements[0] >= best.sum
    assert improvements == sorted(improvements, reverse=True)
    assert improvements[-1] == best.sum
    assert stats.iterations == 5 * params.tabu.iteration_budget


def test_memetic_search_target_stops_early(myciel3):
    calls = []
    memetic_search(myciel3, quick_params(max_generations=50), random.Random(4),
                   target=21, on_generation=lambda g, p, b: calls.append(g))
    assert len(calls) < 50


def test_memetic_search_returns_a_descent_that_meets_the_sum_bound(monkeypatch):
    """Every 7-coloring of queen7_7 sums to its bound 196: masc returns the
    descent's coloring with no fill attempt and no generation."""
    calls = []
    original = tabucol_module.tabucol
    monkeypatch.setattr(tabucol_module, "tabucol", lambda *args: calls.append(args[1]) or original(*args))
    g = require_instance("queen7_7")
    seed = initial_coloring(g, TabucolParams(), random.Random(8))
    descent = list(calls)
    stats = SearchStats()
    best = memetic_search(g, MemeticParams(), random.Random(8), stats=stats,
                          on_generation=lambda *_: pytest.fail("no generation expected"))
    assert calls == descent * 2
    assert best.assignment == seed.assignment and best.sum == g.sum_bound == 196
    assert stats.iterations == 0


def test_memetic_search_stops_at_the_sum_bound_with_the_full_run_result():
    """queen5_5 from a greedy warm start: the descent's coloring meets the
    bound 75, so no generation runs, and the run returns what a run that
    cannot stop there returns."""
    g = require_instance("queen5_5")
    unbounded = require_instance("queen5_5")
    unbounded._sum_bound = 0  # still a lower bound, but no coloring meets it
    warm = greedy_coloring(g)
    assert warm.sum > g.sum_bound == 75
    params = quick_params(max_generations=3)
    stopped, full = SearchStats(), SearchStats()
    best = memetic_search(g, params, random.Random(2), warm_start=warm, stats=stopped)
    reference = memetic_search(unbounded, params, random.Random(2), warm_start=warm, stats=full)
    assert best.assignment == reference.assignment and best.sum == 75
    assert stopped.iterations == 0 < full.iterations


def test_memetic_search_warm_start(myciel3):
    rng = random.Random(30)
    warm = memetic_search(myciel3, quick_params(max_generations=2), rng)
    improvements = []
    best = memetic_search(
        myciel3, quick_params(max_generations=2), rng,
        warm_start=warm, on_improve=improvements.append,
    )
    assert best.sum <= warm.sum
    assert improvements[0] <= warm.sum  # warm member bounds the initial best


def test_memetic_search_rejects_improper_warm_start(myciel3):
    broken = Coloring.from_assignment([1] * myciel3.n)
    with pytest.raises(ValueError, match="proper"):
        memetic_search(myciel3, quick_params(), random.Random(0), warm_start=broken)
