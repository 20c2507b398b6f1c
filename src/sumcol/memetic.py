"""Memetic minimization of the color sum.

The population, a list of pairwise-distinct canonical proper colorings,
evolves for a fixed number of generations: each generation recombines a few
parents into one offspring (greedy partition crossover), improves it by
tabu search, then decides whether the offspring replaces a member.
Replacement scores every coloring by quality plus a crowding penalty that
grows as its nearest neighbor in the population gets closer, so the pool
keeps both good and mutually distant members.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from .coloring import Coloring, canonical_relabel, hamming_distance, is_proper
from .graph import Graph, bits
from .tabu_search import SearchStats, TabuSearchParams, tabu_search, uniform_min
from .tabucol import generate_population


# The population update's fixed rule: an offspring scored worst of the pool
# still enters with this probability, replacing the worst existing member.
_SECOND_WORST_PROBABILITY = 0.2


class MemeticParams:
    """Population size, generation count, the tabu search settings and the
    number of attempts per TABUCOL call (``init_restarts``).  TABUCOL's
    other rules and the population update's crowding weight and
    worst-offspring probability are fixed (``tabucol``,
    ``update_population``)."""

    def __init__(self, population_size: int = 10, max_generations: int = 50,
                 tabu: TabuSearchParams | None = None, init_restarts: int = 3):
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if init_restarts < 1:
            raise ValueError("init_restarts must be >= 1")
        self.population_size = population_size
        self.max_generations = max_generations
        self.tabu = TabuSearchParams() if tabu is None else tabu
        self.init_restarts = init_restarts


def choose_parent_count(n: int, k: int) -> int:
    """Number of crossover parents, driven by mean class size n/k: 2 below
    5, 3 up to 15, 4 beyond."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ratio = n / k
    if ratio < 5:
        return 2
    if ratio <= 15:
        return 3
    return 4


def partition_crossover(parents: Sequence[Coloring], graph: Graph, rng: random.Random) -> Coloring:
    """Greedy multi-parent crossover building the offspring class by class.

    Offspring color 1, 2, ... each receive the largest class still present
    in any allowed parent (ties uniform over parent/class pairs); its
    vertices are then removed from every parent's copy, and the donating
    parent is barred from donating again for the next len(parents)//2
    colors.  Classes are inherited subsets, so properness is preserved; the
    offspring may use more classes than any parent.  Returns the offspring
    canonically relabeled.
    """
    if len(parents) < 2:
        raise ValueError("crossover needs at least two parents")
    n = parents[0].n
    if any(p.n != n for p in parents):
        raise ValueError("parents color different vertex sets")
    residual = [list(p.class_masks) for p in parents]
    barred_until = [0] * len(parents)  # parent j may donate color c iff barred_until[j] < c
    cooldown = len(parents) // 2
    assignment = [0] * n
    remaining = (1 << n) - 1
    color = 0
    while remaining:
        color += 1
        chosen = uniform_min(
            ((-m.bit_count(), (j, ci))
             for j, barred in enumerate(barred_until) if barred < color
             for ci, m in enumerate(residual[j]) if m),
            rng,
        )
        assert chosen is not None, "no nonempty class among allowed parents"
        j, ci = chosen
        class_mask = residual[j][ci]
        assert class_mask & ~remaining == 0, "vertex would be colored twice"
        for v in bits(class_mask):
            assignment[v] = color
        remaining &= ~class_mask
        for res in residual:
            for idx in range(len(res)):
                if res[idx] & class_mask:
                    res[idx] &= ~class_mask
        barred_until[j] = color + cooldown
    child = canonical_relabel(Coloring.from_assignment(assignment, k=color))
    assert is_proper(child, graph), "crossover produced an improper coloring"
    return child


def diversity_score(index: int, colorings: Sequence[Coloring]) -> float:
    """Replacement score of one coloring within a pool: its sum plus
    exp(0.08 n / d), where n is its vertex count and d the Hamming
    distance to its nearest other member.  Infinite for exact duplicates,
    and where the penalty overflows a float (0.08 n / d above about 709.78,
    so only past n / d = 8872): such a coloring is as close to a duplicate
    as a float can tell.  Higher is worse."""
    me = colorings[index]
    nearest = min(
        hamming_distance(me, other)
        for j, other in enumerate(colorings)
        if j != index
    )
    if nearest == 0:
        return math.inf
    try:
        return me.sum + math.exp(0.08 * me.n / nearest)
    except OverflowError:
        return math.inf


def update_population(population: list[Coloring], offspring: Coloring, rng: random.Random) -> bool:
    """Decide whether canonical ``offspring`` joins ``population``, a list
    of pairwise-distinct canonical colorings, replacing a member in place.

    Offspring duplicating a member is always discarded, with no draw.
    Otherwise the worst-scored coloring (``diversity_score``) of the
    pool-plus-offspring leaves; when that is the offspring itself, with
    probability 0.2 the worst existing member leaves instead and the
    offspring stays.  Returns True iff the offspring entered.  Population
    size is invariant.
    """
    if offspring in population:
        return False
    pool = population + [offspring]
    scores = [diversity_score(i, pool) for i in range(len(pool))]
    negated = [(-score, i) for i, score in enumerate(scores)]
    worst = uniform_min(negated, rng)
    last = len(pool) - 1
    if worst != last:
        population[worst] = offspring
        return True
    if rng.random() < _SECOND_WORST_PROBABILITY:
        population[uniform_min(negated[:last], rng)] = offspring
        return True
    return False


def memetic_search(
    graph: Graph,
    params: MemeticParams,
    rng: random.Random,
    warm_start: Coloring | None = None,
    target: int | None = None,
    validate: bool = False,
    on_improve: Callable[[int], None] | None = None,
    on_generation: Callable[[int, list[Coloring], int], None] | None = None,
    stats: SearchStats | None = None,
) -> Coloring:
    """Full memetic run over a population list of pairwise-distinct
    canonical colorings; returns the best coloring found.

    ``warm_start`` injects one externally supplied proper coloring into the
    initial population.  ``target`` stops the run as soon as the best sum
    reaches it, also inside the population build or an offspring's tabu
    search, which end with the coloring that reaches it; since the
    incumbent never worsens, a run that would reach the target anyway
    returns a coloring within it either way.  The run also stops, without a
    target, once the best sum meets ``graph.sum_bound``, which no coloring
    can beat.  ``on_improve``
    fires with each new best sum (including the initial one),
    ``on_generation(generation, members, best_sum)`` with the population
    list after each population update.  With fewer distinct partitions in
    reach than ``population_size`` the ones found evolve; with fewer than
    two the best returns at once.
    """
    if warm_start is not None and not is_proper(warm_start, graph):
        raise ValueError("warm start coloring is not proper")
    stop = graph.sum_bound if target is None else max(target, graph.sum_bound)
    population = generate_population(graph, params.population_size, params.init_restarts, rng,
                                     include=warm_start, stop_sum=stop)
    best = min(population, key=lambda m: m.sum)
    if on_improve is not None:
        on_improve(best.sum)
    if len(population) < 2:
        return best
    for generation in range(1, params.max_generations + 1):
        if best.sum <= stop:
            break
        smallest_k = min(m.k for m in population)
        count = min(choose_parent_count(graph.n, smallest_k), len(population))
        parents = rng.sample(population, count)
        child = partition_crossover(parents, graph, rng)
        improved = tabu_search(
            child, graph, params.tabu, rng, validate=validate, stats=stats, stop_sum=stop
        )
        if improved.sum < best.sum:
            best = improved
            if on_improve is not None:
                on_improve(best.sum)
        update_population(population, improved, rng)
        if on_generation is not None:
            on_generation(generation, population, best.sum)
    return best
