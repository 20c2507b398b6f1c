import random

import pytest

from sumcol import Coloring, Graph, is_proper
from sumcol.coloring import canonical_relabel
from sumcol.memetic import choose_parent_count, partition_crossover

import oracles


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (10, 3, 2),    # ratio 3.33
        (24, 5, 2),    # ratio 4.8, just under the first threshold
        (25, 5, 3),    # ratio exactly 5
        (100, 10, 3),  # ratio 10
        (150, 10, 3),  # ratio exactly 15
        (151, 10, 4),  # just above
        (1000, 10, 4),
    ],
)
def test_choose_parent_count_bands(n, k, expected):
    assert choose_parent_count(n, k) == expected


def test_choose_parent_count_rejects_bad_k():
    with pytest.raises(ValueError):
        choose_parent_count(10, 0)


def test_crossover_forced_example_respects_donor_cooldown():
    # On an edgeless graph, parent A = {0..4}, {5,6,7} and parent B splits
    # into pairs.  Color 1 must take A's 5-set; A is then barred, so color 2
    # takes B's {6,7} even though A's leftover {5,6,7} would be bigger.
    graph = Graph.from_edges(8, [])
    a = Coloring.from_assignment([1, 1, 1, 1, 1, 2, 2, 2])
    b = Coloring.from_assignment([1, 1, 2, 2, 3, 3, 4, 4])
    for seed in range(5):
        child = partition_crossover([a, b], graph, random.Random(seed))
        assert child.assignment == [1, 1, 1, 1, 1, 3, 2, 2]


def random_parents(rng, n_max=12, parents=2):
    n = rng.randint(parents, n_max)
    edges = oracles.random_gnp(n, 0.35, rng)
    graph = Graph.from_edges(n, edges)
    out = []
    for _ in range(parents):
        assignment = oracles.random_proper_assignment(n, edges, rng)
        out.append(canonical_relabel(Coloring.from_assignment(assignment)))
    return graph, edges, out


@pytest.mark.parametrize("parent_count", [2, 3, 4])
def test_crossover_invariants_on_random_parents(parent_count):
    rng = random.Random(100 + parent_count)
    for _ in range(60):
        graph, edges, parents = random_parents(rng, parents=parent_count)
        child = partition_crossover(parents, graph, rng)
        assert child.n == graph.n
        assert all(c >= 1 for c in child.assignment)
        assert is_proper(child, graph)
        assert child.assignment == canonical_relabel(child).assignment
        # every offspring class is inherited: a subset of some parent class
        for mask in child.class_masks:
            assert any(
                mask & pm == mask for p in parents for pm in p.class_masks
            )


def test_crossover_may_use_more_colors_than_parents():
    # on a 4-cycle: when the 2-coloring parent donates {0,2} first it is
    # barred, and the other parent can only finish with two singletons
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    a = Coloring.from_assignment([1, 2, 1, 2])
    b = Coloring.from_assignment([1, 2, 1, 3])
    seen_k = set()
    for seed in range(40):
        child = partition_crossover([a, b], graph, random.Random(seed))
        assert is_proper(child, graph)
        seen_k.add(child.k)
    assert seen_k == {2, 3}


def test_crossover_rejects_bad_input():
    graph = Graph.from_edges(2, [])
    c = Coloring.from_assignment([1, 1])
    with pytest.raises(ValueError, match="two parents"):
        partition_crossover([c], graph, random.Random(0))
    with pytest.raises(ValueError, match="different vertex sets"):
        partition_crossover([c, Coloring.from_assignment([1, 1, 1])], graph, random.Random(0))
