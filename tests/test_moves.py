import random
from collections import Counter

import pytest

from sumcol import Coloring, Graph, is_proper
from sumcol.graph import bits
from sumcol.tabu_search import (
    RelocateMove,
    TabuState,
    apply_move,
    enumerate_exchange_moves,
    enumerate_relocate_moves,
    perturb,
    select_move,
    uniform_min,
)

import oracles


def random_pair(rng, n_max=10, p=0.4):
    n = rng.randint(2, n_max)
    edges = oracles.random_gnp(n, p, rng)
    graph = Graph.from_edges(n, edges)
    assignment = oracles.random_proper_assignment(n, edges, rng)
    k = max(assignment) + (1 if rng.random() < 0.3 else 0)  # sometimes a spare empty class
    return graph, edges, Coloring.from_assignment(assignment, k=k)


def test_exchange_moves_match_oracle():
    rng = random.Random(17)
    for _ in range(40):
        graph, edges, coloring = random_pair(rng)
        ours = {
            (frozenset(bits(m.mask)), m.color_a, m.color_b, m.delta)
            for m in enumerate_exchange_moves(coloring, graph)
        }
        reference = oracles.naive_exchange_moves(graph.n, edges, coloring.assignment)
        assert ours == reference


def test_exchange_enumeration_never_calls_the_engine_search(monkeypatch):
    """``--validate`` checks the engine against ``enumerate_exchange_moves``:
    with the engine's component search broken, it still finds every move."""
    def engine_search(graph, mask, side):
        raise AssertionError("the reference called the engine's component search")

    monkeypatch.setattr(Graph, "component_masks", engine_search)
    rng = random.Random(41)
    for _ in range(40):
        graph, edges, coloring = random_pair(rng, n_max=14, p=rng.choice((0.2, 0.4)))
        ours = {
            (frozenset(bits(m.mask)), m.color_a, m.color_b, m.delta)
            for m in enumerate_exchange_moves(coloring, graph)
        }
        assert ours == oracles.naive_exchange_moves(graph.n, edges, coloring.assignment)


def test_linked_union_components_are_the_exchange_components():
    # Both classes are independent sets, so a vertex with no neighbor in the
    # other class is a singleton of their union: dropping every such vertex
    # must leave exactly the 2+-vertex components, in the same order.
    rng = random.Random(29)
    for _ in range(60):
        graph, edges, coloring = random_pair(rng, n_max=16, p=rng.choice((0.1, 0.25, 0.5)))
        adj = oracles.adjacency_sets(graph.n, edges)
        assignment = coloring.assignment
        for a in range(1, coloring.k + 1):
            for b in range(a + 1, coloring.k + 1):
                other = {a: b, b: a}
                linked = sum(1 << v for v, c in enumerate(assignment)
                             if c in other and any(assignment[u] == other[c] for u in adj[v]))
                union = coloring.class_masks[a - 1] | coloring.class_masks[b - 1]
                expected = [m for m in graph.reference_components(union) if m & (m - 1)]
                assert graph.reference_components(linked) == expected
                assert graph.component_masks(linked, coloring.class_masks[a - 1]) == expected


def test_exchange_move_counts_are_consistent():
    rng = random.Random(19)
    for _ in range(20):
        graph, _, coloring = random_pair(rng)
        for m in enumerate_exchange_moves(coloring, graph):
            members = tuple(bits(m.mask))
            in_a = sum(1 for v in members if coloring.assignment[v] == m.color_a)
            count_a = (m.mask & coloring.class_masks[m.color_a - 1]).bit_count()
            count_b = (m.mask & coloring.class_masks[m.color_b - 1]).bit_count()
            assert count_a == in_a
            assert count_b == len(members) - in_a
            assert count_a >= 1 and count_b >= 1
            assert m.delta == (m.color_b - m.color_a) * (count_a - count_b)


def test_relocate_moves_match_oracle():
    rng = random.Random(23)
    for _ in range(40):
        graph, edges, coloring = random_pair(rng)
        ours = {
            (m.vertex, m.source, m.target, m.delta)
            for m in enumerate_relocate_moves(coloring, graph)
        }
        reference = oracles.naive_relocate_moves(graph.n, edges, coloring.assignment, coloring.k)
        assert ours == reference


def test_applied_moves_keep_properness_and_deltas():
    rng = random.Random(31)
    for _ in range(15):
        graph, _, coloring = random_pair(rng, n_max=12)
        tabu = TabuState()
        for _ in range(30):
            moves = enumerate_exchange_moves(coloring, graph) + enumerate_relocate_moves(coloring, graph)
            if not moves:
                break
            move = rng.choice(moves)
            before = coloring.sum
            apply_move(coloring, move, tabu, rng)
            assert coloring.sum == before + move.delta
            assert coloring.sum == oracles.naive_sum(coloring.assignment)
            assert is_proper(coloring, graph)


def test_exchange_is_self_inverse():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    coloring = Coloring.from_assignment([1, 2, 1])
    (move,) = enumerate_exchange_moves(coloring, graph)
    assert tuple(bits(move.mask)) == (0, 1, 2)
    rng = random.Random(0)
    apply_move(coloring, move, TabuState(), rng)
    assert coloring.assignment == [2, 1, 2]
    apply_move(coloring, move, TabuState(), rng)
    assert coloring.assignment == [1, 2, 1]


def test_tabu_state_expiry_semantics():
    tabu = TabuState()
    tabu.pair_until[(1, 2)] = 5
    assert tabu.exchange_tabu(1, 2, at=5)
    assert tabu.exchange_tabu(2, 1, at=5)
    assert not tabu.exchange_tabu(1, 2, at=6)
    tabu.vertex_until[(7, 2)] = 3
    assert tabu.relocate_tabu(7, 1, 2, at=3)
    assert tabu.relocate_tabu(7, 4, 2, at=3)
    assert not tabu.relocate_tabu(7, 1, 2, at=4)
    assert not tabu.relocate_tabu(7, 1, 3, at=3)


def test_drop_expired_keeps_exactly_the_live_locks():
    tabu = TabuState()
    tabu.vertex_until.update({(0, 1): 4, (1, 2): 5, (2, 1): 9})
    tabu.class_until.update({1: 3, 2: 5})
    tabu.pair_until[(1, 2)] = 2
    tabu.drop_expired(at=5)
    assert tabu.vertex_until == {(1, 2): 5, (2, 1): 9}
    assert tabu.class_until == {2: 5}
    assert tabu.pair_until == {(1, 2): 2}  # pair locks are not pruned
    tabu.drop_expired(at=10)
    assert tabu.vertex_until == {} and tabu.class_until == {}


def test_class_locks_block_both_neighborhoods():
    tabu = TabuState()
    tabu.class_until[3] = 4
    assert tabu.exchange_tabu(1, 3, at=4)
    assert tabu.exchange_tabu(3, 5, at=4)
    assert not tabu.exchange_tabu(1, 2, at=4)
    assert tabu.relocate_tabu(0, 3, 1, at=4)
    assert tabu.relocate_tabu(0, 1, 3, at=4)
    assert not tabu.relocate_tabu(0, 1, 2, at=4)
    assert not tabu.exchange_tabu(1, 3, at=5)


def test_apply_move_records_tenure_in_range():
    rng = random.Random(2)
    for _ in range(50):
        coloring = Coloring.from_assignment([1, 1, 2, 3], k=3)
        tabu = TabuState()
        tabu.iteration = 10
        move = RelocateMove(0, 1, 2, 1)
        apply_move(coloring, move, tabu, rng)
        assert 11 <= tabu.vertex_until[(0, 1)] <= 11 + coloring.k - 1


def test_select_move_picks_minimum_delta():
    moves = [
        RelocateMove(0, 3, 2, -1),
        RelocateMove(1, 3, 1, -2),
        RelocateMove(2, 1, 2, 1),
    ]
    chosen = select_move(moves, TabuState(), best_sum=10, current_sum=10, rng=random.Random(0))
    assert chosen == moves[1]


def test_select_move_respects_tabu_and_aspiration():
    move = RelocateMove(0, 2, 1, -1)
    tabu = TabuState()
    tabu.vertex_until[(0, 1)] = 1  # active at the next iteration
    # aspiration: current == best, so a -1 move would beat the best
    assert select_move([move], tabu, best_sum=10, current_sum=10, rng=random.Random(0)) == move
    # no aspiration: the best is already 5 below the current sum
    assert select_move([move], tabu, best_sum=5, current_sum=10, rng=random.Random(0)) is None


def test_select_move_breaks_ties_uniformly():
    a = RelocateMove(0, 2, 1, -1)
    b = RelocateMove(1, 2, 1, -1)
    rng = random.Random(77)
    picks = {a: 0, b: 0}
    for _ in range(400):
        picks[select_move([a, b], TabuState(), 10, 10, rng)] += 1
    assert picks[a] > 120 and picks[b] > 120


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_uniform_min_draws_once_per_tie_and_picks_uniformly(m):
    assert uniform_min([], random.Random(0)) is None
    tied = [(-1, f"t{i}") for i in range(m)]
    # a tie at a larger key before the minimum, and a larger key after it
    candidates = [(4, "before"), (4, "also before")] + tied[:1] + [(2, "after")] + tied[1:]
    for seed in range(5):
        rng, reference = random.Random(seed), random.Random(seed)
        # one draw over the final ties, none for a unique minimum
        r = reference.randrange(m) if m > 1 else 0
        assert uniform_min(candidates, rng) == tied[r][1]
        assert rng.getstate() == reference.getstate()
    seeds = 2000
    picks = Counter(uniform_min(candidates, random.Random(seed)) for seed in range(seeds))
    assert set(picks) == {item for _, item in tied}
    for count in picks.values():
        assert abs(count / seeds - 1 / m) < 0.04


def test_perturb_splits_largest_class():
    base = Coloring.from_assignment([1, 1, 1, 1, 1, 1, 2, 2, 3])
    tabu = TabuState()
    tabu.iteration = 100
    moved = perturb(base, tabu, random.Random(6))
    assert base.assignment == [1, 1, 1, 1, 1, 1, 2, 2, 3]  # input untouched
    assert moved.k == 4
    movers = [v for v in range(9) if moved.assignment[v] == 4]
    assert len(movers) == 2  # a third of the six-vertex class
    assert all(base.assignment[v] == 1 for v in movers)
    assert set(tabu.class_until) == {1, 4}
    for expiry in tabu.class_until.values():
        assert 100 <= expiry <= 100 + moved.k - 1


def test_perturb_on_tiny_class_allocates_empty_class():
    base = Coloring.from_assignment([1, 1, 2])
    tabu = TabuState()
    moved = perturb(base, tabu, random.Random(1))
    assert moved.k == 3
    assert moved.assignment == base.assignment  # 2 // 3 == 0 vertices move
    assert set(tabu.class_until) == {1, 3}


def test_perturb_preserves_properness():
    rng = random.Random(41)
    for _ in range(20):
        graph, _, coloring = random_pair(rng, n_max=12)
        moved = perturb(coloring, TabuState(), rng)
        assert is_proper(moved, graph)
        assert moved.sum == oracles.naive_sum(moved.assignment)
