import random

import pytest

from sumcol import Coloring, Graph, TabuSearchParams, is_proper
import sumcol.tabu_search as tabu_search_module
from sumcol.coloring import canonical_relabel
from sumcol.graph import bits
from sumcol.tabu_search import (
    _COMPONENT_MEMO_SIZE,
    EXCHANGE,
    RELOCATE,
    SearchStats,
    TabuSearchRun,
    TabuState,
    _pair_exchanges,
    enumerate_exchange_moves,
    enumerate_relocate_moves,
    perturb,
    select_move,
    tabu_search,
)
from sumcol.tabucol import greedy_coloring, initial_coloring

import oracles
from conftest import require_instance


def small_params(**overrides):
    base = dict(exchange_idle_limit=60, relocate_idle_limit=120,
                stall_limit=400, iteration_budget=1500)
    base.update(overrides)
    return TabuSearchParams(**base)


def test_params_validation():
    for name in ("exchange_idle_limit", "relocate_idle_limit", "stall_limit", "iteration_budget"):
        with pytest.raises(ValueError):
            TabuSearchParams(**{name: 0})


def test_validated_run_improves_small_instance(myciel3):
    rng = random.Random(13)
    start = initial_coloring(myciel3, 3, rng)
    stats = SearchStats()
    out = tabu_search(start, myciel3, small_params(), rng, validate=True, stats=stats)
    assert is_proper(out, myciel3)
    assert out.sum <= start.sum
    assert out.sum == sum(out.assignment)
    assert out.assignment == canonical_relabel(out).assignment
    assert stats.iterations == 1500


def test_validated_run_exercises_perturbation(myciel3):
    rng = random.Random(3)
    start = initial_coloring(myciel3, 3, rng)
    # a tiny stall limit forces several perturbations inside the budget
    out = tabu_search(start, myciel3, small_params(stall_limit=80), rng, validate=True)
    assert is_proper(out, myciel3)
    assert out.sum <= start.sum


def test_validated_single_neighborhood_runs(myciel3):
    for kinds in ((EXCHANGE,), (RELOCATE,)):
        rng = random.Random(8)
        start = initial_coloring(myciel3, 3, rng)
        out = tabu_search(start, myciel3, small_params(), rng,
                          neighborhoods=kinds, validate=True)
        assert is_proper(out, myciel3)
        assert out.sum <= start.sum


def test_validated_runs_on_random_graphs():
    rng = random.Random(55)
    for _ in range(6):
        n = rng.randint(4, 12)
        edges = oracles.random_gnp(n, 0.4, rng)
        graph = Graph.from_edges(n, edges)
        assignment = oracles.random_proper_assignment(n, edges, rng)
        start = Coloring.from_assignment(assignment)
        params = small_params(iteration_budget=600, stall_limit=150)
        out = tabu_search(start, graph, params, rng, validate=True)
        assert is_proper(out, graph)
        assert out.sum <= start.sum


def _superseded_draws(moves, tabu, best_sum, current_sum):
    """Ties ``select_move`` meets at a delta above the one it returns; none
    of them may draw."""
    at = tabu.iteration + 1
    gap = best_sum - current_sum
    keys = [m.delta for m in moves
            if m.delta < gap or not tabu.relocate_tabu(m.vertex, m.source, m.target, at)]
    final = min(keys, default=None)
    draws = 0
    best = None
    for key in keys:
        if best is None or key < best:
            best = key
        elif key == best and key > final:
            draws += 1
    return draws


def test_relocation_selection_matches_select_move_on_random_graphs():
    rng = random.Random(71)
    superseded = blocked = 0
    for case in range(80):
        n = rng.randint(1, 14)
        edges = oracles.random_gnp(n, rng.choice((0.15, 0.35, 0.6)), rng)
        graph = Graph.from_edges(n, edges)
        assignment = oracles.random_proper_assignment(n, edges, rng)
        # sometimes spare empty classes
        start = Coloring.from_assignment(assignment, k=max(assignment) + rng.randint(0, 2))
        run = TabuSearchRun(start, graph, small_params(), random.Random(case))
        k = run.current.k
        tabu = run.tabu
        tabu.iteration = 10
        at = 11
        # active (>= at) and expired locks; selection prunes the expired ones
        for _ in range(rng.randint(0, 2 * n)):
            key = (rng.randrange(n), rng.randint(1, k))
            tabu.vertex_until[key] = rng.randint(5, 15)
        for c in rng.sample(range(1, k + 1), rng.randint(0, min(k, 2))):
            tabu.class_until[c] = rng.choice((9, 10, 11, 14))
        run.best.sum = run.current.sum + rng.choice((-3, -1, 0, 0, 1, 2))
        state = run.rng.getstate()
        before = TabuState(tabu.iteration, tabu.pair_until, dict(tabu.vertex_until), tabu.class_until)
        move = run._select_relocate(at)
        reference_rng = random.Random()
        reference_rng.setstate(state)
        moves = enumerate_relocate_moves(run.current, graph)
        assert move == select_move(moves, before, run.best.sum, run.current.sum, reference_rng)
        assert run.rng.getstate() == reference_rng.getstate()
        assert run.tabu.vertex_until == {
            key: until for key, until in before.vertex_until.items() if until >= at}
        assert run.tabu.class_until == {c: until for c, until in before.class_until.items() if until >= at}
        superseded += _superseded_draws(moves, before, run.best.sum, run.current.sum) > 0
        blocked += move is None
    assert superseded and blocked


def _drop_a_class_member(run):
    # dropping a vertex from its own class keeps the coloring "proper" to
    # is_proper, so only the mask cross-check can notice
    run.current.class_masks[0] &= ~(1 << run.current.class_members(1)[0])


def _flip_an_isolated_vertex_bit(run):
    run.isolated[0] ^= 1


def _drop_a_cached_exchange(run):
    # a selection brings every pair's row up to date; stale rows are skipped
    run._select_exchange(1)
    row = next(row for row in run.pair_cache if any(entry[3] for entry in row))
    b = next(b for b, entry in enumerate(row) if entry[3])
    mask_a, mask_b, low, moves = row[b]
    row[b] = (mask_a, mask_b, low, moves[:-1])


def _recolor_next_to_a_neighbor(run):
    # recolor keeps the masks and the sum in step, so only is_proper notices
    run.current.recolor(0, run.current.assignment[run.graph.adj_lists[0][0]])


def _bump_the_cached_sum(run):
    run.current.sum += 1


@pytest.mark.parametrize("corrupt, message", [
    (_drop_a_class_member, "class masks"),
    (_recolor_next_to_a_neighbor, "became improper"),
    (_bump_the_cached_sum, "cached sum"),
    (_flip_an_isolated_vertex_bit, "isolated-vertex mask"),
    (_drop_a_cached_exchange, "pair cache"),
], ids=["class-mask", "improper", "cached-sum", "isolated-mask", "pair-cache"])
def test_validation_catches_a_corrupted_class_mask(myciel3, corrupt, message):
    start = initial_coloring(myciel3, 3, random.Random(1))
    run = TabuSearchRun(start, myciel3, small_params(), random.Random(0), validate=True)
    run._check_state()
    corrupt(run)
    with pytest.raises(AssertionError, match=message):
        run._check_state()


def _searched_masks(monkeypatch) -> list[tuple[int, int]]:
    """Record the linked set and the side of every call to
    ``Graph.component_masks``."""
    searched = []
    search = Graph.component_masks
    monkeypatch.setattr(Graph, "component_masks",
                        lambda graph, mask, side: searched.append((mask, side)) or search(graph, mask, side))
    return searched


def test_exchange_rows_are_reused_when_the_class_masks_return(myciel4, monkeypatch):
    """A row is keyed by the two class masks it was built from: an exchange
    applied twice restores both, so the next selection searches no
    component again, even with the component memo emptied."""
    start = initial_coloring(myciel4, 3, random.Random(1))
    run = TabuSearchRun(start, myciel4, small_params(), random.Random(0))
    move = run._select_exchange(1)
    assert move is not None
    run._apply(move)
    assert run.current.class_masks != start.class_masks
    run._apply(move)
    assert run.current.class_masks == start.class_masks
    run._components.clear()
    searched = _searched_masks(monkeypatch)
    run._select_exchange(1)
    assert searched == []


def test_no_linked_set_is_searched_twice_below_the_memo_size(monkeypatch):
    """The component lists of a call are remembered by linked vertex set:
    while the memo holds them all, no set goes to the search twice."""
    queen8_8 = require_instance("queen8_8")
    rng = random.Random(4)
    start = initial_coloring(queen8_8, 3, rng)
    searched = _searched_masks(monkeypatch)
    tabu_search(start, queen8_8, small_params(iteration_budget=300), rng, neighborhoods=(EXCHANGE,))
    assert 0 < len(searched) < _COMPONENT_MEMO_SIZE
    assert len({mask for mask, _ in searched}) == len(searched)


def test_component_memo_stays_within_its_size(monkeypatch):
    myciel7 = require_instance("myciel7")
    rng = random.Random(6)
    start = initial_coloring(myciel7, 3, rng)
    searched = _searched_masks(monkeypatch)
    sizes = []
    phase = TabuSearchRun.run_phase

    def checked(run, kind, idle_limit):
        phase(run, kind, idle_limit)
        sizes.append(len(run._components))

    monkeypatch.setattr(TabuSearchRun, "run_phase", checked)
    tabu_search(start, myciel7, TabuSearchParams(iteration_budget=3000), rng)
    # more searches than the memo holds, so it has filled at least once
    assert len(searched) > _COMPONENT_MEMO_SIZE
    assert 0 < max(sizes) <= _COMPONENT_MEMO_SIZE


def _random_start(rng):
    n = rng.randint(6, 20)
    edges = oracles.random_gnp(n, rng.choice((0.2, 0.4)), rng)
    graph = Graph.from_edges(n, edges)
    return graph, Coloring.from_assignment(oracles.random_proper_assignment(n, edges, rng))


@pytest.mark.parametrize("neighborhoods", [(EXCHANGE, RELOCATE), (EXCHANGE,)], ids=["both", "exchange"])
def test_every_searched_set_is_linked_across_its_side(neighborhoods, monkeypatch):
    """``Graph.component_masks`` is handed only sets in which the side
    splits off an independent set from an independent set, and every
    vertex has a neighbor in the set on the other side: on random graphs,
    myciel7 and queen8_8, with perturbations."""
    searched = _searched_masks(monkeypatch)
    perturbed = []
    monkeypatch.setattr(tabu_search_module, "perturb",
                        lambda *args: perturbed.append(1) or perturb(*args))
    params = small_params(iteration_budget=600, exchange_idle_limit=30,
                          relocate_idle_limit=60, stall_limit=100)
    rng = random.Random(21)
    starts = [_random_start(rng) for _ in range(8)]
    for name in ("myciel7", "queen8_8"):
        graph = require_instance(name)
        starts.append((graph, initial_coloring(graph, 3, rng)))
    for graph, start in starts:
        searched.clear()
        tabu_search(start, graph, params, rng, neighborhoods=neighborhoods)
        for mask, side in searched:
            for v in bits(mask):
                same = side if side >> v & 1 else ~side
                assert not graph.adj_masks[v] & mask & same
                assert graph.adj_masks[v] & mask & ~same
        assert searched or start.sum == graph.sum_bound
    assert perturbed


def _live_rows(run):
    """(a, b, row) of every pair-cache row built from the live class masks."""
    masks = run.current.class_masks
    for a, row in enumerate(run.pair_cache[1:], 1):
        for b, entry in enumerate(row[1:], 1):
            if entry[0] == masks[a - 1] and entry[1] == masks[b - 1]:
                yield a, b, entry


def test_exchange_rows_hold_only_their_pairs_cheapest_moves():
    """After a selection every pair of non-empty classes has a live row, and
    it holds the pair's minimum delta and exactly the moves of that delta,
    in component order."""
    rng = random.Random(37)
    trimmed = 0
    for case in range(40):
        n = rng.randint(4, 14)
        edges = oracles.random_gnp(n, rng.choice((0.2, 0.4, 0.6)), rng)
        graph = Graph.from_edges(n, edges)
        start = Coloring.from_assignment(oracles.random_proper_assignment(n, edges, rng))
        run = TabuSearchRun(start, graph, small_params(), random.Random(case))
        for at in range(1, 6):
            move = run._select_exchange(at)
            masks = run.current.class_masks
            nonempty = [c for c in range(1, run.current.k + 1) if masks[c - 1]]
            pairs = []
            for a, b, (_, _, low, ties) in _live_rows(run):
                moves = _pair_exchanges(run.current, graph, a, b)
                assert low == min((m.delta for m in moves), default=run.current.k * n)
                assert ties == [(m.mask, a, b) for m in moves if m.delta == low]
                trimmed += len(ties) < len(moves)
                pairs.append((a, b))
            assert pairs == [(a, b) for i, a in enumerate(nonempty) for b in nonempty[i + 1:]]
            if move is None:
                break
            run._apply(move)
            run.tabu.iteration = at
    assert trimmed > 20


class _FixedDraw:
    """Stands in for the search's random.Random: every draw returns ``index``."""

    def __init__(self, index):
        self.index = index
        self.ties = 1

    def randrange(self, n):
        self.ties = n
        return self.index


def _exchange_ties(run, at):
    """The tie list ``_select_exchange`` draws from, in order, read back one
    draw index at a time."""
    run.rng = _FixedDraw(0)
    first = run._select_exchange(at)
    if first is None:
        return []
    ties = [first]
    for index in range(1, run.rng.ties):
        run.rng = _FixedDraw(index)
        ties.append(run._select_exchange(at))
    return ties


def test_a_locked_pair_offers_only_its_aspiring_cheapest_moves():
    """A locked pair whose cheapest move aspirates while a costlier move of
    the same pair does not: the selection is ``select_move``'s over the full
    enumeration, its tie list is the reference's, and the costlier move is
    never in it."""
    rng = random.Random(47)
    offered = 0
    for case in range(300):
        n = rng.randint(5, 14)
        edges = oracles.random_gnp(n, rng.choice((0.2, 0.35, 0.5)), rng)
        graph = Graph.from_edges(n, edges)
        start = Coloring.from_assignment(oracles.random_proper_assignment(n, edges, rng))
        moves = enumerate_exchange_moves(start, graph)
        deltas = {}
        for m in moves:
            deltas.setdefault((m.color_a, m.color_b), set()).add(m.delta)
        pairs = sorted(pair for pair, seen in deltas.items() if len(seen) > 1)
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        cheapest, costlier = sorted(deltas[(a, b)])[:2]
        run = TabuSearchRun(start, graph, small_params(), random.Random(case))
        tabu = run.tabu
        tabu.iteration = 10
        at = 11
        if rng.random() < 0.5:
            tabu.pair_until[(a, b)] = rng.choice((11, 14))
        else:
            tabu.class_until[rng.choice((a, b))] = rng.choice((11, 14))
        for pair in deltas:
            if pair != (a, b) and rng.random() < 0.5:
                tabu.pair_until[pair] = rng.choice((9, 11, 14))
        # the pair's cheapest moves aspirate, its costlier ones do not
        gap = rng.randint(cheapest + 1, costlier)
        run.best.sum = run.current.sum + gap
        before = TabuState(tabu.iteration, tabu.pair_until, tabu.vertex_until, tabu.class_until)
        state = run.rng.getstate()
        move = run._select_exchange(at)
        reference_rng = random.Random()
        reference_rng.setstate(state)
        assert move == select_move(moves, before, run.best.sum, run.current.sum, reference_rng)
        assert run.rng.getstate() == reference_rng.getstate()
        admissible = [m for m in moves if m.delta < gap or not before.exchange_tabu(m.color_a, m.color_b, at)]
        low = min(m.delta for m in admissible)
        ties = _exchange_ties(run, at)
        assert ties == [m for m in admissible if m.delta == low]
        assert all(m.delta == cheapest for m in ties if (m.color_a, m.color_b) == (a, b))
        offered += any((m.color_a, m.color_b) == (a, b) for m in ties)
    assert offered > 30


def test_validation_catches_a_wrong_memoized_component_list(myciel4):
    """A memoized list with one extra component, a whole class, which costs
    more than every real move of its pair and so never changes a selection:
    only the cross-check of the rows it fed can notice."""
    start = initial_coloring(myciel4, 3, random.Random(1))
    run = TabuSearchRun(start, myciel4, small_params(), random.Random(0), validate=True)
    masks = run.current.class_masks
    k = run.current.k
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            linked = (masks[a - 1] & ~run.isolated[b - 1]) | (masks[b - 1] & ~run.isolated[a - 1])
            if linked:
                run._components[linked] = myciel4.reference_components(linked) + [masks[a - 1]]
    # the first selection builds every row; those of the pairs the move
    # leaves alone are checked after it
    with pytest.raises(AssertionError, match="pair cache out of sync"):
        run.run_phase(EXCHANGE, 1)


def test_validation_catches_a_selection_the_reference_would_not_make(myciel3):
    start = initial_coloring(myciel3, 3, random.Random(1))
    run = TabuSearchRun(start, myciel3, small_params(), random.Random(0), validate=True)
    tabu = TabuState(run.tabu.iteration, run.tabu.pair_until, dict(run.tabu.vertex_until),
                     run.tabu.class_until)
    state = run.rng.getstate()
    move = run._select_relocate(1)
    run._check_selection(RELOCATE, move, tabu, state)
    other = next(m for m in enumerate_relocate_moves(run.current, myciel3) if m != move)
    with pytest.raises(AssertionError, match="selection mismatch"):
        run._check_selection(RELOCATE, other, tabu, state)
    # the same move reached with one extra draw still fails
    run.rng.random()
    with pytest.raises(AssertionError, match="random stream"):
        run._check_selection(RELOCATE, move, tabu, state)


def _relocation_only_search(graph, validate=False):
    rng = random.Random(5)
    start = initial_coloring(graph, 3, rng)
    tabu_search(start, graph, small_params(), rng, neighborhoods=(RELOCATE,), validate=validate)


def test_relocation_selection_keeps_only_live_locks(myciel4, monkeypatch):
    select = TabuSearchRun._select_relocate
    sizes = []

    def checked(run, at):
        move = select(run, at)
        locks = run.tabu.vertex_until
        assert all(until >= run.tabu.iteration + 1 for until in locks.values())
        assert len(locks) <= run.current.k
        sizes.append(len(locks))
        return move

    monkeypatch.setattr(TabuSearchRun, "_select_relocate", checked)
    _relocation_only_search(myciel4)
    assert len(sizes) == 1500 and max(sizes) > 0


def test_selections_keep_only_live_class_locks(myciel4, monkeypatch):
    """A perturbation's class locks are dropped by the first selection of
    either neighborhood after they expire."""
    seen = []
    for name in ("_select_exchange", "_select_relocate"):
        def checked(run, at, select=getattr(TabuSearchRun, name)):
            had_locks = bool(run.tabu.class_until)
            move = select(run, at)
            assert all(until >= at for until in run.tabu.class_until.values())
            seen.append((had_locks, bool(run.tabu.class_until)))
            return move

        monkeypatch.setattr(TabuSearchRun, name, checked)
    rng = random.Random(5)
    start = initial_coloring(myciel4, 3, rng)
    tabu_search(start, myciel4, small_params(stall_limit=80), rng, validate=True)
    assert len(seen) == 1500
    # locks were live at some selections and dropped at a later one
    assert (True, True) in seen and (True, False) in seen


def test_validation_catches_a_prune_that_drops_a_live_lock(myciel4, monkeypatch):
    select = TabuSearchRun._select_relocate

    def over_pruned(run, at):
        # a lock that expires at this very iteration is still live
        run.tabu.vertex_until = {key: until for key, until in run.tabu.vertex_until.items() if until > at}
        return select(run, at)

    _relocation_only_search(myciel4, validate=True)
    monkeypatch.setattr(TabuSearchRun, "_select_relocate", over_pruned)
    # a different move, or the same one reached with different draws
    with pytest.raises(AssertionError, match="selection (mismatch|consumed)"):
        _relocation_only_search(myciel4, validate=True)


def test_on_improve_reports_strictly_decreasing_sums(myciel4):
    rng = random.Random(21)
    start = initial_coloring(myciel4, 3, rng)
    seen = []
    tabu_search(start, myciel4, small_params(iteration_budget=4000), rng,
                on_improve=lambda s, it: seen.append((s, it)))
    sums = [s for s, _ in seen]
    assert sums == sorted(sums, reverse=True)
    assert len(set(sums)) == len(sums)
    assert all(s < start.sum for s in sums)
    iterations = [it for _, it in seen]
    assert iterations == sorted(iterations)


def test_budget_is_respected_exactly(myciel3):
    rng = random.Random(2)
    start = initial_coloring(myciel3, 3, rng)
    stats = SearchStats()
    tabu_search(start, myciel3, small_params(iteration_budget=777), rng, stats=stats)
    assert stats.iterations == 777


def test_search_ends_when_its_best_meets_the_sum_bound():
    """The call ends at the iteration its best meets ``graph.sum_bound`` and
    returns what the full budget returns: no later move can beat it."""
    g = require_instance("queen5_5")
    unbounded = require_instance("queen5_5")
    unbounded._sum_bound = 0  # still a lower bound, but no coloring meets it
    start = greedy_coloring(g)
    params = small_params(iteration_budget=3000)
    stopped, full = SearchStats(), SearchStats()
    seen = []
    best = tabu_search(start, g, params, random.Random(4), validate=True,
                       on_improve=lambda s, it: seen.append((s, it)), stats=stopped)
    reference = tabu_search(start, unbounded, params, random.Random(4), stats=full)
    assert best.assignment == reference.assignment and best.sum == g.sum_bound == 75
    assert seen[-1] == (75, stopped.iterations)
    assert 0 < stopped.iterations < full.iterations == 3000


def test_search_gathers_an_edgeless_graph_into_one_class():
    """Relocations empty every class but one under validation, and the call
    ends when the sum reaches n, the bound."""
    g = Graph.from_edges(4, [])
    stats = SearchStats()
    best = tabu_search(Coloring.from_assignment([1, 2, 3, 4]), g, small_params(), random.Random(3),
                       validate=True, stats=stats)
    assert best.assignment == [1, 1, 1, 1]
    assert 0 < stats.iterations < 1500


def test_a_start_at_the_sum_bound_is_returned_without_an_iteration(queen5_5):
    start = initial_coloring(queen5_5, 3, random.Random(1))
    stats = SearchStats()
    best = tabu_search(start, queen5_5, small_params(), random.Random(0), stats=stats)
    assert best.assignment == start.assignment and best.sum == queen5_5.sum_bound
    assert stats.iterations == 0


def test_same_seed_same_result(myciel3):
    start = initial_coloring(myciel3, 3, random.Random(1))
    a = tabu_search(start, myciel3, small_params(), random.Random(42))
    b = tabu_search(start, myciel3, small_params(), random.Random(42))
    assert a.assignment == b.assignment


def test_input_coloring_is_not_mutated(myciel3):
    start = initial_coloring(myciel3, 3, random.Random(1))
    snapshot = list(start.assignment)
    tabu_search(start, myciel3, small_params(), random.Random(5))
    assert start.assignment == snapshot


def test_rejects_bad_arguments(myciel3):
    start = initial_coloring(myciel3, 3, random.Random(1))
    improper = Coloring.from_assignment([1] * myciel3.n)
    with pytest.raises(ValueError, match="proper"):
        tabu_search(improper, myciel3, small_params(), random.Random(0))
    with pytest.raises(ValueError, match="neighborhood"):
        tabu_search(start, myciel3, small_params(), random.Random(0), neighborhoods=("sideways",))
    with pytest.raises(ValueError, match="at least one"):
        tabu_search(start, myciel3, small_params(), random.Random(0), neighborhoods=())
