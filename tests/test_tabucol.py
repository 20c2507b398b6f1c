import os
import random

import pytest

import sumcol.graph as graph_module
import sumcol.tabucol as tabucol_module
from sumcol import Coloring, Graph, is_proper
from sumcol.bench import load_instance, load_manifest
from sumcol.coloring import canonical_relabel
from sumcol.graph import greedy_clique
from sumcol.tabu_search import uniform_min
from sumcol.tabucol import generate_population, greedy_coloring, initial_coloring, tabucol

import oracles
from conftest import MANIFEST_PATH, load_generator, require_instance


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


@pytest.mark.parametrize(
    "name, omega",
    [("queen5_5", 5), ("queen6_6", 6), ("queen7_7", 7), ("queen8_8", 8), ("queen9_9", 9),
     ("queen8_12", 12), ("myciel3", 2), ("myciel4", 2), ("myciel5", 2), ("myciel6", 2),
     ("myciel7", 2)],
)
def test_greedy_clique_finds_the_clique_number(name, omega):
    assert greedy_clique(require_instance(name)) == omega


def test_greedy_clique_never_exceeds_the_manifest_color_count():
    checked = 0
    for record in load_manifest(str(MANIFEST_PATH)):
        if record.gcp_k is None or not os.path.exists(record.path):
            continue
        assert greedy_clique(load_instance(record)) <= record.gcp_k, record.name
        checked += 1
    assert checked >= 11


def test_greedy_clique_degenerate_graphs():
    assert greedy_clique(Graph.from_edges(0, [])) == 0
    assert greedy_clique(Graph.from_edges(1, [])) == 1
    assert greedy_clique(Graph.from_edges(4, [])) == 1
    for n in (2, 3, 6):
        assert greedy_clique(complete_graph(n)) == n


def test_greedy_clique_is_a_clique_number_lower_bound():
    # a size above the clique number would make tabucol refuse a feasible k
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = oracles.random_gnp(n, rng.choice((0.3, 0.5, 0.8)), rng)
        assert greedy_clique(Graph.from_edges(n, edges)) <= oracles.brute_force_clique_number(n, edges)


def test_tabucol_finds_feasible_k(monkeypatch):
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", 2000)
    g = complete_graph(4)
    c = tabucol(g, 4, 3, random.Random(1))
    assert c is not None
    assert is_proper(c, g)
    assert max(c.assignment) <= 4


def test_tabucol_gives_up_below_chromatic_number(monkeypatch):
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", 500)
    # K5 at k = 4 is below its clique: refused before any draw
    g = complete_graph(5)
    rng = random.Random(1)
    state = rng.getstate()
    assert tabucol(g, 4, 2, rng) is None
    assert rng.getstate() == state
    # C5 at k = 2: chromatic number 3 above clique number 2, so the attempts run and fail
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert greedy_clique(c5) == 2
    assert tabucol(c5, 2, 2, rng) is None
    assert rng.getstate() != state


def _reference_one_move_attempt(graph, k, rng):
    """One TABUCOL iteration as specified: uniform initial colors, the
    ``uniform_min`` repair among the conflicting vertices' recolorings in
    vertex then color order, then the tenure draw over the published 0..9.
    Returns the assignment when it is proper (else None) and the number of
    repairs tied."""
    adj = graph.adj_lists
    colors = [rng.randrange(k) + 1 for _ in range(graph.n)]

    def conflicts():
        return sum(colors[u] == colors[v] for v in range(graph.n) for u in adj[v]) // 2

    ties = 0
    if conflicts():
        repairs = []
        for v in range(graph.n):
            own = sum(colors[u] == colors[v] for u in adj[v])
            if own:
                repairs += [(sum(colors[u] == c for u in adj[v]) - own, (v, c))
                            for c in range(1, k + 1) if c != colors[v]]
        least = min(delta for delta, _ in repairs)
        ties = sum(delta == least for delta, _ in repairs)
        v, c = uniform_min(repairs, rng)
        colors[v] = c
        rng.randint(0, 9)
    return (None if conflicts() else colors), ties


def test_tabucol_move_follows_uniform_min(monkeypatch):
    """With a one-iteration budget an attempt makes at most one move; where
    the move clears the last conflict the attempt returns the coloring, so
    its pick among the tied repairs shows, and the draws must match."""
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", 1)
    rng = random.Random(37)
    picked = 0
    for case in range(400):
        n = rng.randint(3, 10)
        graph = Graph.from_edges(n, oracles.random_gnp(n, rng.choice((0.2, 0.35, 0.5)), rng))
        k = max(greedy_clique(graph), rng.randint(2, 4))
        if k > n:
            continue
        ours, reference = random.Random(case), random.Random(case)
        expected, ties = _reference_one_move_attempt(graph, k, reference)
        result = tabucol(graph, k, 1, ours)
        assert (result.assignment if result else None) == expected
        assert ours.getstate() == reference.getstate()
        picked += expected is not None and ties > 1
    assert picked >= 50


def _same_attempt(monkeypatch, graph, edges, k, budget, seed):
    """Runs ``_tabucol_attempt`` capped at ``budget`` iterations and the
    oracle from one seed, asserts the same result and the same generator
    state, and returns the oracle's."""
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", budget)
    ours, reference = random.Random(seed), random.Random(seed)
    expected, deltas = oracles.tabucol_attempt(graph.n, edges, k, budget, 9, 0.6, reference)
    result = tabucol_module._tabucol_attempt(graph, k, ours)
    assert (result.assignment if result else None) == expected
    assert ours.getstate() == reference.getstate()
    return expected, deltas


def test_tabucol_attempt_matches_the_plain_oracle(myciel3, monkeypatch):
    """Whole attempts against ``oracles.tabucol_attempt``, which recounts
    every conflict at every iteration: the attempt's conflict list, count
    limit and vertex skip must leave every move and every draw as they are.
    The cases include successes, failures, and moves below -1, where the
    attempt skips vertices whose best delta cannot reach the minimum."""
    rng = random.Random(24)
    found = failed = steep = 0
    for case in range(300):
        n = rng.randint(1, 40)
        edges = oracles.random_gnp(n, rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8)), rng)
        k = rng.randint(1, max(1, n // 2))
        budget = round(5000 ** rng.random())
        expected, deltas = _same_attempt(monkeypatch, Graph.from_edges(n, edges), edges, k, budget, case)
        found += expected is not None
        failed += expected is None
        steep += any(delta < -1 for delta in deltas)
    assert min(found, failed, steep) >= 30, (found, failed, steep)
    # below the chromatic number, to the idle stop
    c5_edges = [(i, (i + 1) % 5) for i in range(5)]
    for graph, edges, k in ((Graph.from_edges(5, c5_edges), c5_edges, 2),
                            (myciel3, list(myciel3.edges()), 3)):
        expected, deltas = _same_attempt(monkeypatch, graph, edges, k, 10**9, 7)
        assert expected is None and deltas


def test_warm_tabucol_attempt_matches_the_plain_oracle(monkeypatch):
    """Warm first attempts against ``oracles.tabucol_attempt`` from the same
    start: ``tabucol`` with ``warm`` and one restart must make the draws of
    the smallest class's dissolution, then those of the oracle's attempt
    from the dissolved coloring, and return what the oracle returns.  Each
    warm coloring is a random proper (k + 1)-coloring."""
    rng = random.Random(26)
    found = failed = placement_draws = replayed = 0
    case = 0
    while replayed < 300:
        case += 1
        n = rng.randint(2, 40)
        edges = oracles.random_gnp(n, rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8)), rng)
        graph = Graph.from_edges(n, edges)
        warm = Coloring.from_assignment(oracles.random_proper_assignment(n, edges, rng))
        k = warm.k - 1
        if k < max(1, graph.clique_size):
            continue
        budget = round(5000 ** rng.random())
        monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", budget)
        ours, reference = random.Random(case), random.Random(case)
        before = reference.getstate()
        start = tabucol_module._dissolve_smallest_class(graph, warm, reference)
        placement_draws += reference.getstate() != before
        expected, _ = oracles.tabucol_attempt(n, edges, k, budget, 9, 0.6, reference,
                                              start=[c + 1 for c in start])
        result = tabucol(graph, k, 1, ours, warm)
        assert (result.assignment if result else None) == expected
        assert ours.getstate() == reference.getstate()
        replayed += 1
        found += expected is not None
        failed += expected is None
    assert min(found, failed, placement_draws) >= 30, (found, failed, placement_draws)


def test_dissolve_smallest_class_rule():
    """The class with the fewest members goes, the lowest label among the
    tied smallest; the others keep their order, renumbered from 0; each
    freed vertex, ascending, joins the class holding the fewest of its
    neighbors, with no draw for a unique minimum and one ``randrange`` over
    the tied classes, ascending, for a tie."""
    # classes 1: {0, 1, 2}, 2: {3, 4}, 3: {5, 6}, 4: {7, 8}; class 2 goes
    warm = Coloring.from_assignment([1, 1, 1, 2, 2, 3, 3, 4, 4])
    # vertex 3 has 2, 1 and 2 neighbors in the kept classes 0, 1 and 2
    edges = [(3, 0), (3, 1), (3, 5), (3, 7), (3, 8), (4, 0), (4, 5), (4, 6), (4, 7)]
    # vertex 4 has 1, 2 and 2: a unique minimum
    unique = Graph.from_edges(9, edges + [(4, 8)])
    rng = random.Random(1)
    state = rng.getstate()
    assert tabucol_module._dissolve_smallest_class(unique, warm, rng) == [0, 0, 0, 1, 0, 1, 1, 2, 2]
    assert rng.getstate() == state
    # vertex 4 has 1, 2 and 1: kept classes 0 and 2 tie
    tied = Graph.from_edges(9, edges)
    placed = set()
    for seed in range(8):
        ours, reference = random.Random(seed), random.Random(seed)
        expected = (0, 2)[reference.randrange(2)]
        assert tabucol_module._dissolve_smallest_class(tied, warm, ours) == [0, 0, 0, 1, expected, 1, 1, 2, 2]
        assert ours.getstate() == reference.getstate()
        placed.add(expected)
    assert placed == {0, 2}


def test_warm_tabucol_draws_nothing_without_freed_vertices_or_below_the_clique():
    rng = random.Random(1)
    state = rng.getstate()
    # the empty class 2 is the smallest: the dissolved start is proper already
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    warm = Coloring.from_assignment([1, 3, 1], k=3)
    assert tabucol(path, 2, 3, rng, warm).assignment == [1, 2, 1]
    assert rng.getstate() == state
    # K3 at k = 2 is refused before the dissolution, which would draw a tie
    assert tabucol(complete_graph(3), 2, 3, rng, Coloring.from_assignment([1, 2, 3])) is None
    assert rng.getstate() == state


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


def test_tabucol_attempt_stops_after_idle_limit(myciel3, monkeypatch):
    """Below the chromatic number (4 on myciel3) an attempt with no
    practical budget ends 10,000 iterations after its last new best
    conflict count."""
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", 10**9)
    rng = _CountingRandom(1, limit=100_000)
    assert tabucol(myciel3, 3, 1, rng) is None


def test_tabucol_one_color_cases():
    empty = Graph.from_edges(3, [])
    c = tabucol(empty, 1, 3, random.Random(0))
    assert c is not None and c.assignment == [1, 1, 1]
    edge = Graph.from_edges(2, [(0, 1)])
    assert tabucol(edge, 1, 3, random.Random(0)) is None


def test_tabucol_rejects_bad_k():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        tabucol(g, 0, 3, random.Random(0))
    with pytest.raises(ValueError):
        tabucol(g, 4, 3, random.Random(0))


def test_tabucol_params_validation():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        tabucol(complete_graph(3), 3, 0, rng)
    assert rng.getstate() == state


def test_initial_coloring_is_proper_and_canonical(myciel3):
    c = initial_coloring(myciel3, 3, random.Random(9))
    assert is_proper(c, myciel3)
    assert c.assignment == canonical_relabel(c).assignment


@pytest.mark.parametrize("name, omega", [("rook30", 30), ("queen7_7", 7), ("queen8_12", 12)])
def test_initial_coloring_reaches_the_clique_number(name, omega):
    """On graphs whose chromatic number is their clique number, the warm
    descent reaches it: K30 x K30, built in memory, and two queen graphs."""
    graph = load_generator().rook(30) if name == "rook30" else require_instance(name)
    assert graph.clique_size == omega
    for seed in (1, 2, 3):
        coloring = initial_coloring(graph, 3, random.Random(seed))
        assert coloring.k == omega and is_proper(coloring, graph)


def test_initial_coloring_is_a_fresh_tabucol_coloring_when_greedy_is_optimal(myciel3):
    """Greedy's k = 4 is myciel3's chromatic number, so the warm step at
    k = 3 fails and a fresh tabucol call at k = 4 gives the result: a
    seed-dependent coloring, not greedy's own."""
    greedy = greedy_coloring(myciel3)
    assert greedy.k == 4
    found = set()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        assert tabucol(myciel3, 3, 3, rng, greedy) is None
        expected = canonical_relabel(tabucol(myciel3, 4, 3, rng))
        coloring = initial_coloring(myciel3, 3, random.Random(seed))
        assert coloring.assignment == expected.assignment
        found.add(tuple(coloring.assignment))
    assert len(found) == 3 and tuple(canonical_relabel(greedy).assignment) not in found


def test_generate_population_distinct_and_proper(myciel3):
    members = generate_population(myciel3, 8, 3, random.Random(4))
    assert len(members) == 8
    assert len({tuple(m.assignment) for m in members}) == 8
    for m in members:
        assert is_proper(m, myciel3)
        assert m.assignment == canonical_relabel(m).assignment


def test_generate_population_includes_warm_start(myciel3):
    rng = random.Random(5)
    warm = initial_coloring(myciel3, 3, rng)
    members = generate_population(myciel3, 6, 3, rng, include=warm)
    assert len(members) == 6
    assert tuple(warm.assignment) in {tuple(m.assignment) for m in members}


def test_greedy_clique_is_grown_once_per_graph(monkeypatch):
    """The graph keeps its clique size: a population build grows it once,
    and a build on a graph that already holds it draws the same colorings."""
    calls = {"greedy_clique": 0, "tabucol": 0}
    for module, name in ((graph_module, "greedy_clique"), (tabucol_module, "tabucol")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    # queen6_6's sum bound 126 is below its optimum 138, so the build fills its pool
    g = require_instance("queen6_6")
    assert g._clique_size is None
    members = generate_population(g, 10, 3, random.Random(3))
    assert calls["tabucol"] > 10 and calls["greedy_clique"] == 1
    assert g._clique_size == g.clique_size == 6
    again = generate_population(g, 10, 3, random.Random(3))
    assert calls["greedy_clique"] == 1
    assert [m.assignment for m in again] == [m.assignment for m in members]
    with pytest.raises(AttributeError):
        g.clique_size = 4


def test_generate_population_stops_at_a_member_that_meets_the_sum_bound(monkeypatch):
    """Every 7-coloring of queen7_7 sums to its bound 196: the descent's
    coloring, or a warm start, is the whole population."""
    calls = []
    original = tabucol_module.tabucol
    monkeypatch.setattr(tabucol_module, "tabucol", lambda *args: calls.append(args[1]) or original(*args))
    g = require_instance("queen7_7")
    seed = initial_coloring(g, 3, random.Random(5))
    descent = len(calls)
    assert seed.sum == g.sum_bound == 196 and calls[-1] == 6
    assert generate_population(g, 10, 3, random.Random(5)) == [seed]
    assert len(calls) == 2 * descent
    assert generate_population(g, 10, 3, random.Random(6), include=seed) == [seed]
    assert len(calls) == 2 * descent


def test_generate_population_stops_at_a_member_within_its_stop_sum():
    """A stop sum above the bound ends the build as the bound does: on
    queen6_6 (bound 126) a stop at the descent's sum keeps that coloring,
    or a warm start within it, alone."""
    g = require_instance("queen6_6")
    seed = initial_coloring(g, 3, random.Random(5))
    assert seed.sum > g.sum_bound
    assert generate_population(g, 10, 3, random.Random(5), stop_sum=seed.sum) == [seed]
    assert generate_population(g, 10, 3, random.Random(6), include=seed, stop_sum=seed.sum) == [seed]


def test_generate_population_returns_short_when_too_few_partitions_exist(monkeypatch):
    monkeypatch.setattr(tabucol_module, "_ITERATION_BUDGET", 300)
    # a complete graph has exactly one partition into independent sets
    g = complete_graph(3)
    members = generate_population(g, 5, 1, random.Random(2))
    assert [m.assignment for m in members] == [[1, 2, 3]]


def test_generate_population_rejects_empty_size(myciel3):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="population size"):
        generate_population(myciel3, 0, 3, rng)
    assert rng.getstate() == state
