"""Initial proper colorings via TABUCOL-style tabu search.

The downstream optimizer needs a pool of distinct proper colorings that use
few classes.  This module provides the classical recipe: a greedy bound,
then tabu search over improper k-colorings (minimizing the number of
conflicting edges) at decreasing k until the budget stops certifying
feasibility, then repeated runs at the smallest reached k to fill the pool.
The descent is warm, as in the fixed-k strategy of Galinier & Hertz (2006):
the first attempt at k starts from the last (k + 1)-coloring found, greedy's
at first, with its smallest class dissolved and each freed vertex placed in
the class holding the fewest of its neighbors.  Such a start is one class
away from a k-coloring, where a uniform one is far from any.  The later
restarts and the pool's fill start from uniform random assignments.  When
greedy's k is already the smallest reached, a cold call at that k still
gives a seed-dependent coloring in place of greedy's own.
The graph's greedy clique (``Graph.clique_size``) is the lower bound: a k
below it is refused without an attempt, so a descent that reaches it (the
chromatic number equals the clique number) ends at once.  The pool stops
filling as soon as a member's sum meets the graph's clique-partition bound
(``Graph.sum_bound``), since that member is already optimal: every
7-coloring of queen7.7, say, has the optimal sum 196.  A caller's stop sum
above the bound, such as a run's target, ends the fill the same way.

A recolored vertex may not return to its old class for
``int(_TENURE_SLOPE * conflicts) + uniform{0.._TENURE_BASE}`` iterations
(0.6 × conflicts plus a draw from 0..9), with ``conflicts`` the
conflicting-edge count after the move: the tenure rule of Galinier & Hao
(1999).  An attempt also gives up after ``_IDLE_LIMIT`` (10,000) iterations
without a new fewest-conflicts count: the ``nbmax`` stopping rule of the
original TABUCOL (Hertz & de Werra 1987).  A failing attempt reaches its
final conflict count early and only wanders after it, so the rule mostly
cuts the last, infeasible k of the descent.  Whatever its progress, an
attempt also ends after ``_ITERATION_BUDGET`` (100,000) iterations; only an
attempt that keeps finding new fewest-conflicts counts runs that long.  The
tenure and both stops are fixed rules; a call sets only its restart count.

Each iteration of an attempt walks only its conflicting vertices, the only
ones a move may recolor.  It keeps them in an ascending list, exact move by
move: after a move only the mover, its neighbors left in the old class and
its neighbors in the new class can change status, and per-class vertex masks
name those neighbors.  It skips a vertex whose best possible delta cannot
reach the best move found so far.  The list holds the vertices in the order
a scan of all of them would visit, so an attempt makes the same moves and
the same draws as one that scans every vertex.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .coloring import Coloring, canonical_relabel
from .graph import Graph, bits
from .tabu_search import uniform_min

# An attempt fails after this many iterations without a new best conflict
# count, and after _ITERATION_BUDGET iterations in all.
_IDLE_LIMIT = 10_000
_ITERATION_BUDGET = 100_000
# A move's old class is tabu for int(_TENURE_SLOPE * conflicts) + uniform{0.._TENURE_BASE} iterations.
_TENURE_BASE = 9
_TENURE_SLOPE = 0.6


def greedy_coloring(graph: Graph) -> Coloring:
    """Largest-degree-first greedy: proper, and an upper bound on k."""
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    colors = [0] * graph.n
    masks: list[int] = []
    for v in order:
        adj = graph.adj_masks[v]
        for idx, m in enumerate(masks):
            if not adj & m:
                masks[idx] |= 1 << v
                colors[v] = idx + 1
                break
        else:
            masks.append(1 << v)
            colors[v] = len(masks)
    return Coloring.from_assignment(colors)


def tabucol(graph: Graph, k: int, restarts: int, rng: random.Random,
            warm: Coloring | None = None) -> Coloring | None:
    """Search for a proper k-coloring; None if none found within budget.

    A k below ``graph.clique_size``, the size of a clique the graph grows
    once and keeps, cannot be colored, so it returns None at once without
    drawing from ``rng``.  Otherwise runs up to ``restarts`` attempts from
    fresh uniform random assignments, each limited to ``_ITERATION_BUDGET``
    (100,000) iterations and ended early after ``_IDLE_LIMIT`` (10,000)
    iterations without a new fewest-conflicts count (Hertz & de Werra's
    ``nbmax`` rule).
    Moves recolor one endpoint of a conflicting edge; the best (fewest
    resulting conflicts) non-tabu move is taken, ties uniformly at random,
    and a tabu move is allowed when it beats the attempt's best.

    ``warm``, a proper (k + 1)-coloring, gives the first attempt its start:
    ``warm`` with its smallest class dissolved (``_dissolve_smallest_class``),
    built only after both checks on k pass, so a refused k draws nothing.
    The later attempts start uniformly, as every attempt does without it.
    """
    n = graph.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if k < graph.clique_size:
        return None
    start = None if warm is None else _dissolve_smallest_class(graph, warm, rng)
    for _ in range(restarts):
        sol = _tabucol_attempt(graph, k, rng, start)
        if sol is not None:
            return sol
        start = None
    return None


def _dissolve_smallest_class(graph: Graph, coloring: Coloring, rng: random.Random) -> list[int]:
    """A start for a (k - 1)-coloring attempt from a k-coloring, as 0-based
    colors: the class with the fewest members (the lowest label on ties) is
    dissolved and the others keep their order, renumbered without gaps.
    The freed vertices are placed in ascending order, each in the class
    holding the fewest of its placed neighbors (the kept vertices and the
    freed ones placed before it), ties broken by ``uniform_min``.
    """
    masks = coloring.class_masks
    gone = min(range(len(masks)), key=lambda c: masks[c].bit_count())
    kept = masks[:gone] + masks[gone + 1:]
    colors = [0] * graph.n
    for c, mask in enumerate(kept):
        for v in bits(mask):
            colors[v] = c
    adj_masks = graph.adj_masks
    for v in bits(masks[gone]):
        adj = adj_masks[v]
        c = uniform_min((((adj & mask).bit_count(), c) for c, mask in enumerate(kept)), rng)
        kept[c] |= 1 << v
        colors[v] = c
    return colors


def _tabucol_attempt(graph: Graph, k: int, rng: random.Random,
                     start: list[int] | None = None) -> Coloring | None:
    # Colors are 0-based here and 1-based only in the returned Coloring.
    n = graph.n
    adj_lists = graph.adj_lists
    adj_masks = graph.adj_masks
    colors = [rng.randrange(k) for _ in range(n)] if start is None else start
    # counts[v][c]: neighbors of v currently colored c; class_masks[c]: the vertices colored c
    counts = [[0] * k for _ in range(n)]
    class_masks = [0] * k
    for v in range(n):
        cv = colors[v]
        class_masks[cv] |= 1 << v
        for u in adj_lists[v]:
            counts[u][cv] += 1
    # the vertices with a neighbor in their own class, ascending: exactly the
    # ones a move can recolor, kept exact move by move
    conflicted = [v for v in range(n) if counts[v][colors[v]]]
    conflicts = sum(counts[v][colors[v]] for v in conflicted) // 2
    if conflicts == 0:
        return Coloring.from_assignment([c + 1 for c in colors], k=k)
    best = conflicts
    last_improvement = 0
    tabu_until = [[0] * k for _ in range(n)]
    others = [tuple(c for c in range(k) if c != own) for own in range(k)]
    slope = _TENURE_SLOPE
    base = _TENURE_BASE
    for it in range(1, _ITERATION_BUDGET + 1):
        # the (v, c) of the moves tied at chosen_delta, as uniform_min collects them
        tied = []
        # sentinel above every delta (a delta is at most degree - 1 < n)
        chosen_delta = n
        aspire_gap = best - conflicts
        for v in conflicted:
            row = counts[v]
            own = colors[v]
            own_count = row[own]
            # a move's delta row[c] - own_count is compared with chosen_delta
            # as row[c] with limit; below 0, no move of v can reach chosen_delta
            limit = own_count + chosen_delta
            if limit < 0:
                continue
            for c in others[own]:
                count = row[c]
                if count > limit:
                    continue
                if tabu_until[v][c] >= it and count - own_count >= aspire_gap:
                    continue
                if count < limit:
                    limit = count
                    chosen_delta = count - own_count
                    tied = [(v, c)]
                else:
                    tied.append((v, c))
        if not tied:
            continue
        v, c = tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]
        old = colors[v]
        colors[v] = c
        for u in adj_lists[v]:
            cu = counts[u]
            cu[old] -= 1
            cu[c] += 1
        # Only v, its neighbors left in the old class and those in the new
        # class can change conflict status.  The class masks name those
        # neighbors; their bits are walked inline, since a generator such as
        # graph.bits costs about 5% of an attempt here.
        bit = 1 << v
        class_masks[old] ^= bit
        adj = adj_masks[v]
        hit = adj & class_masks[old]
        while hit:
            low = hit & -hit
            u = low.bit_length() - 1
            if not counts[u][old]:
                del conflicted[bisect_left(conflicted, u)]
            hit ^= low
        hit = adj & class_masks[c]
        while hit:
            low = hit & -hit
            u = low.bit_length() - 1
            if counts[u][c] == 1:
                insort(conflicted, u)
            hit ^= low
        class_masks[c] |= bit
        if not counts[v][c]:
            del conflicted[bisect_left(conflicted, v)]
        conflicts += chosen_delta
        tabu_until[v][old] = it + int(slope * conflicts) + rng.randint(0, base)
        if conflicts < best:
            if conflicts == 0:
                return Coloring.from_assignment([c + 1 for c in colors], k=k)
            best = conflicts
            last_improvement = it
        elif it - last_improvement >= _IDLE_LIMIT:
            return None
    return None


def initial_coloring(graph: Graph, restarts: int, rng: random.Random) -> Coloring:
    """One proper coloring at the smallest k the budget reaches: greedy
    bound, then tabucol at decreasing k with ``restarts`` attempts per call,
    each call warm from the last success; the last success wins.  The
    descent starts at greedy's k - 1, warm from greedy's coloring, since
    greedy already colors with its own k, and it ends at the first failure,
    which is at latest the first k below the clique size, refused without a
    draw.  When that first step fails, greedy's k is the smallest reached,
    and a cold tabucol call at it gives the result: a seed-dependent
    coloring rather than greedy's own."""
    greedy = best = greedy_coloring(graph)
    k = best.k - 1
    while k >= 1:
        sol = tabucol(graph, k, restarts, rng, best)
        if sol is None:
            break
        best = sol
        k -= 1
    if best is greedy and greedy.k >= 1:
        best = tabucol(graph, greedy.k, restarts, rng) or greedy
    return canonical_relabel(best)


def generate_population(
    graph: Graph,
    size: int,
    restarts: int,
    rng: random.Random,
    include: Coloring | None = None,
    stop_sum: int | None = None,
) -> list[Coloring]:
    """Build up to ``size`` pairwise-distinct canonical proper colorings,
    each ``tabucol`` call making up to ``restarts`` attempts.

    Distinctness means distinct partitions (canonical assignments differ).
    Colorings are collected at the smallest k the budget certifies; when
    repeated attempts stop producing new partitions there, collection moves
    to k+1.  ``include`` injects one externally supplied coloring (warm
    start) as a member.  Fewer than ``size`` return when the retry budget
    runs out first, as on a graph with fewer distinct partitions in reach,
    and as soon as a member's sum is at most ``stop_sum``, by default
    ``graph.sum_bound``: no coloring has a smaller sum, so that member is
    the best the population could hold.  A caller with a target above the
    bound passes it, since a member that reaches it already ends the run.
    """
    if size < 1:
        raise ValueError(f"population size must be >= 1, got {size}")
    members: list[Coloring] = []
    stop = graph.sum_bound if stop_sum is None else stop_sum

    def try_add(c: Coloring) -> bool:
        cc = canonical_relabel(c)
        if cc in members:
            return False
        members.append(cc)
        return True

    if include is not None:
        try_add(include)
        if members[0].sum <= stop:
            return members
    seed = initial_coloring(graph, restarts, rng)
    k_min = seed.k
    if len(members) < size:
        try_add(seed)
    level = k_min
    dup_streak = 0
    attempts = 0
    max_attempts = max(20, 10 * size)
    # a member at the stop sum is the newest one: the build stops when it joins
    while len(members) < size and attempts < max_attempts and members[-1].sum > stop:
        attempts += 1
        sol = tabucol(graph, level, restarts, rng) if 0 < level <= graph.n else None
        if sol is not None and try_add(sol):
            dup_streak = 0
        else:
            dup_streak += 1
        if dup_streak >= 5 and level == k_min:
            level = k_min + 1
            dup_streak = 0
    return members
