"""Independent reference implementations the tests compare the library
against.

Everything here deliberately uses different data structures and algorithms
than the package (adjacency sets instead of bitmasks, union-find instead
of BFS, permutation search instead of sort keys), so agreement between the
two routes is meaningful evidence of correctness.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from sumcol.tabu_search import uniform_min


def adjacency_sets(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def partition_cost(sizes) -> int:
    """Cheapest coloring sum of a partition: the i-th largest class gets
    color i (swapping any two labels against the size order can only raise
    the total)."""
    return sum((i + 1) * size for i, size in enumerate(sorted(sizes, reverse=True)))


def partition_cost_by_permutation(sizes) -> int:
    """Same as partition_cost but by trying every label permutation.
    Only usable for small class counts; kept to cross-check the sort rule."""
    best = math.inf
    k = len(sizes)
    for perm in permutations(range(1, k + 1)):
        best = min(best, sum(color * size for color, size in zip(perm, sizes)))
    return best


def brute_force_chromatic_sum(n: int, edges) -> int:
    """True minimum coloring sum, by exhaustive recursion over every
    partition of the vertices into independent sets."""
    adj = adjacency_sets(n, edges)
    best = [math.inf]
    classes: list[set[int]] = []

    def extend(v: int) -> None:
        if v == n:
            cost = partition_cost([len(c) for c in classes])
            if cost < best[0]:
                best[0] = cost
            return
        for cls in classes:
            if not adj[v] & cls:
                cls.add(v)
                extend(v + 1)
                cls.remove(v)
        classes.append({v})
        extend(v + 1)
        classes.pop()

    extend(0)
    return int(best[0])


def union_find_components(n: int, edges, subset) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by ``subset``,
    singletons included."""
    subset = set(subset)
    parent = {v: v for v in subset}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u in subset and v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in subset:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def naive_exchange_moves(n: int, edges, assignment) -> set[tuple[frozenset[int], int, int, int]]:
    """Every component swap between two color classes: for each class pair,
    each connected component of their union with at least two vertices,
    as (vertices, low color, high color, sum delta)."""
    k = max(assignment)
    moves = set()
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            union = [v for v in range(n) if assignment[v] in (a, b)]
            for comp in union_find_components(n, edges, union):
                if len(comp) < 2:
                    continue
                in_a = sum(1 for v in comp if assignment[v] == a)
                in_b = len(comp) - in_a
                delta = (b - a) * (in_a - in_b)
                moves.add((comp, a, b, delta))
    return moves


def naive_relocate_moves(n: int, edges, assignment, k: int) -> set[tuple[int, int, int, int]]:
    """Every single-vertex move into a class (among k allocated) with no
    neighbor of the vertex, as (vertex, source, target, sum delta)."""
    adj = adjacency_sets(n, edges)
    moves = set()
    for v in range(n):
        source = assignment[v]
        for target in range(1, k + 1):
            if target == source:
                continue
            if any(assignment[u] == target for u in adj[v]):
                continue
            moves.add((v, source, target, target - source))
    return moves


def naive_canonical(assignment) -> tuple[int, ...]:
    """Best relabeling by brute force: over every permutation of the used
    colors onto 1..k, the assignment minimizing (sum, lexicographic order).
    Exponential in k; for small test colorings only."""
    used = sorted(set(assignment))
    k = len(used)
    best_key = None
    best = None
    for perm in permutations(range(1, k + 1)):
        mapping = dict(zip(used, perm))
        candidate = tuple(mapping[c] for c in assignment)
        key = (sum(candidate), candidate)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    return best


def naive_sum(assignment) -> int:
    return sum(assignment)


def is_proper_assignment(edges, assignment) -> bool:
    return all(assignment[u] != assignment[v] for u, v in edges)


def brute_force_clique_number(n: int, edges) -> int:
    """Largest vertex subset that is pairwise adjacent, by enumeration."""
    adj = adjacency_sets(n, edges)
    return max(
        (len(s) for r in range(n + 1) for s in combinations(range(n), r)
         if all(v in adj[u] for u, v in combinations(s, 2))),
        default=0,
    )


def tabucol_attempt(n: int, edges, k: int, budget: int, tenure_base: int, tenure_slope: float,
                    rng, idle_limit: int = 10_000, start=None):
    """One TABUCOL attempt as Hertz & de Werra state it, recounting
    everything from the edge list at every iteration: uniform initial colors
    1..k, or the 1-based colors ``start`` when given; each iteration scores
    every recoloring of every conflicting vertex, vertices in order and
    colors in order, drops the tabu ones that do not beat the best conflict
    count, and lets ``uniform_min`` pick among the rest; the move's old
    color is tabu for ``int(slope * conflicts) + uniform{0..base}``
    iterations.  Stops at zero conflicts, at the budget, or ``idle_limit``
    iterations after the last new best.  Returns the proper assignment
    (else None) and the delta of each move made."""
    adj = adjacency_sets(n, edges)
    colors = [rng.randrange(k) + 1 for _ in range(n)] if start is None else list(start)

    def conflicts():
        return sum(colors[u] == colors[v] for u, v in edges)

    current = conflicts()
    deltas: list[int] = []
    if current == 0:
        return colors, deltas
    best = current
    last_improvement = 0
    tabu: dict[tuple[int, int], int] = {}
    for it in range(1, budget + 1):
        moves = []
        for v in range(n):
            tally = [0] * (k + 1)
            for u in adj[v]:
                tally[colors[u]] += 1
            own = tally[colors[v]]
            if not own:
                continue
            for c in range(1, k + 1):
                delta = tally[c] - own
                if c == colors[v] or (tabu.get((v, c), 0) >= it and current + delta >= best):
                    continue
                moves.append((delta, (v, c)))
        if not moves:
            continue
        v, c = uniform_min(moves, rng)
        old, colors[v] = colors[v], c
        after = conflicts()
        deltas.append(after - current)
        current = after
        tabu[v, old] = it + int(tenure_slope * current) + rng.randint(0, tenure_base)
        if current < best:
            if current == 0:
                return colors, deltas
            best = current
            last_improvement = it
        elif it - last_improvement >= idle_limit:
            return None, deltas
    return None, deltas


def random_gnp(n: int, p: float, rng) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_proper_assignment(n: int, edges, rng) -> list[int]:
    """Greedy coloring along a random vertex order, without the library."""
    adj = adjacency_sets(n, edges)
    order = list(range(n))
    rng.shuffle(order)
    assignment = [0] * n
    for v in order:
        taken = {assignment[u] for u in adj[v] if assignment[u]}
        color = 1
        while color in taken:
            color += 1
        assignment[v] = color
    return assignment
