"""Tabu-search improvement of proper colorings, minimizing the color sum.

Two move neighborhoods are used, always preserving properness:

* exchange: pick a connected component (2+ vertices) of the subgraph induced
  by two classes and swap its sides between the classes.  Restricted to one
  class pair these are exactly the classical Kempe-chain interchanges.
* relocate: move a single vertex into any other allocated class containing
  none of its neighbors (possibly an empty class).

The search alternates phases over the two neighborhoods, each phase ending
after a fixed number of consecutive iterations that fail to improve the
call-wide best.  When improvement stalls long enough the best coloring is
perturbed (a third of its largest class is split off into a fresh class) and
the search restarts from the perturbed copy.  One iteration = one applied
move, or one blocked selection when every move is tabu and none aspirates.

Tabu rules: an applied exchange locks its class pair, an applied relocation
locks the (vertex, old class) pair, both for a tenure drawn uniformly from
{0..k-1}; a tabu move is allowed anyway if it would beat the best sum.
Perturbation locks its two touched classes out of both neighborhoods.
Class labels are stable for the whole call: empty classes stay allocated and
the canonical relabeling happens only on the returned coloring.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .coloring import Coloring, canonical_relabel, is_proper
from .graph import Graph

T = TypeVar("T")

# Most component searches of an exchange phase repeat a linked vertex set
# the call has already searched; this many are remembered at a time.
_COMPONENT_MEMO_SIZE = 1024

EXCHANGE = "exchange"
RELOCATE = "relocate"
BOTH_NEIGHBORHOODS = (EXCHANGE, RELOCATE)


class TabuSearchParams:
    def __init__(self, exchange_idle_limit: int = 500, relocate_idle_limit: int = 1000,
                 stall_limit: int = 4000, iteration_budget: int = 10_000):
        self.exchange_idle_limit = exchange_idle_limit
        self.relocate_idle_limit = relocate_idle_limit
        self.stall_limit = stall_limit
        self.iteration_budget = iteration_budget
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


class ExchangeMove(NamedTuple):
    """Swap the sides of ``mask`` (one connected component spanning classes
    a and b, always with ``color_a < color_b``).  Self-inverse: applying it
    twice restores the coloring."""

    mask: int
    color_a: int
    color_b: int
    delta: int


class RelocateMove(NamedTuple):
    """Move ``vertex`` from class ``source`` to class ``target``."""

    vertex: int
    source: int
    target: int
    delta: int


Move = ExchangeMove | RelocateMove


class TabuState:
    """Tabu bookkeeping for one search call.

    ``iteration`` counts completed iterations; an entry with expiry e is
    active for every iteration number <= e.  Fresh state is empty: nothing
    is tabu at the start of a call.  ``vertex_until`` maps (vertex, locked
    class) to its expiry.  Both selections start with ``drop_expired``.
    """

    def __init__(self, iteration: int = 0, pair_until: dict[tuple[int, int], int] | None = None,
                 vertex_until: dict[tuple[int, int], int] | None = None,
                 class_until: dict[int, int] | None = None):
        self.iteration = iteration
        self.pair_until = {} if pair_until is None else pair_until
        self.vertex_until = {} if vertex_until is None else vertex_until
        self.class_until = {} if class_until is None else class_until

    def exchange_tabu(self, color_a: int, color_b: int, at: int) -> bool:
        if self.class_until:
            if self.class_until.get(color_a, 0) >= at or self.class_until.get(color_b, 0) >= at:
                return True
        a, b = (color_a, color_b) if color_a < color_b else (color_b, color_a)
        return self.pair_until.get((a, b), 0) >= at

    def relocate_tabu(self, vertex: int, source: int, target: int, at: int) -> bool:
        if self.class_until:
            if self.class_until.get(source, 0) >= at or self.class_until.get(target, 0) >= at:
                return True
        return self.vertex_until.get((vertex, target), 0) >= at

    def drop_expired(self, at: int) -> None:
        """Drop the vertex and class locks expired before iteration ``at``,
        by rebinding: every lock left is active at ``at``."""
        if self.vertex_until:
            self.vertex_until = {key: until for key, until in self.vertex_until.items() if until >= at}
        if self.class_until:
            self.class_until = {c: until for c, until in self.class_until.items() if until >= at}


class SearchStats:
    """Optional accumulator: total iterations over the calls it is passed to."""

    def __init__(self, iterations: int = 0):
        self.iterations = iterations


def _pair_exchanges(coloring: Coloring, graph: Graph, color_a: int, color_b: int) -> list[ExchangeMove]:
    """All exchange moves between one class pair (a < b), from the reference
    component search ``Graph.reference_components``."""
    mask_a = coloring.class_masks[color_a - 1]
    union = mask_a | coloring.class_masks[color_b - 1]
    moves = []
    for comp in graph.reference_components(union):
        if comp & (comp - 1):  # at least two vertices
            delta = (color_b - color_a) * (2 * (comp & mask_a).bit_count() - comp.bit_count())
            moves.append(ExchangeMove(comp, color_a, color_b, delta))
    return moves


def enumerate_exchange_moves(coloring: Coloring, graph: Graph) -> list[ExchangeMove]:
    """Every exchange move of the coloring, over all class pairs."""
    moves = []
    masks = coloring.class_masks
    nonempty = [c for c in range(1, coloring.k + 1) if masks[c - 1]]
    for i, a in enumerate(nonempty):
        for b in nonempty[i + 1:]:
            moves.extend(_pair_exchanges(coloring, graph, a, b))
    return moves


def enumerate_relocate_moves(coloring: Coloring, graph: Graph) -> list[RelocateMove]:
    """Every relocation move; targets include allocated empty classes."""
    moves = []
    masks = coloring.class_masks
    for v, source in enumerate(coloring.assignment):
        adj = graph.adj_masks[v]
        for target in range(1, coloring.k + 1):
            if target != source and not adj & masks[target - 1]:
                moves.append(RelocateMove(v, source, target, target - source))
    return moves


def uniform_min(candidates: Iterable[tuple[float, T]], rng: random.Random) -> T | None:
    """Item of the smallest key among ``(key, item)`` pairs, ties broken
    uniformly at random; None when there are none.

    The items tied at the smallest key are collected in enumeration order
    and, when there are several, ``rng.randrange(len(tied))`` picks one: a
    unique minimum makes no draw.  The hot selection loops inline this
    rule and must keep its draws identical.
    """
    tied: list[T] = []
    best = None
    for key, item in candidates:
        if not tied or key < best:
            best = key
            tied = [item]
        elif key == best:
            tied.append(item)
    if len(tied) > 1:
        return tied[rng.randrange(len(tied))]
    return tied[0] if tied else None


def select_move(
    moves: Iterable[Move],
    tabu: TabuState,
    best_sum: int,
    current_sum: int,
    rng: random.Random,
) -> Move | None:
    """Minimum-delta move that is not tabu or that aspirates (would beat
    ``best_sum``); ties broken uniformly at random.  None when blocked."""
    at = tabu.iteration + 1
    aspire_gap = best_sum - current_sum

    def is_tabu(move: Move) -> bool:
        if isinstance(move, RelocateMove):
            return tabu.relocate_tabu(move.vertex, move.source, move.target, at)
        return tabu.exchange_tabu(move.color_a, move.color_b, at)

    return uniform_min(
        ((move.delta, move) for move in moves if move.delta < aspire_gap or not is_tabu(move)),
        rng,
    )


def apply_move(coloring: Coloring, move: Move, tabu: TabuState, rng: random.Random) -> None:
    """Apply ``move`` and record its tabu entry.

    The move is charged to iteration ``tabu.iteration + 1`` (the caller
    advances the counter); the locked attribute stays tabu for a tenure
    drawn uniformly from {0..k-1} further iterations.
    """
    at = tabu.iteration + 1
    tenure = rng.randrange(coloring.k)
    if isinstance(move, RelocateMove):
        coloring.recolor(move.vertex, move.target)
        tabu.vertex_until[(move.vertex, move.source)] = at + tenure
    else:
        coloring.swap_between(move.mask, move.color_a, move.color_b)
        tabu.pair_until[(move.color_a, move.color_b)] = at + tenure


def perturb(best: Coloring, tabu: TabuState, rng: random.Random) -> Coloring:
    """Split a third of the largest class of ``best`` into a fresh class.

    Returns the perturbed copy; the source class and the new class are
    locked out of both neighborhoods for a tenure drawn uniformly from
    {0..k} (k counted after allocation, so the draw covers 0..new k - 1).
    """
    c = best.copy()
    masks = c.class_masks
    largest = max(range(1, c.k + 1), key=lambda col: masks[col - 1].bit_count())
    fresh = c.add_class()
    members = c.class_members(largest)
    movers = rng.sample(members, len(members) // 3)
    for v in movers:
        c.recolor(v, fresh)
    tenure = rng.randrange(c.k)
    expiry = tabu.iteration + tenure
    tabu.class_until[largest] = expiry
    tabu.class_until[fresh] = expiry
    return c


class TabuSearchRun:
    """State of one search call: current coloring, incumbent, caches.

    The only per-class adjacency state is one isolated-vertex mask per
    class: bit v of ``isolated[c-1]`` is set iff v has no neighbor in class
    c, so a class's members are always in its own mask.  A move recomputes
    the mask of a class that loses vertices from the class's members
    (``Graph.neighborhood``: one byte-table OR per nonzero byte of the
    class mask); a relocation's target class only drops the mover's
    neighbors.

    Relocation selection is bit-parallel: it builds one level mask per sum
    delta from the class and isolated masks, masks out the live locks, and
    draws one vertex of the lowest non-empty level.

    Exchange moves are cached per class pair in flat rows,
    ``pair_cache[a][b] = (mask_a, mask_b, low, [(mask, a, b), ...])``: the
    pair's minimum delta and its moves of that delta, in component order.
    No costlier move can be selected: if any move of a pair is admissible,
    so is its cheapest.  A row depends only on the two class masks it was
    built from, so it is valid exactly while both equal the live masks:
    nothing is ever invalidated, and an iteration recomputes components
    only for pairs whose classes differ from the row's.  A recomputation
    searches only the linked part of the pair's union (the vertices with a
    neighbor in the other class): both classes are independent sets, so
    every other vertex is a singleton component, which is never a move.
    ``Graph.component_masks`` takes only such linked sets and walks only
    the smaller class's side of one; it never looks for singletons, since
    every vertex of a linked set has a neighbor across, also linked.

    The component lists are also remembered per call in ``_components``,
    keyed by the linked vertex set searched, because a tabu search keeps
    revisiting the same class contents.  The components of an induced
    subgraph depend on its vertex set alone, so a remembered list is
    exact, and the memo survives a perturbation.  It holds at most
    ``_COMPONENT_MEMO_SIZE`` (1024) sets and is emptied when full.
    Under ``validate`` every live row and the remembered list it was built
    from are checked against ``Graph.reference_components`` of the pair's
    union, which reads only the adjacency masks: it shares no code with the
    isolated masks, the smaller-side search ``Graph.component_masks`` or
    the memo.
    """

    def __init__(
        self,
        coloring: Coloring,
        graph: Graph,
        params: TabuSearchParams,
        rng: random.Random,
        validate: bool = False,
        on_improve: Callable[[int, int], None] | None = None,
        stop_sum: int | None = None,
    ):
        self.graph = graph
        self.stop_sum = graph.sum_bound if stop_sum is None else stop_sum
        self.rng = rng
        self.validate = validate
        self.on_improve = on_improve
        self.tabu = TabuState()
        self.best = coloring.copy()
        self.budget = params.iteration_budget
        self.stall = 0
        self.full = (1 << graph.n) - 1
        self._components: dict[int, list[int]] = {}
        self._set_current(coloring.copy())

    def _set_current(self, coloring: Coloring) -> None:
        """Install a new current coloring and rebuild derived tables."""
        self.current = coloring
        k = coloring.k
        neighborhood = self.graph.neighborhood
        self.isolated = [self.full ^ neighborhood(m) for m in coloring.class_masks]
        # no class mask is negative, so every row is recomputed on first use
        stale = (-1, -1, 0, [])
        self.pair_cache = [[stale] * (k + 1) for _ in range(k + 1)]

    def run_phase(self, kind: str, idle_limit: int) -> None:
        """Iterate one neighborhood until ``idle_limit`` consecutive
        iterations fail to improve the call-wide best, or the budget ends."""
        budget = self.budget
        idle = 0
        while idle < idle_limit and self.tabu.iteration < budget:
            at = self.tabu.iteration + 1
            if self.validate:
                # the selections rebind the lock dicts they prune, so a
                # shallow copy keeps the state they start from
                tabu = TabuState(self.tabu.iteration, self.tabu.pair_until,
                                 self.tabu.vertex_until, self.tabu.class_until)
                rng_state = self.rng.getstate()
            if kind == EXCHANGE:
                move = self._select_exchange(at)
            else:
                move = self._select_relocate(at)
            if self.validate:
                self._check_selection(kind, move, tabu, rng_state)
            if move is not None:
                self._apply(move)
            self.tabu.iteration = at
            if move is not None and self.current.sum < self.best.sum:
                self.best = self.current.copy()
                idle = 0
                self.stall = 0
                if self.on_improve is not None:
                    self.on_improve(self.best.sum, at)
                if self.best.sum <= self.stop_sum:
                    # the caller needs no better coloring: the budget ends here
                    budget = self.budget = at
            else:
                idle += 1
                self.stall += 1
            if self.validate:
                self._check_state()

    def _apply(self, move: Move) -> None:
        isolated = self.isolated
        masks = self.current.class_masks
        graph = self.graph
        apply_move(self.current, move, self.tabu, self.rng)
        if isinstance(move, RelocateMove):
            isolated[move.target - 1] &= ~graph.adj_masks[move.vertex]
            isolated[move.source - 1] = self.full ^ graph.neighborhood(masks[move.source - 1])
        else:
            for c in (move.color_a, move.color_b):
                isolated[c - 1] = self.full ^ graph.neighborhood(masks[c - 1])

    def _select_relocate(self, at: int) -> RelocateMove | None:
        """Bit-parallel ``select_move`` over the relocations.

        ``level[k - 1 + d]`` holds the vertices with an admissible move of
        delta d.  A vertex has at most one move of each delta, so the first
        non-empty level holds the tied moves one per vertex, in the vertex
        order of ``select_move``'s enumeration: ``uniform_min``'s draw
        picks the vertex of that rank.
        """
        current = self.current
        masks = current.class_masks
        isolated = self.isolated
        assignment = current.assignment
        k = current.k
        tabu = self.tabu
        tabu.drop_expired(at)
        top = 2 * k - 1
        aspire_gap = self.best.sum - current.sum
        # the first level whose tabu moves do not aspirate
        tabu_from = max(0, k - 1 + aspire_gap)
        level = [0] * top
        # a vertex of class s moves to class t at level k - 1 + t - s; a
        # target without movers, common on dense graphs, costs one test
        start = k - 1
        for mt, iso in zip(masks, isolated):
            movers = iso & ~mt
            if movers:
                idx = start
                for ms in masks:
                    level[idx] |= ms & movers
                    idx -= 1
            start += 1
        for c in tabu.class_until:
            # c as the source, then as the target
            ms = masks[c - 1]
            for idx in range(tabu_from, top):
                level[idx] &= ~ms
            for s in range(k):
                idx = k - 1 + (c - 1 - s)
                if idx >= tabu_from:
                    level[idx] &= ~masks[s]
        for v, target in tabu.vertex_until:
            idx = k - 1 + target - assignment[v]
            if idx >= tabu_from:
                level[idx] &= ~(1 << v)
        for idx, tied in enumerate(level):
            if tied:
                break
        else:
            return None
        ties = tied.bit_count()
        if ties > 1:
            for _ in range(self.rng.randrange(ties)):
                tied &= tied - 1
        v = (tied & -tied).bit_length() - 1
        source = assignment[v]
        delta = idx - (k - 1)
        return RelocateMove(v, source, source + delta, delta)

    def _select_exchange(self, at: int) -> ExchangeMove | None:
        current = self.current
        component_masks = self.graph.component_masks
        components = self._components
        masks = current.class_masks
        isolated = self.isolated
        k = current.k
        tabu = self.tabu
        tabu.drop_expired(at)
        pair_until = tabu.pair_until
        class_until = tabu.class_until
        aspire_gap = self.best.sum - current.sum
        # the (comp, a, b) of the moves tied at best_delta, as uniform_min collects them
        tied = []
        # sentinel above every delta (|b - a| < k, a component has <= n
        # vertices); also the low of a pair without moves
        best_delta = top = k * self.graph.n
        nonempty = [c for c in range(1, k + 1) if masks[c - 1]]
        for i, a in enumerate(nonempty):
            a_locked = a in class_until
            mask_a = masks[a - 1]
            row = self.pair_cache[a]
            for b in nonempty[i + 1:]:
                entry = row[b]
                mask_b = masks[b - 1]
                if entry[0] != mask_a or entry[1] != mask_b:
                    linked = (mask_a & ~isolated[b - 1]) | (mask_b & ~isolated[a - 1])
                    comps = components.get(linked)
                    if comps is None:
                        if len(components) >= _COMPONENT_MEMO_SIZE:
                            components.clear()
                        comps = components[linked] = component_masks(linked, mask_a)
                    ties = []
                    low = top
                    for comp in comps:
                        delta = (b - a) * (2 * (comp & mask_a).bit_count() - comp.bit_count())
                        if delta < low:
                            low = delta
                            ties = [(comp, a, b)]
                        elif delta == low:
                            ties.append((comp, a, b))
                    row[b] = (mask_a, mask_b, low, ties)
                else:
                    low, ties = entry[2], entry[3]
                # a row holds only the moves a selection can pick (see the class docstring)
                if low > best_delta:
                    continue
                if low >= aspire_gap and (a_locked or b in class_until or pair_until.get((a, b), 0) >= at):
                    continue
                if low < best_delta:
                    best_delta = low
                    tied = ties[:]
                else:
                    tied += ties
        if not tied:
            return None
        chosen = tied[self.rng.randrange(len(tied))] if len(tied) > 1 else tied[0]
        return ExchangeMove(*chosen, best_delta)

    def _check_selection(self, kind: str, move: Move | None, tabu: TabuState, rng_state: tuple) -> None:
        """Cross-check the incremental selection against ``select_move`` over
        a full enumeration, replayed from the tabu and random state the
        selection started from: both must pick the same move and draw the
        same numbers."""
        if kind == EXCHANGE:
            moves = enumerate_exchange_moves(self.current, self.graph)
        else:
            moves = enumerate_relocate_moves(self.current, self.graph)
        reference_rng = random.Random()
        reference_rng.setstate(rng_state)
        reference = select_move(moves, tabu, self.best.sum, self.current.sum, reference_rng)
        if reference != move:
            raise AssertionError(f"selection mismatch: {reference} vs {move}")
        if reference_rng.getstate() != self.rng.getstate():
            raise AssertionError("selection consumed the random stream differently")

    def _check_state(self) -> None:
        current = self.current
        # is_proper and relocation feasibility trust the masks: check them first
        masks = [0] * current.k
        for v, c in enumerate(current.assignment):
            masks[c - 1] |= 1 << v
        if masks != current.class_masks:
            raise AssertionError("class masks out of sync with the assignment")
        if not is_proper(current, self.graph):
            raise AssertionError("current coloring became improper")
        if current.sum != sum(current.assignment):
            raise AssertionError("cached sum out of sync")
        for idx, m in enumerate(masks):
            expected = sum(1 << v for v, adj in enumerate(self.graph.adj_masks) if not adj & m)
            if expected != self.isolated[idx]:
                raise AssertionError(f"isolated-vertex mask out of sync for class {idx + 1}")
        # live rows (the only ones read) and the memo lists they came from match the reference
        isolated = self.isolated
        for a, row in enumerate(self.pair_cache[1:], 1):
            for b, (mask_a, mask_b, low, ties) in enumerate(row[1:], 1):
                if mask_a == masks[a - 1] and mask_b == masks[b - 1]:
                    expected = _pair_exchanges(current, self.graph, a, b)
                    comps = self._components.get((mask_a & ~isolated[b - 1]) | (mask_b & ~isolated[a - 1]))
                    if (low != min((m.delta for m in expected), default=current.k * self.graph.n)
                            or ties != [(m.mask, a, b) for m in expected if m.delta == low]
                            or comps is not None and comps != [m.mask for m in expected]):
                        raise AssertionError(f"pair cache out of sync for classes {a}, {b}")


def tabu_search(
    coloring: Coloring,
    graph: Graph,
    params: TabuSearchParams,
    rng: random.Random,
    neighborhoods: Sequence[str] = BOTH_NEIGHBORHOODS,
    validate: bool = False,
    on_improve: Callable[[int, int], None] | None = None,
    stats: SearchStats | None = None,
    stop_sum: int | None = None,
) -> Coloring:
    """Improve a proper coloring; returns the canonically relabeled best.

    Runs phases over ``neighborhoods`` in order (restricting the tuple to
    one entry gives the single-neighborhood variants), perturbing whenever
    ``stall_limit`` consecutive iterations pass without improving the best,
    until ``iteration_budget`` total iterations, or until the best sum is at
    most ``stop_sum``.  Its default, ``graph.sum_bound``, is a sum no
    coloring beats, so that stop returns what the full budget would; a
    caller content with more, as ``memetic_search`` is with a target above
    the bound, passes its own.  The result never has a larger sum than the
    input.
    """
    if not is_proper(coloring, graph):
        raise ValueError("tabu_search requires a proper coloring")
    for kind in neighborhoods:
        if kind not in (EXCHANGE, RELOCATE):
            raise ValueError(f"unknown neighborhood {kind!r}")
    if not neighborhoods:
        raise ValueError("need at least one neighborhood")
    stop = graph.sum_bound if stop_sum is None else stop_sum
    if coloring.sum <= stop:
        # no better coloring is needed (this covers the empty coloring)
        return canonical_relabel(coloring)
    run = TabuSearchRun(coloring, graph, params, rng, validate=validate, on_improve=on_improve,
                        stop_sum=stop)
    limits = {EXCHANGE: params.exchange_idle_limit, RELOCATE: params.relocate_idle_limit}
    while run.tabu.iteration < run.budget:
        for kind in neighborhoods:
            run.run_phase(kind, limits[kind])
        if run.tabu.iteration >= run.budget:
            break
        if run.stall >= params.stall_limit:
            run._set_current(perturb(run.best, run.tabu, rng))
            run.stall = 0
    if stats is not None:
        stats.iterations += run.tabu.iteration
    return canonical_relabel(run.best)
