"""Undirected simple graphs and DIMACS .col parsing.

Vertices are 0-based ints internally; all file formats use 1-based ids.
Adjacency is kept in two redundant forms: one bitmask per vertex (fast
set algebra, O(1) membership) and one tuple of neighbours per vertex
(fast iteration).  Graphs are immutable once built.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class DimacsParseError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edge_count", "adj_masks", "adj_lists")

    def __init__(self, n: int, adj_masks: list[int]):
        self.n = n
        self.adj_masks = adj_masks
        self.adj_lists: list[tuple[int, ...]] = [tuple(bits(m)) for m in adj_masks]
        self.edge_count = sum(len(a) for a in self.adj_lists) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based endpoint pairs.  Self-loops are dropped and
        duplicate edges (either orientation) collapse into one."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u != v:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return cls(n, masks)

    def degree(self, v: int) -> int:
        return len(self.adj_lists[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in self.adj_lists[u]:
                if u < v:
                    yield u, v

    def component_masks(self, subset_mask: int) -> list[int]:
        """Connected components of the subgraph induced by the vertices set
        in ``subset_mask``, each returned as a bitmask.  Singletons included.
        Ordered by smallest member vertex."""
        comps = []
        adj = self.adj_masks
        remaining = subset_mask
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                reach = 0
                m = frontier
                while m:
                    low = m & -m
                    reach |= adj[low.bit_length() - 1]
                    m ^= low
                frontier = reach & remaining & ~comp
                comp |= frontier
            comps.append(comp)
            remaining &= ~comp
        return comps


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col content: 'c' comments, one 'p edge <n> <m>' line,
    then 'e <u> <v>' lines with 1-based endpoints.

    Self-loops are dropped and duplicate edges (either orientation)
    collapse into one, as ``Graph.from_edges`` does; the declared edge count
    must not be negative but may disagree with the distinct count
    (``graph.edge_count``).  Structural problems raise DimacsParseError
    with a line number.
    """
    n = -1
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n >= 0:
                raise DimacsParseError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] not in ("edge", "edges"):
                raise DimacsParseError(f"malformed problem line {line!r}", line_no)
            try:
                n, declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsParseError(f"non-integer problem line {line!r}", line_no) from None
            if n < 0 or declared < 0:
                raise DimacsParseError(f"negative counts in problem line {line!r}", line_no)
        elif kind == "e":
            if n < 0:
                raise DimacsParseError("edge line before problem line", line_no)
            if len(fields) != 3:
                raise DimacsParseError(f"malformed edge line {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsParseError(f"non-integer endpoints {line!r}", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsParseError(f"endpoint outside 1..{n} in {line!r}", line_no)
            edges.append((u - 1, v - 1))
        else:
            raise DimacsParseError(f"unrecognized line {line!r}", line_no)
    if n < 0:
        raise DimacsParseError("missing problem line")
    return Graph.from_edges(n, edges)


def load_dimacs(path: str) -> Graph:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_dimacs(fh.read())


def to_dimacs(graph: Graph, comment: str | None = None) -> str:
    """Serialize back to DIMACS .col text (distinct edges only)."""
    out = []
    if comment:
        for part in comment.splitlines():
            out.append(f"c {part}")
    out.append(f"p edge {graph.n} {graph.edge_count}")
    for u, v in graph.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"
