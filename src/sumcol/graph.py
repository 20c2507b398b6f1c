"""Undirected simple graphs, DIMACS .col parsing, and the reading of
input files.

Vertices are 0-based ints internally; all file formats use 1-based ids.
Adjacency is kept as one bitmask per vertex (fast set algebra, O(1)
membership) and one tuple of neighbours per vertex (fast iteration).  A
graph also fills two private caches of derived data on first use, freed
with it: byte tables that give the neighbourhood of a vertex set one byte
at a time (about 4n^2 bytes, built by the first ``Graph.neighborhood``
call, so only for a graph that a tabu search runs on), and two lower
bounds: the size of a greedy clique (``Graph.clique_size``) and a
clique-partition bound on the color sum (``Graph.sum_bound``).  Graphs are
immutable.

Two methods find the connected components of an induced subgraph, one per
caller: ``Graph.component_masks``, the tabu search's, takes only the linked
part of a two-color-class union (the vertices with a neighbor in the other
class) and walks only its smaller side, and ``Graph.reference_components``,
the one ``--validate`` checks it against, searches any vertex set breadth
first over ``adj_masks`` alone.

Every input file, a graph, a coloring or a manifest, is read by
``read_input``: it drops a leading UTF-8 byte-order mark, decodes the file
(ASCII with undecodable bytes replaced, or strict UTF-8 for a manifest),
runs the format's parser and names the file in front of any
``InputError``.  The parsers cut their text into numbered lines with
``data_lines``, which ends a line only at ``\n``, ``\r\n`` or ``\r`` and
separates fields only at ASCII whitespace, and convert fields with ``ints``.
"""

from __future__ import annotations

import codecs
from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")


class InputError(ValueError):
    """A malformed input file: a graph, a manifest or a coloring.  Carries
    the offending line number, or None when the file as a whole is refused."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def read_input(path: str, parse: Callable[..., _T], *args: object,
               encoding: str = "ascii", errors: str = "replace") -> _T:
    """``parse(text, *args)`` of the file at ``path`` decoded in ``encoding``.

    A leading UTF-8 byte-order mark is dropped before decoding, in every
    format, so it is neither part of the first line nor refused in it.
    An InputError raised by the parser gets ``path`` in front of its
    message; so does a byte that ``encoding`` cannot decode (possible only
    with ``errors="strict"``), refused as an InputError on that byte's line.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        try:
            text = data.decode(encoding, errors)
        except UnicodeDecodeError as exc:
            # the last line of the text before the byte is the byte's own
            before = data[:exc.start].decode(encoding)
            raise InputError(f"byte 0x{data[exc.start]:02x} is not valid {encoding}",
                             len(_split_lines(before))) from None
        return parse(text, *args)
    except InputError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, ended only by ``\n``, ``\r\n`` or ``\r`` (as
    an editor counts them; ``str.splitlines`` also breaks at form feeds,
    vertical tabs, U+2028 and more).  A final line break ends one more,
    empty line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# The characters str.split() and str.strip() cut at in ASCII text; beyond
# ASCII they also cut at no-break spaces, NEL, U+2028, U+3000 and more.
_ASCII_WHITESPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_TO_SPACE = str.maketrans(_ASCII_WHITESPACE, " " * len(_ASCII_WHITESPACE))


def data_lines(text: str, comment: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line_no, line, fields)`` for each line of ``text`` that is neither
    blank nor a comment (starts with ``comment`` once stripped); line numbers
    count from 1 and ``line`` is stripped.  Only ASCII whitespace separates
    and surrounds fields, so a path may hold a no-break or other Unicode
    space; an ASCII line, the common case, is cut by ``str.split``."""
    for line_no, raw in enumerate(_split_lines(text), start=1):
        ascii_line = raw.isascii()
        line = raw.strip() if ascii_line else raw.strip(_ASCII_WHITESPACE)
        if line and not line.startswith(comment):
            yield line_no, line, (line.split() if ascii_line else
                                  [f for f in line.translate(_TO_SPACE).split(" ") if f])


def ints(fields: list[str], line_no: int, message: str, *shown: object) -> list[int]:
    """``fields`` as integers, or InputError(message.format(*shown), line_no)
    if one is not an integer; the message is only formatted then."""
    try:
        return list(map(int, fields))
    except ValueError:
        raise InputError(message.format(*shown), line_no) from None


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edge_count", "adj_masks", "adj_lists", "_byte_tables", "_clique_size",
                 "_sum_bound")

    def __init__(self, n: int, adj_masks: list[int]):
        self.n = n
        self.adj_masks = adj_masks
        self.adj_lists: list[tuple[int, ...]] = [tuple(bits(m)) for m in adj_masks]
        self.edge_count = sum(len(a) for a in self.adj_lists) // 2
        self._byte_tables: list[list[int]] | None = None
        self._clique_size: int | None = None
        self._sum_bound: int | None = None

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

    @property
    def clique_size(self) -> int:
        """``greedy_clique(self)``, a lower bound on k; grown on first use."""
        if self._clique_size is None:
            self._clique_size = greedy_clique(self)
        return self._clique_size

    @property
    def sum_bound(self) -> int:
        """``clique_partition_bound(self)``, a lower bound on the color sum;
        computed on first use."""
        if self._sum_bound is None:
            self._sum_bound = clique_partition_bound(self)
        return self._sum_bound

    def neighborhood(self, mask: int) -> int:
        """Vertices with a neighbor among the ``mask`` vertices: one
        byte-table OR per nonzero byte of ``mask``.

        The tables are built on the first call, about 4n^2 bytes: measured
        0.09 MB at n = 64, 0.37 MB at 191 and 5.4 MB at 1000 (G(n, 0.5),
        CPython 3.11).  With random sets they beat ORing the members'
        adjacency masks one by one above about sqrt(n) / 2 vertices (4 at
        n = 64, 7 at n = 191, 18 at n = 900).  Below that the walk is a
        little faster per call, but a tabu search that switches to it for
        small classes runs no faster.
        """
        tables = self._byte_tables or self._build_byte_tables()
        reach = 0
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            if byte:
                reach |= table[byte]
        return reach

    def _build_byte_tables(self) -> list[list[int]]:
        """``tables[j][x]``: the OR of the adjacency masks of the vertices
        8j + i over the set bits i of the byte x."""
        adj = self.adj_masks + [0] * (-self.n % 8)
        tables = []
        for j in range(0, len(adj), 8):
            table = [0] * 256
            for x in range(1, 256):
                low = x & -x
                table[x] = table[x ^ low] | adj[j + low.bit_length() - 1]
            tables.append(table)
        self._byte_tables = tables
        return tables

    def component_masks(self, subset_mask: int, side: int) -> list[int]:
        """Connected components of the subgraph induced by the vertices set
        in ``subset_mask``, each returned as a bitmask, ordered by smallest
        member vertex: the tabu search's component search.

        Two preconditions.  First, ``subset_mask & side`` and
        ``subset_mask & ~side`` are both independent sets, as they are when
        ``subset_mask`` lies in the union of two color classes and ``side``
        is one of them.  Every edge then crosses between the two parts, so
        the search walks only the smaller part: each of its vertices joins
        its neighbors in the other part, and merges the components that
        already hold one of them.  Second, every vertex of the subset has a
        neighbor in it on the other side, as every vertex of a class pair's
        linked set does, so the walk reaches every vertex and no component
        is a singleton.  Without them the result may be wrong;
        ``reference_components`` has none.
        """
        adj = self.adj_masks
        small = subset_mask & side
        other = subset_mask ^ small
        if small.bit_count() > other.bit_count():
            small, other = other, small
        comps = []
        while small:
            low = small & -small
            small ^= low
            comp = (adj[low.bit_length() - 1] & other) | low
            apart = []
            for c in comps:
                if c & comp:
                    comp |= c
                else:
                    apart.append(c)
            apart.append(comp)
            comps = apart
        comps.sort(key=lambda c: c & -c)
        return comps

    def reference_components(self, subset_mask: int) -> list[int]:
        """Connected components of the subgraph induced by any vertex set,
        singletons included, ordered by smallest member vertex: the
        reference search that ``--validate`` checks the engine against.

        It grows each component breadth first, ORing the ``adj_masks`` of
        its newest vertices one vertex at a time.  It reads nothing else,
        and shares no code with ``neighborhood``, its byte tables or
        ``component_masks``, so the check compares two independent routes.
        """
        adj = self.adj_masks
        comps = []
        remaining = subset_mask
        while remaining:
            comp = frontier = remaining & -remaining
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
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


def _grow_clique(graph: Graph, v: int, mask: int) -> int:
    """The clique grown from ``v`` by adding the lowest-numbered common
    neighbour among the ``mask`` vertices until none is left, as a bitmask."""
    adj = graph.adj_masks
    clique = 1 << v
    cand = adj[v] & mask
    while cand:
        low = cand & -cand
        clique |= low
        cand &= adj[low.bit_length() - 1]
    return clique


def greedy_clique(graph: Graph) -> int:
    """Largest clique grown greedily from each vertex, adding the
    lowest-numbered common neighbour; a lower bound on k."""
    everyone = (1 << graph.n) - 1
    return max((_grow_clique(graph, v, everyone).bit_count() for v in range(graph.n)), default=0)


def clique_partition_bound(graph: Graph) -> int:
    """Lower bound on the color sum from a greedy partition into cliques.

    The lowest remaining vertex grows a clique by adding the lowest-numbered
    common neighbour among the remaining vertices, until none is left.  A
    clique of s vertices needs s distinct colors, so it adds at least
    1 + ... + s = s(s + 1) / 2 to any coloring's sum (Moukrim, Sghiouer,
    Lucet & Li 2010).
    """
    rest = (1 << graph.n) - 1
    bound = 0
    while rest:
        clique = _grow_clique(graph, (rest & -rest).bit_length() - 1, rest)
        rest ^= clique
        size = clique.bit_count()
        bound += size * (size + 1) // 2
    return bound


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col content: 'c' comments, one 'p edge <n> <m>' line,
    then 'e <u> <v>' lines with 1-based endpoints.

    Self-loops are dropped and duplicate edges (either orientation)
    collapse into one, as ``Graph.from_edges`` does; the declared edge count
    must not be negative but may disagree with the distinct count
    (``graph.edge_count``).  Structural problems raise InputError with
    a line number.
    """
    n = -1
    edges: list[tuple[int, int]] = []
    for line_no, line, fields in data_lines(text, "c"):
        kind = fields[0]
        if kind == "p":
            if n >= 0:
                raise InputError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] not in ("edge", "edges"):
                raise InputError(f"malformed problem line {line!r}", line_no)
            n, declared = ints(fields[2:], line_no, "non-integer problem line {!r}", line)
            if n < 0 or declared < 0:
                raise InputError(f"negative counts in problem line {line!r}", line_no)
        elif kind == "e":
            if n < 0:
                raise InputError("edge line before problem line", line_no)
            if len(fields) != 3:
                raise InputError(f"malformed edge line {line!r}", line_no)
            u, v = ints(fields[1:], line_no, "non-integer endpoints {!r}", line)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"endpoint outside 1..{n} in {line!r}", line_no)
            edges.append((u - 1, v - 1))
        else:
            raise InputError(f"unrecognized line {line!r}", line_no)
    if n < 0:
        raise InputError("missing problem line")
    return Graph.from_edges(n, edges)


def load_dimacs(path: str) -> Graph:
    return read_input(path, parse_dimacs)


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
