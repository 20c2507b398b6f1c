"""Colorings of a graph and the quantities the solver optimizes.

A coloring assigns every vertex a color in 1..k, where k counts allocated
classes; an allocated class may be empty mid-search.  The optimization
objective is the sum of assigned colors, so relabeling classes matters:
``canonical_relabel`` orders classes by decreasing size (ties by smallest
member), which both minimizes the sum for a fixed partition and gives every
partition a unique representative assignment.

Also provides the one-solution text format used for warm starts and result
dumps: a header ``s <sum> <k>`` followed by one ``v <vertex> <color>`` line
per vertex, ids and colors 1-based.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, InputError, bits, data_lines, ints, read_input


class Coloring:
    """Mutable vertex coloring with incremental bookkeeping.

    Maintains, besides the per-vertex assignment, one membership bitmask per
    class (a class's size is its mask's bit count) and the cached color sum,
    all updated in O(moved vertices) by the mutators.  Equality compares
    assignments only, so two canonical colorings are equal iff they are the
    same partition; colorings are mutable and so not hashable.
    """

    __slots__ = ("assignment", "class_masks", "sum")

    def __init__(self, assignment: list[int], class_masks: list[int], total: int):
        self.assignment = assignment
        self.class_masks = class_masks
        self.sum = total

    @classmethod
    def from_assignment(cls, colors: Sequence[int], k: int | None = None) -> "Coloring":
        """Build from 1-based per-vertex colors; k defaults to max(colors),
        and to 0 for the empty coloring of a graph without vertices."""
        assignment = list(colors)
        top = max(assignment, default=0)
        if min(assignment, default=1) < 1:
            raise ValueError("colors must be >= 1")
        if k is None:
            k = top
        elif k < top:
            raise ValueError(f"k={k} below largest used color {top}")
        masks = [0] * k
        for v, c in enumerate(assignment):
            masks[c - 1] |= 1 << v
        return cls(assignment, masks, sum(assignment))

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def k(self) -> int:
        return len(self.class_masks)

    def copy(self) -> "Coloring":
        return Coloring(self.assignment[:], self.class_masks[:], self.sum)

    def add_class(self) -> int:
        """Allocate one empty class; returns its (1-based) color."""
        self.class_masks.append(0)
        return len(self.class_masks)

    def recolor(self, v: int, color: int) -> None:
        """Move one vertex to ``color`` (1-based, must be allocated)."""
        old = self.assignment[v]
        bit = 1 << v
        self.class_masks[old - 1] ^= bit
        self.class_masks[color - 1] |= bit
        self.assignment[v] = color
        self.sum += color - old

    def swap_between(self, mask: int, color_a: int, color_b: int) -> None:
        """Exchange the ``mask`` vertices between classes a and b: members of
        a in the mask move to b and vice versa."""
        ma = self.class_masks[color_a - 1]
        mb = self.class_masks[color_b - 1]
        part_a = mask & ma
        part_b = mask & mb
        count_a = part_a.bit_count()
        count_b = part_b.bit_count()
        self.class_masks[color_a - 1] = (ma & ~part_a) | part_b
        self.class_masks[color_b - 1] = (mb & ~part_b) | part_a
        assignment = self.assignment
        m = part_a
        while m:
            low = m & -m
            assignment[low.bit_length() - 1] = color_b
            m ^= low
        m = part_b
        while m:
            low = m & -m
            assignment[low.bit_length() - 1] = color_a
            m ^= low
        self.sum += (color_b - color_a) * (count_a - count_b)

    def class_members(self, color: int) -> list[int]:
        """Members of one class (1-based color), ascending."""
        return list(bits(self.class_masks[color - 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self):
        return f"Coloring(n={self.n}, k={self.k}, sum={self.sum})"


def is_proper(coloring: Coloring, graph: Graph) -> bool:
    """True iff no edge joins two vertices of the same class."""
    if coloring.n != graph.n:
        return False
    masks = coloring.class_masks
    adj = graph.adj_masks
    for v, c in enumerate(coloring.assignment):
        if adj[v] & masks[c - 1]:
            return False
    return True


def hamming_distance(a: Coloring, b: Coloring) -> int:
    """Number of vertices whose assigned colors differ."""
    if a.n != b.n:
        raise ValueError(f"colorings over different vertex sets: {a.n} != {b.n}")
    return sum(1 for x, y in zip(a.assignment, b.assignment) if x != y)


def canonical_relabel(coloring: Coloring) -> Coloring:
    """Relabel classes by decreasing size, drop empty classes.

    Size ties break on the smallest member vertex, so any two colorings with
    the same underlying partition relabel to the identical assignment.  The
    result minimizes the color sum over all relabelings of the partition and
    the map is idempotent.  Never increases the sum.
    """
    masks = coloring.class_masks
    order = sorted(
        (i for i in range(coloring.k) if masks[i]),
        key=lambda i: (-masks[i].bit_count(), masks[i] & -masks[i]),
    )
    relabel = {old: new for new, old in enumerate(order, start=1)}
    assignment = [relabel[c - 1] for c in coloring.assignment]
    return Coloring(assignment, [masks[old] for old in order], sum(assignment))


def format_coloring(coloring: Coloring) -> str:
    """Render the one-solution text format."""
    lines = [f"s {coloring.sum} {coloring.k}"]
    for v, c in enumerate(coloring.assignment):
        lines.append(f"v {v + 1} {c}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, graph: Graph) -> Coloring:
    """Parse the one-solution text format and validate it against ``graph``.

    Rejects missing or repeated vertices, a header k that is negative or
    above the vertex count, colors outside 1..k, a header sum that
    disagrees with the body, and improper colorings, with an InputError
    that carries the number of a refused line.
    """
    header: list[int] | None = None
    seen: dict[int, int] = {}
    for line_no, line, fields in data_lines(text, "c"):
        if fields[0] == "s":
            if header is not None:
                raise InputError("duplicate header", line_no)
            if len(fields) != 3:
                raise InputError(f"malformed header {line!r}", line_no)
            header = ints(fields[1:], line_no, "non-integer header {!r}", line)
            if header[1] < 0:
                raise InputError(f"negative header k={header[1]}", line_no)
        elif fields[0] == "v":
            if header is None:
                raise InputError("vertex line before header", line_no)
            if len(fields) != 3:
                raise InputError(f"malformed vertex line {line!r}", line_no)
            v, c = ints(fields[1:], line_no, "non-integer vertex line {!r}", line)
            if not 1 <= v <= graph.n:
                raise InputError(f"vertex {v} outside 1..{graph.n}", line_no)
            if v in seen:
                raise InputError(f"vertex {v} assigned twice", line_no)
            seen[v] = c
        else:
            raise InputError(f"unrecognized line {line!r}", line_no)
    if header is None:
        raise InputError("missing header line")
    total, k = header
    if k > graph.n:
        raise InputError(f"header k={k} exceeds the {graph.n} vertices")
    missing = graph.n - len(seen)
    if missing:
        raise InputError(f"incomplete coloring: {missing} vertices unassigned")
    colors = [seen[v] for v in range(1, graph.n + 1)]
    if any(not 1 <= c <= k for c in colors):
        raise InputError(f"colors outside 1..{k}")
    if sum(colors) != total:
        raise InputError(f"header sum {total} != actual {sum(colors)}")
    coloring = Coloring.from_assignment(colors, k=k)
    if not is_proper(coloring, graph):
        raise InputError("coloring is not proper for this graph")
    return coloring


def load_coloring(path: str, graph: Graph) -> Coloring:
    return read_input(path, parse_coloring, graph)


def save_coloring(path: str, coloring: Coloring) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_coloring(coloring))
