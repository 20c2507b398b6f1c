"""Regenerate the constructible benchmark instances under instances/.

Two families have exact mathematical definitions, so their .col files can be
rebuilt from scratch (isomorphic to the distributed originals, possibly with
a different vertex numbering):

* mycielN: start from K2 and apply the Mycielski construction N-1 times
  (so myciel3 is the 11-vertex Grotzsch graph).
* queenN_M: one vertex per square of an N x M board, edges between squares
  sharing a row, column, or diagonal.

The remaining benchmark files are empirical graphs (book graphs, road
distances, football games, fixed random instances); they cannot be derived
and must be supplied by the user.  For the random DSJC rows, ``gnp`` builds
seeded stand-ins in memory from the same model, and ``planted`` does so for
the flat rows from a planted-coloring model; ``rook`` builds the qg.order
rows' graphs.  These three write no file, and the random graphs are not the
distributed ones.  Run from the repository root:

    python tools/make_instances.py
"""

import os
import random
import sys

if __name__ == "__main__":
    # a script run imports this tree's package; loading the tool leaves sys.path alone
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sumcol.graph import Graph, to_dimacs  # noqa: E402


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: n new shadow vertices plus one apex."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    for w in range(n, 2 * n):
        edges.append((w, apex))
    return Graph.from_edges(2 * n + 1, edges)


def myciel(order: int) -> Graph:
    g = Graph.from_edges(2, [(0, 1)])
    for _ in range(order - 1):
        g = mycielskian(g)
    return g


def queens(rows: int, cols: int) -> Graph:
    edges = []
    for r1 in range(rows):
        for c1 in range(cols):
            u = r1 * cols + c1
            for r2 in range(rows):
                for c2 in range(cols):
                    v = r2 * cols + c2
                    if v <= u:
                        continue
                    if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                        edges.append((u, v))
    return Graph.from_edges(rows * cols, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Uniform random graph G(n, p), the model of the DSJC instances (Johnson,
    Aragon, McGeoch & Schevon 1991): one ``random.Random(seed).random() < p``
    draw per pair u < v, pairs in ascending order."""
    draw = random.Random(seed).random
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < p])


def rook(n: int) -> Graph:
    """The rook graph K_n x K_n, the graph of the qg.order rows: vertex
    r * n + c is the cell (r, c), joined to the later cells of its row and
    of its column, in ascending order."""
    edges = []
    for u in range(n * n):
        edges.extend((u, v) for v in range(u + 1, (u // n + 1) * n))
        edges.extend((u, v) for v in range(u + n, n * n, n))
    return Graph.from_edges(n * n, edges)


def planted(n: int, k: int, p: float, seed: int) -> Graph:
    """Planted k-colorable random graph (Turner 1988): vertex v is in hidden
    class v % k, and one ``random.Random(seed).random() < p`` draw per pair
    u < v in different hidden classes, pairs in ascending order, decides
    its edge.  It stands in for the flat rows such as ``flat300_20_0``
    (n = 300, m = 21375, best sum 3150); it is not Culberson & Luo's
    degree-flattened construction."""
    draw = random.Random(seed).random
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if u % k != v % k and draw() < p])


# (file stem, builder, expected n, expected m)
FAMILIES = [
    ("myciel3", lambda: myciel(3), 11, 20),
    ("myciel4", lambda: myciel(4), 23, 71),
    ("myciel5", lambda: myciel(5), 47, 236),
    ("myciel6", lambda: myciel(6), 95, 755),
    ("myciel7", lambda: myciel(7), 191, 2360),
    ("queen5_5", lambda: queens(5, 5), 25, 160),
    ("queen6_6", lambda: queens(6, 6), 36, 290),
    ("queen7_7", lambda: queens(7, 7), 49, 476),
    ("queen8_8", lambda: queens(8, 8), 64, 728),
    ("queen9_9", lambda: queens(9, 9), 81, 1056),
    ("queen8_12", lambda: queens(8, 12), 96, 1368),
]


def main() -> int:
    out_dir = os.path.join(os.path.dirname(__file__), "..", "instances")
    os.makedirs(out_dir, exist_ok=True)
    for stem, build, want_n, want_m in FAMILIES:
        g = build()
        if (g.n, g.edge_count) != (want_n, want_m):
            print(f"{stem}: got n={g.n} m={g.edge_count}, expected n={want_n} m={want_m}")
            return 1
        path = os.path.join(out_dir, stem + ".col")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(to_dimacs(g, comment=f"{stem}: generated by tools/make_instances.py"))
        print(f"wrote {path} (n={g.n}, m={g.edge_count})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
