"""The instance generator rebuilds every shipped constructible file exactly,
and its seeded random graphs are pinned."""

import hashlib
import sys
from pathlib import Path

import pytest

from sumcol import Coloring, is_proper
from sumcol.bench import load_manifest
from sumcol.graph import to_dimacs

from conftest import INSTANCE_DIR, MANIFEST_PATH, load_generator

GENERATOR = load_generator()


def test_loading_the_generator_leaves_sys_path_unchanged():
    """Only a script run puts the tool's tree first on ``sys.path``, so a
    program that loads the tool and then ``sumcol`` gets the ``sumcol`` it
    would get without the tool."""
    before = list(sys.path)
    load_generator()
    assert sys.path == before


@pytest.mark.parametrize("stem, build, n, m", GENERATOR.FAMILIES, ids=[f[0] for f in GENERATOR.FAMILIES])
def test_generator_reproduces_shipped_instance(stem, build, n, m):
    path = INSTANCE_DIR / f"{stem}.col"
    text = to_dimacs(build(), comment=f"{stem}: generated by tools/make_instances.py")
    assert text.encode("ascii") == path.read_bytes()
    rows = [r for r in load_manifest(str(MANIFEST_PATH)) if Path(r.path).name == path.name]
    assert len(rows) == 1
    assert (rows[0].n, rows[0].m) == (n, m)


@pytest.mark.parametrize("p, m, digest", [
    (0.5, 15527, "90bc6c42dddd964784344d2361f6646f435ed150238862cca5843bfe82aae43f"),
    (0.1, 3163, "e7edbc9c53196ea210c5f31c0d1d2c8b71e26a53c3f66c25386316a7a2144680"),
])
def test_gnp_stand_in_is_pinned(p, m, digest):
    """The G(250, p) stand-ins for the DSJC rows draw the same graph on every
    run: a change to the draw order or the model shows here."""
    g = GENERATOR.gnp(250, p, 1)
    assert (g.n, g.edge_count) == (250, m)
    assert hashlib.sha256(to_dimacs(g).encode("ascii")).hexdigest() == digest


def test_planted_stand_in_is_pinned():
    """The planted stand-in for flat300_20_0 draws the same graph on every
    run, and its hidden coloring v % 20 + 1 is proper with the flat row's
    best sum 3150 = 15 * 210, an upper bound on its optimum."""
    g = GENERATOR.planted(300, 20, 0.5, 1)
    assert (g.n, g.edge_count) == (300, 21362)
    assert hashlib.sha256(to_dimacs(g).encode("ascii")).hexdigest() == (
        "488e5452f00c2ce5acb605205524addeb2789f7b1139b4addb2b2b135356047c")
    hidden = Coloring.from_assignment([v % 20 + 1 for v in range(300)])
    assert is_proper(hidden, g)
    assert hidden.sum == 3150 == 15 * 210


@pytest.mark.parametrize("order", [30, 40, 60])
def test_manifest_qg_order_rows_match_the_rook_graph(order):
    """The qg.order rows describe K_N x K_N: one vertex per cell of an N x N
    grid, adjacent within a row or a column.  Each row is an N-clique, so
    any coloring sums to at least N * N(N+1)/2, the clique-partition bound,
    and the Latin square (r + c) mod N + 1 is a proper coloring with exactly
    that sum: it is optimal."""
    record = next(r for r in load_manifest(str(MANIFEST_PATH)) if r.name == f"qg.order{order}")
    cells = range(order * order)
    graph = GENERATOR.rook(order)
    assert (record.n, record.m) == (graph.n, graph.edge_count)
    latin = Coloring.from_assignment([(u // order + u % order) % order + 1 for u in cells])
    assert is_proper(latin, graph)
    assert latin.sum == order * order * (order + 1) // 2
    assert graph.sum_bound == latin.sum
    assert (record.best_known, record.bound_exact, record.gcp_k) == (latin.sum, True, order)
