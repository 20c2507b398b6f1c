import random

import pytest

from sumcol import Graph
from sumcol.graph import DimacsParseError, bits, parse_dimacs, to_dimacs

import oracles

SAMPLE = """\
c a 5-cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""


def test_parse_basic():
    g = parse_dimacs(SAMPLE)
    assert g.n == 5
    assert g.edge_count == 5
    assert g.adj_masks[0] >> 1 & 1 and g.adj_masks[1] >> 0 & 1
    assert not g.adj_masks[0] >> 2 & 1
    assert g.adj_lists[0] == (1, 4)
    assert g.degree(2) == 2
    assert list(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_parse_tolerates_loops_and_duplicates():
    text = "p edge 3 5\ne 1 2\ne 2 1\ne 1 1\ne 2 3\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.edge_count == 2
    assert g.adj_masks == [0b010, 0b101, 0b010]


def test_parse_accepts_edges_keyword_and_blank_lines():
    g = parse_dimacs("c x\n\np edges 2 1\n\ne 1 2\n")
    assert g.n == 2 and g.edge_count == 1


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("e 1 2\np edge 2 1\n", 1),           # edge before problem line
        ("p edge 2 1\np edge 2 1\n", 2),      # duplicate problem line
        ("p edge two 1\n", 1),                # non-integer count
        ("p edge 2\n", 1),                    # wrong field count
        ("p node 2 1\n", 1),                  # wrong format word
        ("p edge -1 0\n", 1),                 # negative count
        ("p edge 2 1\ne 1 3\n", 2),           # endpoint out of range
        ("p edge 2 1\ne 1\n", 2),             # malformed edge line
        ("p edge 2 1\ne 1 x\n", 2),           # non-integer endpoint
        ("p edge 2 1\nq 1 2\n", 2),           # unknown line kind
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(DimacsParseError) as info:
        parse_dimacs(text)
    assert info.value.line_no == line_no
    assert f"line {line_no}" in str(info.value)


def test_parse_requires_problem_line():
    with pytest.raises(DimacsParseError, match="missing problem line"):
        parse_dimacs("c only a comment\n")


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_roundtrip_serialization():
    g = parse_dimacs(SAMPLE)
    again = parse_dimacs(to_dimacs(g, comment="regenerated"))
    assert again.n == g.n
    assert list(again.edges()) == list(g.edges())


def test_roundtrip_random_graphs():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(0, 12)
        edges = oracles.random_gnp(n, 0.4, rng)
        g = Graph.from_edges(n, edges)
        again = parse_dimacs(to_dimacs(g))
        assert again.n == n
        assert set(again.edges()) == set(g.edges())


def components(g, subset):
    """Components of the subgraph induced by ``subset``, as vertex sets."""
    return [set(bits(m)) for m in g.component_masks(sum(1 << v for v in subset))]


def test_components_against_union_find():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 14)
        edges = oracles.random_gnp(n, 0.25, rng)
        g = Graph.from_edges(n, edges)
        subset = [v for v in range(n) if rng.random() < 0.7]
        ours = components(g, subset)
        reference = oracles.union_find_components(n, edges, subset)
        assert {frozenset(c) for c in ours} == set(reference)


def test_components_ordered_by_smallest_member():
    g = Graph.from_edges(6, [(0, 5), (1, 2)])
    comps = components(g, range(6))
    assert comps == [{0, 5}, {1, 2}, {3}, {4}]


def test_empty_graph():
    g = parse_dimacs("p edge 0 0\n")
    assert g.n == 0 and g.edge_count == 0
    assert components(g, []) == []
