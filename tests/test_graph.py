import codecs
import random
from itertools import combinations

import pytest

import sumcol.graph as graph_module
from sumcol import Graph
from sumcol.graph import InputError, bits, clique_partition_bound, load_dimacs, parse_dimacs, to_dimacs

import oracles
from conftest import require_instance

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
    with pytest.raises(InputError) as info:
        parse_dimacs(text)
    assert info.value.line_no == line_no
    assert f"line {line_no}" in str(info.value)


def test_load_dimacs_drops_a_leading_byte_order_mark(tmp_path):
    """A file saved with a UTF-8 byte-order mark loads the graph of the same
    file without one, and a bad line keeps its number."""
    plain, marked = tmp_path / "plain.col", tmp_path / "marked.col"
    plain.write_bytes(SAMPLE.encode("ascii"))
    marked.write_bytes(codecs.BOM_UTF8 + SAMPLE.encode("ascii"))
    expected, loaded = load_dimacs(str(plain)), load_dimacs(str(marked))
    assert (loaded.n, sorted(loaded.edges())) == (expected.n, sorted(expected.edges()))
    marked.write_bytes(codecs.BOM_UTF8 + b"q 1 2\n")
    with pytest.raises(InputError) as info:
        load_dimacs(str(marked))
    assert str(info.value) == f"{marked}: line 1: unrecognized line 'q 1 2'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("inside", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_load_dimacs_ends_lines_only_at_line_endings(tmp_path, newline, inside):
    """A form feed or other separator inside a comment neither ends the
    comment nor shifts the line numbers an editor shows."""
    path = tmp_path / "g.col"
    rows = [f"c made by a tool{inside}page 2", "p edge 2 1", "e 1 2"]
    path.write_bytes(newline.join(rows + [""]).encode("ascii"))
    loaded = load_dimacs(str(path))
    assert (loaded.n, list(loaded.edges())) == (2, [(0, 1)])
    path.write_bytes(newline.join(rows + ["q 1 2", ""]).encode("ascii"))
    with pytest.raises(InputError) as info:
        load_dimacs(str(path))
    assert str(info.value) == f"{path}: line 4: unrecognized line 'q 1 2'"


def test_parse_requires_problem_line():
    with pytest.raises(InputError, match="missing problem line"):
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
    return [set(bits(m)) for m in g.reference_components(sum(1 << v for v in subset))]


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


def test_side_search_matches_plain_search_and_union_find():
    """The reference search agrees with union-find on every class pair's
    whole union (whose isolated vertices are singletons) and on its linked
    part, and on a single class.  On the linked part, the only sets it
    takes, the search from the smaller side with one class of the proper
    coloring as the side returns the reference search's list."""
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 24)
        edges = oracles.random_gnp(n, rng.choice((0.1, 0.3, 0.6)), rng)
        g = Graph.from_edges(n, edges)
        adj = oracles.adjacency_sets(n, edges)
        assignment = oracles.random_proper_assignment(n, edges, rng)
        classes = {}
        for v, c in enumerate(assignment):
            classes[c] = classes.get(c, 0) | 1 << v
        colors = sorted(classes)
        for i, a in enumerate(colors):
            for b in colors[i:]:
                mask_a, mask_b = classes[a], classes[b]
                union = mask_a | mask_b
                linked = sum(1 << v for v in bits(union)
                             if any(assignment[u] == (b if assignment[v] == a else a) for u in adj[v]))
                for subset in (union, linked):
                    plain = g.reference_components(subset)
                    reference = oracles.union_find_components(n, edges, list(bits(subset)))
                    assert {frozenset(bits(c)) for c in plain} == set(reference)
                # ``plain`` is the linked part's list; only the side's bits inside it count
                outside = rng.getrandbits(n) & ~linked
                for side in (mask_a, mask_b, mask_a | outside):
                    if linked & side:
                        assert g.component_masks(linked, side) == plain


def test_side_search_merges_components_through_shared_neighbors():
    # the path 0-1-2-3-4-5, classes {0, 2, 4} and {1, 3, 5}
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    evens, odds = 0b010101, 0b101010
    whole = [0b111111]
    assert g.reference_components(evens | odds) == whole
    assert g.component_masks(evens | odds, evens) == whole
    assert g.component_masks(evens | odds, odds) == whole
    # without 2 and 3: {0, 1} and {4, 5}
    assert g.component_masks(0b110011, odds) == [0b11, 0b110000]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 191])
def test_neighborhood_matches_the_per_vertex_or(n):
    """Sets of every size read the byte tables, which the first call
    builds (none exist at n = 0)."""
    rng = random.Random(n)
    edges = oracles.random_gnp(n, 0.2, rng)
    g = Graph.from_edges(n, edges)
    adj = oracles.adjacency_sets(n, edges)

    def check(size):
        for _ in range(5):
            members = rng.sample(range(n), size)
            expected = sum(1 << u for u in set().union(*(adj[v] for v in members)))
            assert g.neighborhood(sum(1 << v for v in members)) == expected

    assert g._byte_tables is None
    for size in range(n + 1):
        check(size)
        assert len(g._byte_tables or []) == (n + 7) // 8


def test_reference_component_search_reads_only_the_adjacency_masks():
    """The reference search never builds the byte tables the engine's
    neighbourhoods read, so ``--validate`` compares two routes; on dense
    subsets of a dense graph it agrees with union-find."""
    rng = random.Random(64)
    edges = oracles.random_gnp(64, 0.5, rng)
    g = Graph.from_edges(64, edges)
    for _ in range(20):
        subset = [v for v in range(64) if rng.random() < 0.6]
        ours = g.reference_components(sum(1 << v for v in subset))
        reference = oracles.union_find_components(64, edges, subset)
        assert {frozenset(bits(c)) for c in ours} == set(reference)
    assert g._byte_tables is None


def test_empty_graph():
    g = parse_dimacs("p edge 0 0\n")
    assert g.n == 0 and g.edge_count == 0
    assert components(g, []) == []


@pytest.mark.parametrize(
    "name, bound",
    [("myciel3", 15), ("myciel4", 31), ("myciel5", 63), ("myciel6", 125), ("myciel7", 247),
     ("queen5_5", 75), ("queen6_6", 126), ("queen7_7", 196), ("queen8_8", 288),
     ("queen9_9", 405), ("queen8_12", 624)],
)
def test_clique_partition_bound_on_shipped_instances(name, bound):
    assert clique_partition_bound(require_instance(name)) == bound


def test_clique_partition_bound_never_exceeds_the_chromatic_sum():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = oracles.random_gnp(n, rng.choice((0.2, 0.5, 0.8)), rng)
        bound = clique_partition_bound(Graph.from_edges(n, edges))
        assert bound <= oracles.brute_force_chromatic_sum(n, edges)


def test_clique_partition_bound_is_the_optimum_on_cliques_and_edgeless_graphs():
    for n in range(8):
        clique = list(combinations(range(n), 2))
        assert clique_partition_bound(Graph.from_edges(n, [])) == n
        assert clique_partition_bound(Graph.from_edges(n, clique)) == n * (n + 1) // 2
        assert clique_partition_bound(Graph.from_edges(n, clique)) == oracles.brute_force_chromatic_sum(n, clique)


def test_sum_bound_is_computed_once_and_read_only(monkeypatch):
    calls = []
    original = graph_module.clique_partition_bound
    monkeypatch.setattr(graph_module, "clique_partition_bound", lambda g: calls.append(g) or original(g))
    g = parse_dimacs(SAMPLE)
    assert g._sum_bound is None
    # the 5-cycle splits into two edges and a vertex: 3 + 3 + 1, below its optimum 9
    assert g.sum_bound == g.sum_bound == 7
    assert calls == [g] and g._sum_bound == 7
    with pytest.raises(AttributeError):
        g.sum_bound = 9
