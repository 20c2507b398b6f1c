import random

import pytest

from sumcol import Coloring, Graph, is_proper
from sumcol.coloring import (
    canonical_relabel,
    format_coloring,
    hamming_distance,
    load_coloring,
    parse_coloring,
)
from sumcol.graph import InputError

import oracles


def test_from_assignment_basics():
    c = Coloring.from_assignment([1, 2, 1, 3])
    assert c.n == 4 and c.k == 3
    assert c.sum == 7 == sum(c.assignment)
    assert [m.bit_count() for m in c.class_masks] == [2, 1, 1]
    assert c.class_members(1) == [0, 2]


def test_from_assignment_allocates_trailing_empty_classes():
    c = Coloring.from_assignment([1, 1], k=3)
    assert c.k == 3
    assert [m.bit_count() for m in c.class_masks] == [2, 0, 0]


def test_the_empty_coloring_has_no_class_and_sum_zero():
    c = Coloring.from_assignment([])
    assert (c.n, c.k, c.sum, c.class_masks) == (0, 0, 0, [])
    assert canonical_relabel(c) == c
    assert parse_coloring(format_coloring(c), Graph.from_edges(0, [])).k == 0


def test_from_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        Coloring.from_assignment([0, 1])
    with pytest.raises(ValueError):
        Coloring.from_assignment([1, 4], k=3)


def test_recolor_updates_everything():
    c = Coloring.from_assignment([1, 2, 1])
    c.recolor(0, 2)
    assert c.assignment == [2, 2, 1]
    assert c.sum == 5
    assert [m.bit_count() for m in c.class_masks] == [1, 2]
    assert c.class_members(2) == [0, 1]


def test_add_class_then_recolor_into_it():
    c = Coloring.from_assignment([1, 1])
    fresh = c.add_class()
    assert fresh == 2 and c.k == 2
    c.recolor(1, fresh)
    assert c.assignment == [1, 2] and c.sum == 3


def test_swap_between_matches_manual_recolors():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 12)
        assignment = [rng.randint(1, 4) for _ in range(n)]
        c = Coloring.from_assignment(assignment, k=4)
        manual = Coloring.from_assignment(assignment, k=4)
        a, b = rng.sample([1, 2, 3, 4], 2)
        members = [v for v in range(n) if assignment[v] in (a, b) and rng.random() < 0.5]
        mask = 0
        for v in members:
            mask |= 1 << v
        c.swap_between(mask, a, b)
        for v in members:
            manual.recolor(v, b if assignment[v] == a else a)
        assert c.assignment == manual.assignment
        assert c.sum == manual.sum == oracles.naive_sum(c.assignment)
        assert [m.bit_count() for m in c.class_masks] == [m.bit_count() for m in manual.class_masks]


def test_incremental_sum_over_random_recolors():
    rng = random.Random(11)
    c = Coloring.from_assignment([rng.randint(1, 5) for _ in range(30)], k=6)
    for _ in range(2000):
        c.recolor(rng.randrange(30), rng.randint(1, 6))
        assert c.sum == oracles.naive_sum(c.assignment)


def test_is_proper():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert is_proper(Coloring.from_assignment([1, 2, 1]), g)
    assert not is_proper(Coloring.from_assignment([1, 1, 2]), g)
    assert not is_proper(Coloring.from_assignment([1, 2]), g)


def test_hamming_distance():
    a = Coloring.from_assignment([1, 2, 3])
    b = Coloring.from_assignment([1, 3, 3])
    assert hamming_distance(a, b) == 1
    assert hamming_distance(a, a) == 0
    with pytest.raises(ValueError):
        hamming_distance(a, Coloring.from_assignment([1, 2]))


def test_equality_and_hash_follow_assignment():
    a = Coloring.from_assignment([1, 2, 1])
    b = Coloring.from_assignment([1, 2, 1], k=3)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    assert a != Coloring.from_assignment([2, 1, 2])


def test_a_coloring_is_unequal_to_another_type_and_shows_its_size():
    c = Coloring.from_assignment([1, 2, 1, 3])
    assert c.__eq__([1, 2, 1, 3]) is NotImplemented
    assert c != [1, 2, 1, 3]
    assert not c == c.assignment
    assert repr(c) == "Coloring(n=4, k=3, sum=7)"


def test_canonical_relabel_known_case():
    # class {1,3} is larger than {0} and {2}; {0} precedes {2} by member
    c = canonical_relabel(Coloring.from_assignment([2, 1, 3, 1]))
    assert c.assignment == [2, 1, 3, 1]
    worse = canonical_relabel(Coloring.from_assignment([3, 2, 1, 2]))
    assert worse.assignment == [2, 1, 3, 1]


def test_canonical_relabel_matches_permutation_search():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 10)
        k = rng.randint(1, min(5, n))
        assignment = [rng.randint(1, k) for _ in range(n)]
        # force every color in 1..k to be used so the oracle's label set matches
        for color in range(1, k + 1):
            assignment[rng.randrange(n)] = color
        if len(set(assignment)) != k:
            continue
        ours = canonical_relabel(Coloring.from_assignment(assignment))
        assert tuple(ours.assignment) == oracles.naive_canonical(assignment)


def test_canonical_relabel_idempotent_and_never_worse():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 12)
        c = Coloring.from_assignment([rng.randint(1, 6) for _ in range(n)], k=7)
        once = canonical_relabel(c)
        assert once.sum <= c.sum
        assert canonical_relabel(once).assignment == once.assignment
        sizes = [m.bit_count() for m in once.class_masks]
        assert all(s > 0 for s in sizes)
        assert sizes == sorted(sizes, reverse=True)


def test_canonical_relabel_identifies_equal_partitions():
    a = Coloring.from_assignment([1, 1, 2, 3])
    b = Coloring.from_assignment([3, 3, 1, 2])
    assert canonical_relabel(a).assignment == canonical_relabel(b).assignment


def test_solution_text_roundtrip():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = Coloring.from_assignment([1, 2, 1])
    text = format_coloring(c)
    assert text.splitlines()[0] == "s 4 2"
    again = parse_coloring("c a comment line is skipped\n" + text, g)
    assert again.assignment == c.assignment


# the line each refusal below names; None where the whole file is refused
REFUSED_LINE = {
    "before header": 1, "duplicate header": 2, "malformed header": 1, "non-integer header": 1,
    "assigned twice": 3, "outside": 3, "unrecognized": 2, "malformed vertex line": 2,
    "non-integer vertex line": 2,
    "unassigned": None, "color 3 outside 1..2": 3, "header sum": None, "not proper": None,
    "header k=4 exceeds the 3 vertices": 1, "missing header": None,
}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("v 1 1\n", "before header"),
        ("s 4 2\ns 4 2\n", "duplicate header"),
        ("s 4\n", "malformed header"),
        ("s x 2\n", "non-integer header"),
        ("s 4 2\nv 1 1\nv 1 2\nv 3 1\n", "assigned twice"),
        ("s 4 2\nv 1 1\nv 9 2\n", "outside"),
        ("s 4 2\nv 1 1\nv 2 2\n", "unassigned"),
        ("s 4 2\nv 1 1\nv 2 3\nv 3 1\n", "color 3 outside 1..2"),
        ("s 9 2\nv 1 1\nv 2 2\nv 3 1\n", "header sum"),
        ("s 4 2\nv 1 1\nv 2 1\nv 3 2\n", "not proper"),
        ("s 4 2\nx 1 1\n", "unrecognized"),
        ("s 4 4\nv 1 1\nv 2 2\nv 3 1\n", "header k=4 exceeds the 3 vertices"),
        ("s 4 2\nv 1\n", "malformed vertex line"),
        ("s 4 2\nv 1 x\n", "non-integer vertex line"),
        ("c only a comment\n", "missing header"),
    ],
)
def test_parse_coloring_rejects(text, needle):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=needle) as info:
        parse_coloring(text, g)
    line_no = REFUSED_LINE[needle]
    assert info.value.line_no == line_no
    if line_no is not None:
        assert str(info.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("n, edges", [(0, []), (3, [(0, 1), (1, 2)])])
def test_negative_header_k_is_refused_on_its_line(tmp_path, n, edges):
    """On the empty graph too, where no vertex line is there to refuse."""
    body = "".join(f"v {v} 1\n" for v in range(1, n + 1))
    path = tmp_path / "start.txt"
    path.write_text(f"c a warm start\ns {n} -1\n{body}")
    with pytest.raises(InputError, match="negative header k=-1") as info:
        load_coloring(str(path), Graph.from_edges(n, edges))
    assert info.value.line_no == 2
    assert str(info.value).startswith(f"{path}: line 2: ")
