"""Ranking validation against an independent path-enumeration oracle."""

from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import neighbours, random_connected_graph
from rankgrid.graphs import GraphShape, build
from rankgrid.verify import Ranking, checked, validate


def oracle_valid(g, labels) -> bool:
    """Definition checked literally: every simple path between equal labels
    must contain an interior vertex with a strictly greater label."""
    adj = neighbours(g)

    def paths(a, b):
        stack = [(a, [a])]
        while stack:
            v, path = stack.pop()
            if v == b:
                yield path
                continue
            for w in adj[v]:
                if w not in path:
                    stack.append((w, path + [w]))

    n = g.vertex_count
    for a in range(n):
        for b in range(a + 1, n):
            if labels[a] != labels[b]:
                continue
            for path in paths(a, b):
                if not any(labels[v] > labels[a] for v in path[1:-1]):
                    return False
    return True


def test_known_valid_path_ranking():
    g = build(GraphShape.path(3))
    assert validate(Ranking(g, (1, 2, 1))) is None


def test_known_invalid_path_ranking():
    g = build(GraphShape.path(3))
    bad = validate(Ranking(g, (1, 1, 2)))
    assert bad is not None
    assert bad.level == 1
    assert set(bad.witnesses) == {0, 1}


def test_violation_witness_path_is_concrete():
    g = build(GraphShape.grid(2, 3))
    bad = validate(Ranking(g, (1, 2, 1, 1, 2, 1)))
    assert bad is not None
    a, b = bad.witnesses
    path = bad.path
    assert path[0] == a and path[-1] == b
    for u, v in zip(path, path[1:]):
        assert g.adjacency_masks[u] >> v & 1
    assert all(Ranking(g, (1, 2, 1, 1, 2, 1)).labels[v] <= bad.level for v in path)


def test_validate_agrees_with_oracle_on_random_labelings(rng):
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n)
        labels = tuple(rng.randint(1, max(2, n - 1)) for _ in range(n))
        got = validate(Ranking(g, labels)) is None
        assert got == oracle_valid(g, labels)


def test_validate_agrees_with_oracle_exhaustively_small():
    g = build(GraphShape.grid(2, 2))
    for labels in product(range(1, 4), repeat=4):
        got = validate(Ranking(g, labels)) is None
        assert got == oracle_valid(g, labels)


def test_order_preserving_compression_keeps_validity(rng):
    # squashing the label alphabet while keeping relative order cannot
    # create a new offending path
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n)
        labels = tuple(rng.randint(1, 9) for _ in range(n))
        if validate(Ranking(g, labels)) is not None:
            continue
        order = {v: i + 1 for i, v in enumerate(sorted(set(labels)))}
        squashed = tuple(order[l] for l in labels)
        assert validate(Ranking(g, squashed)) is None


def test_restriction_keeps_validity():
    g = build(GraphShape.grid(2, 3))
    r = Ranking(g, (1, 3, 1, 2, 1, 4))
    assert validate(r) is None
    keep = [0, 1, 3, 4]
    sub, idx = g.induced_subgraph(keep)
    sub_labels = tuple(r.labels[v] for v in keep)
    assert validate(Ranking(sub, sub_labels)) is None
    assert idx == keep


def test_is_valid_and_label_count():
    g = build(GraphShape.path(4))
    r = Ranking(g, (1, 2, 1, 3))
    assert validate(r) is None
    assert r.label_count == 3


def test_ranking_rejects_bad_shapes():
    g = build(GraphShape.path(3))
    with pytest.raises(ValueError):
        Ranking(g, (1, 2))
    with pytest.raises(ValueError):
        Ranking(g, (0, 1, 2))


def test_ranking_json():
    g = build(GraphShape.path(3))
    d = Ranking(g, (1, 2, 1)).to_json_dict()
    assert d["labels"] == [1, 2, 1]
    assert d["graph_hash"] == g.graph_hash


def test_checked_returns_a_valid_ranking():
    g = build(GraphShape.path(3))
    r = checked(g, [1, 2, 1])
    assert r == Ranking(g, (1, 2, 1))
    assert checked(g, (1, 2, 1), 2) == r


def test_checked_names_the_violation():
    g = build(GraphShape.path(3))
    with pytest.raises(AssertionError, match="level=1"):
        checked(g, [1, 1, 2])


def test_checked_rejects_a_wrong_count():
    g = build(GraphShape.path(3))
    with pytest.raises(AssertionError, match="3 labels, expected 2"):
        checked(g, [1, 3, 2], 2)
