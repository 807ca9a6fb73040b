"""validate() against the level-by-level union-find it replaced.

render prints Violation witnesses, so they must not move.  The reference
below is validate() as it was before it walked vertices in label order:
merge each level into a union-find, then scan that level's vertices in
index order for a repeated root, and BFS the witness path.  Both must give
the same Violation (level, witnesses, path) on tampered labellings of every
shape family, and None on every valid certificate.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from conftest import corner_cut, decided, neighbours, random_connected_graph
from rankgrid import construct, solve
from rankgrid.graphs import Graph, GraphShape, StickyEnd, build
from rankgrid.verify import Ranking, Violation, validate


def reference_witness_path(adj: list[list[int]], allowed: list[bool], a: int, b: int) -> tuple[int, ...]:
    prev = {a: -1}
    q = deque([a])
    while q and b not in prev:
        u = q.popleft()
        for v in adj[u]:
            if allowed[v] and v not in prev:
                prev[v] = u
                q.append(v)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def reference_validate(ranking: Ranking) -> Violation | None:
    g = ranking.graph
    labels = ranking.labels
    n = g.vertex_count
    adj = neighbours(g)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_label: dict[int, list[int]] = {}
    for v, l in enumerate(labels):
        by_label.setdefault(l, []).append(v)

    in_level = [False] * n
    for c in sorted(by_label):
        verts = by_label[c]
        for v in verts:
            in_level[v] = True
            for w in adj[v]:
                if in_level[w]:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        parent[ra] = rb
        if len(verts) > 1:
            seen_root: dict[int, int] = {}
            for v in verts:
                r = find(v)
                if r in seen_root:
                    a = seen_root[r]
                    return Violation(c, (a, v), reference_witness_path(adj, in_level, a, v))
                seen_root[r] = v
    return None


def certificates() -> list[Ranking]:
    """Valid rankings of every family the builders and the solver produce."""
    out = [construct.four_row_certificate(n).final for n in (1, 5, 9, 10, 13, 22, 40, 61, 95)]
    out += [construct.triangle_ranking(s) for s in range(1, 8)]
    out.append(construct.ruler_ranking(4))
    out.append(decided(construct.one_sticky_shape(3), 6))
    out.append(decided(construct.two_sticky_shape(2, anti=True), 6))
    for g in (
        build(GraphShape.grid(3, 3, (StickyEnd("left"),))),
        build(GraphShape.grid(3, 2, (StickyEnd("left", "top"), StickyEnd("right")))),
        corner_cut(3, 4, (0, 0), (2, 3)),
        corner_cut(4, 3, (0, 2)),
    ):
        res = solve.rank_exact(g)
        assert res.certificate is not None
        out.append(res.certificate)
    # the same labels on a shapeless graph read back from JSON
    r = out[-3]
    data = dict(r.graph.to_json_dict(), shape=None)
    out.append(Ranking(Graph.from_json_dict(data), r.labels))
    return out


CERTIFICATES = certificates()


def test_certificates_cover_each_family():
    shapes = [r.graph.shape for r in CERTIFICATES]
    assert any(s is None for s in shapes)
    families = {s.family for s in shapes if s is not None}
    assert families == {"grid", "triangle"}
    assert any(c < 0 for r in CERTIFICATES for _, c in r.graph.coords)  # left sticky ends
    assert any(r.graph.shape is None and is_corner_cut(r.graph) for r in CERTIFICATES)


def is_corner_cut(g: Graph) -> bool:
    """Whether g's coords fill their bounding box less some of its corners."""
    top, left, bottom, right = g.extent
    box = {(r, c) for r in range(top, bottom + 1) for c in range(left, right + 1)}
    missing = box - set(g.coords)
    return bool(missing) and missing <= {(top, left), (top, right), (bottom, left), (bottom, right)}


@pytest.mark.parametrize("r", CERTIFICATES, ids=lambda r: str(r.graph.vertex_count))
def test_valid_certificates_pass_both(r):
    assert reference_validate(r) is None
    assert validate(r) is None


def test_tampered_certificates_give_the_reference_violation():
    rng = random.Random(20121)
    violations = 0
    for r in CERTIFICATES:
        n, k = r.graph.vertex_count, r.label_count
        for _ in range(40):
            labels = list(r.labels)
            for v in rng.sample(range(n), min(n, rng.randint(1, 3))):
                labels[v] = rng.randint(1, k)
            bad = Ranking(r.graph, tuple(labels))
            want = reference_validate(bad)
            assert validate(bad) == want, (r.graph.shape, labels)
            violations += want is not None
    assert violations > 500


def test_random_labellings_give_the_reference_violation():
    rng = random.Random(20122)
    for _ in range(300):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        r = Ranking(g, tuple(rng.randint(1, max(2, n // 2)) for _ in range(n)))
        assert validate(r) == reference_validate(r)


def family(r: Ranking) -> str:
    shape = r.graph.shape
    if shape is None:
        return "shapeless"
    if shape.family == "triangle":
        return "triangle"
    return ("grid", "one-staircase", "two-staircase")[len(shape.decorations)]


# the largest certificate of each family, and the ruler
FAMILIES = {family(r): r for r in sorted(CERTIFICATES, key=lambda r: r.graph.vertex_count)}
FAMILIES["ruler"] = construct.ruler_ranking(4)


def rebuilt(g: Graph) -> Graph:
    """g made afresh, with nothing cached: built from its shape, or read
    back from its JSON when it has none."""
    return build(g.shape) if g.shape is not None else Graph.from_json_dict(g.to_json_dict())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_validate_builds_no_adjacency(name):
    r = FAMILIES[name]
    assert r in CERTIFICATES
    g = rebuilt(r.graph)
    assert g == r.graph and "adjacency_masks" not in g.__dict__
    assert validate(Ranking(g, r.labels)) is None
    assert "adjacency_masks" not in g.__dict__
    # an edge whose ends share a label: the witness still matches
    u, v = g.edges[len(g.edges) // 2]
    labels = list(r.labels)
    labels[u] = labels[v]
    bad = Ranking(rebuilt(r.graph), tuple(labels))
    got = validate(bad)
    assert got is not None and got == reference_validate(bad)


def test_families_are_covered():
    assert set(FAMILIES) == {"grid", "one-staircase", "two-staircase", "triangle", "ruler", "shapeless"}


def test_the_lowest_of_two_violations_is_reported():
    # the path 0-1-2-3-4: edge 0-1 has both ends at 3, and 2, 4 are both
    # labelled 2 with only a 1 between them
    g = build(GraphShape.path(5))
    bad = Ranking(g, (3, 3, 2, 1, 2))
    want = Violation(2, (2, 4), (2, 3, 4))
    assert validate(bad) == want
    assert reference_validate(bad) == want
