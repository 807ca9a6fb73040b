"""Shape declarations, graph assembly, and serialization round trips."""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import corner_cut, flood, neighbours
from rankgrid import construct
from rankgrid.graphs import (
    Custom,
    Graph,
    GraphShape,
    ShapeError,
    StickyEnd,
    build,
)


def test_path_build_counts():
    g = build(GraphShape.grid(1, 5))
    assert g.vertex_count == 5
    assert len(g.edges) == 4


def test_grid_build_counts():
    g = build(GraphShape.grid(4, 5))
    assert g.vertex_count == 20
    assert len(g.edges) == 31


def test_triangle_build_counts():
    g = build(GraphShape.triangle(5))
    assert g.vertex_count == 15
    assert len(g.edges) == 30


def test_counts_match_closed_forms_up_to_12():
    for m in range(1, 13):
        for n in range(1, 13):
            g = build(GraphShape.grid(m, n))
            assert g.vertex_count == m * n
            assert len(g.edges) == m * (n - 1) + n * (m - 1)
    for s in range(1, 13):
        g = build(GraphShape.triangle(s))
        assert g.vertex_count == s * (s + 1) // 2
        assert len(g.edges) == 3 * s * (s - 1) // 2


def test_build_is_deterministic():
    a = build(GraphShape.grid(3, 7))
    b = build(GraphShape.grid(3, 7))
    assert a.edges == b.edges and a.coords == b.coords
    assert a.graph_hash == b.graph_hash


@pytest.mark.parametrize("shape,digest", [
    (GraphShape.grid(3, 4), "5c264185878f9b82e452684a44232d85fe8d135327121fb14f11e3d6b3d63874"),
    (GraphShape.grid(4, 3, (StickyEnd("left", "top"), StickyEnd("right"))),
     "952554f3d65fe6dbda1d4db2f0b6d92b6cc19435a67499c57e90f25ca72bb6ea"),
    (GraphShape.triangle(4), "f4f3eef4ed8bb591204b4c0123bcc4e5e977da18cb515e91a6d81f647ec49825"),
    # one vertex, so an empty edge list
    (GraphShape.path(1), "b5c26f226bc9a27f8a1439508222e44dba0962e927f56c0a5deb1c76720f242e"),
    # a left sticky end puts negative columns in the payload
    (GraphShape.grid(3, 2, (StickyEnd("left"),)),
     "b7dd483f07d8ccd137774a9cdcf12c35ad4982c35d5afa56a62a709ffd22817b"),
    (GraphShape.grid(4, 4093), "6e0588bec65bac87c332e7bd1792fcad59097b237abbbe03b299790ea8bec95c"),
    # a shapeless graph read from JSON: scattered and negative coords
    ({"shape": None, "vertex_count": 4, "edges": [[2, 0], [0, 1], [1, 3]],
      "coords": [[0, -2], [-1, 5], [3, 3], [0, 7]]},
     "72f9a2d20218fd73db36d45f510faabfcbde6778e1f02cde77cc8d4e84959c06"),
])
def test_graph_hash_is_pinned(shape, digest):
    # digests of the compact JSON of {"coords": [[r, c], ...], "edges": [[u, v], ...],
    # "vertex_count": n}; cache keys and ranking files depend on them
    g = Graph.from_json_dict(shape) if isinstance(shape, dict) else build(shape)
    assert g.graph_hash == digest


def test_path_family_matches_one_row_grid():
    p = build(GraphShape.path(6))
    row = build(GraphShape.grid(1, 6))
    assert p.edges == row.edges
    assert p.coords == row.coords


def test_sticky_end_adds_staircase():
    m = 4
    plain = build(GraphShape.grid(m, 3))
    sticky = build(GraphShape.grid(m, 3, (StickyEnd("right"),)))
    assert sticky.vertex_count == plain.vertex_count + m * (m - 1) // 2
    # the grid survives as an induced subgraph on its own coords
    at = {rc: i for i, rc in enumerate(sticky.coords)}
    core = [at[rc] for rc in plain.coords]
    induced, _ = sticky.induced_subgraph(core)
    assert len(induced.edges) == len(plain.edges)


def test_sticky_profile_heights():
    g = build(GraphShape.grid(4, 2, (StickyEnd("right"),)))
    by_col: dict[int, int] = {}
    for r, c in g.coords:
        if c >= 2:
            by_col[c] = by_col.get(c, 0) + 1
    assert by_col == {2: 3, 3: 2, 4: 1}


def test_sticky_alignment_rows():
    bottom = build(GraphShape.grid(4, 2, (StickyEnd("right", "bottom"),)))
    top = build(GraphShape.grid(4, 2, (StickyEnd("right", "top"),)))
    assert {rc for rc in bottom.coords if rc[1] == 4} == {(3, 4)}
    assert {rc for rc in top.coords if rc[1] == 4} == {(0, 4)}


def test_two_sticky_ends_both_sides():
    g = build(GraphShape.grid(4, 1, (StickyEnd("left"), StickyEnd("right"))))
    assert g.vertex_count == 4 + 6 + 6
    assert len(flood(neighbours(g), 0)) == g.vertex_count


def test_sticky_rejections():
    with pytest.raises(ShapeError):
        GraphShape.grid(1, 5, (StickyEnd("right"),))
    with pytest.raises(ShapeError):
        GraphShape.grid(4, 5, (StickyEnd("right"), StickyEnd("right")))
    with pytest.raises(ShapeError):
        GraphShape.triangle(4).__class__("triangle", 4, 4, (StickyEnd("left"),))
    with pytest.raises(ShapeError):
        StickyEnd("north")


def test_custom_decoration_and_rejections():
    shape = GraphShape.grid(2, 2, (Custom((((0, 0), (1, 1)),)),))
    g = build(shape)
    assert g.vertex_count == shape.vertex_count == 4
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
    clash = GraphShape.grid(2, 2, (Custom((((0, 0), (0, 1)),)),))
    with pytest.raises(ShapeError, match="duplicates an existing edge"):
        build(clash)


def test_custom_json_holds_edges_only():
    chord = Custom((((0, 0), (1, 1)),))
    edges = [[[0, 0], [1, 1]]]
    written = GraphShape.grid(2, 2, (chord,)).to_json_dict()["decorations"]
    assert written == [{"kind": "custom", "extra_edges": edges}]
    # older files list "extra_vertices": [], or no such key
    for dec in ({"kind": "custom", "extra_edges": edges},
                {"kind": "custom", "extra_vertices": [], "extra_edges": edges}):
        shape = GraphShape.from_json_dict({"family": "grid", "m": 2, "n": 2, "decorations": [dec]})
        assert shape.decorations == (chord,)


def test_shape_json_round_trip():
    shapes = [
        GraphShape.path(7),
        GraphShape.grid(4, 6),
        GraphShape.triangle(5),
        GraphShape.grid(4, 2, (StickyEnd("left", "top"), StickyEnd("right"))),
        construct.corner_shape(4),
    ]
    for shape in shapes:
        assert GraphShape.from_json_dict(shape.to_json_dict()) == shape


def test_graph_json_round_trip():
    g = build(GraphShape.grid(3, 4, (StickyEnd("right"),)))
    back = Graph.from_json_dict(g.to_json_dict())
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.coords == g.coords
    assert back.graph_hash == g.graph_hash


@pytest.mark.parametrize("shape", [
    GraphShape.grid(3, 5),
    GraphShape.grid(4, 6, (StickyEnd("left"), StickyEnd("right"))),
    GraphShape.grid(2, 2, (Custom((((0, 0), (1, 1)),)),)),
    GraphShape.triangle(5),
])
def test_graph_json_dict_writes_like_lists(shape):
    # to_json_dict hands out the graph's own tuples; they must dump exactly
    # as the per-edge and per-coord lists it once built
    g = build(shape)
    data = g.to_json_dict()
    assert data["edges"] is g.edges and data["coords"] is g.coords
    as_lists = dict(data, edges=[list(e) for e in g.edges], coords=[list(c) for c in g.coords])
    assert json.dumps(data, sort_keys=True) == json.dumps(as_lists, sort_keys=True)
    back = Graph.from_json_dict(data)
    assert back == g and back.shape == g.shape


def test_adjacency_masks_are_the_edges():
    built = [build(shape) for shape in (
        GraphShape.grid(4, 5),
        GraphShape.grid(4, 3, (StickyEnd("left", "top"), StickyEnd("right"))),
        GraphShape.grid(3, 4, (StickyEnd("right", "bottom"),)),
        GraphShape.triangle(5),
        GraphShape.grid(2, 2, (Custom((((0, 0), (1, 1)),)),)),
    )] + [corner_cut(4, 4, (0, 3), (3, 0))]
    sub, _ = built[0].induced_subgraph([0, 2, 3, 7, 8, 9, 12, 13, 19])
    data = built[1].to_json_dict()
    data["shape"] = None
    data["edges"] = [[v, u] for u, v in reversed(data["edges"])]
    for g in built + [sub, Graph.from_json_dict(data)]:
        nbrs = [set() for _ in range(g.vertex_count)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert g.adjacency_masks == tuple(sum(1 << v for v in b) for b in nbrs)


def test_automorphism_counts():
    # coordinate symmetries: dihedral for squares, flips for rectangles,
    # the left-right mirror for triangles
    assert len(build(GraphShape.grid(4, 4)).automorphisms) == 8
    assert len(build(GraphShape.grid(3, 5)).automorphisms) == 4
    assert len(build(GraphShape.path(2)).automorphisms) == 2
    assert len(build(GraphShape.triangle(3)).automorphisms) == 2


def test_automorphisms_preserve_edges():
    g = build(GraphShape.grid(3, 4))
    for perm in g.automorphisms:
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
        assert mapped == set(g.edges)


def _symmetry_graphs():
    for m in range(1, 7):
        for n in range(1, 7):
            yield build(GraphShape.grid(m, n))
    for m, n in ((3, 1), (3, 4), (4, 2)):  # 3x1 with its staircase is a square
        for side in ("left", "right"):
            for align in ("bottom", "top"):
                yield build(GraphShape.grid(m, n, (StickyEnd(side, align),)))
    for m, n in ((2, 1), (3, 2), (4, 3)):
        for left in ("bottom", "top"):
            for right in ("bottom", "top"):
                yield build(GraphShape.grid(m, n, (StickyEnd("left", left), StickyEnd("right", right))))
    for s in range(1, 9):
        yield build(GraphShape.triangle(s))
    for m in range(2, 7):
        yield build(construct.corner_shape(m))
    # a corner cut with a diagonal edge keeps the transpose
    cut = corner_cut(4, 4, (0, 0))
    at = {rc: i for i, rc in enumerate(cut.coords)}
    yield Graph(cut.vertex_count, tuple(sorted(cut.edges + ((at[1, 1], at[2, 2]),))), cut.coords)
    # shapeless, rows 1..4 and cols 0..3: the transpose needs its offset
    g = build(GraphShape.grid(5, 5))
    yield g.induced_subgraph([i for i, (r, c) in enumerate(g.coords) if r >= 1 and c <= 3])[0]


def test_automorphisms_are_pinned():
    # the permutations and their order feed canon, so node counts and
    # certificates move if either changes
    perms = [g.automorphisms for g in _symmetry_graphs()]
    assert len(perms) == 75
    assert (hashlib.sha256(repr(perms).encode()).hexdigest()
            == "b4649e15451034a11523a5347bcb586e90b4413348bca160e670e69d3172b507")


def test_component_is_the_bfs_flood_of_src():
    g = Graph.from_json_dict({
        "vertex_count": 7,
        "edges": [[0, 5], [1, 3], [1, 6], [3, 4], [4, 6], [2, 6]],
        "coords": [[0, c] for c in range(7)],
    })
    # brute_force's pinned labels depend on this order
    adj = neighbours(g)
    assert len(flood(adj, 0)) == 2
    assert flood(adj, 4) == [4, 3, 6, 1, 2]
    assert flood(adj, 6) == [6, 1, 2, 4, 3]
    assert flood(adj, 5) == [5, 0]
