"""build() against the coordinate-set derivation it replaced.

The reference below derives lattice edges as a set of coordinate pairs,
maps them to indices and sorts them, exactly as build() used to.  build()
now lays grids and triangles out by index arithmetic and looks only
staircase neighbours up by coord; both must give the same edges, coords
and ShapeError messages on every shape family and decoration.
"""

from __future__ import annotations

import pytest

from conftest import flood, neighbours
from rankgrid.construct import two_sticky_shape
from rankgrid.graphs import (
    TRIANGLE,
    Custom,
    Graph,
    GraphShape,
    ShapeError,
    StickyEnd,
    _sticky_coords,
    build,
)

Coord = tuple[int, int]


def coord_pair_edges(coords: list[Coord], steps) -> set[tuple[Coord, Coord]]:
    present = set(coords)
    out: set[tuple[Coord, Coord]] = set()
    for r, c in coords:
        for dr, dc in steps:
            if (r + dr, c + dc) in present:
                out.add(((r, c), (r + dr, c + dc)))
    return out


def reference_build(shape: GraphShape) -> Graph:
    if shape.family == TRIANGLE:
        core = [(r, c) for r in range(shape.m) for c in range(r + 1)]
    else:
        core = [(r, c) for r in range(shape.m) for c in range(shape.n)]
    ordered = list(core)
    explicit_edges = []
    for dec in shape.decorations:
        if isinstance(dec, StickyEnd):
            ordered.extend(_sticky_coords(dec.side, dec.align, shape.m, shape.n))
        elif isinstance(dec, Custom):
            explicit_edges.extend(dec.extra_edges)
    seen = set(ordered)
    steps = ((0, 1), (1, 0), (1, 1)) if shape.family == TRIANGLE else ((0, 1), (1, 0))
    edges = coord_pair_edges(ordered, steps)
    for a, b in explicit_edges:
        if a not in seen or b not in seen:
            raise ShapeError(f"custom edge {a}-{b} references a missing vertex")
        if a == b:
            raise ShapeError(f"custom edge {a}-{b} is a self-loop")
        key = (min(a, b), max(a, b))
        if key in edges:
            raise ShapeError(f"custom edge {a}-{b} duplicates an existing edge")
        edges.add(key)
    index = {rc: i for i, rc in enumerate(ordered)}
    g = Graph(
        len(ordered),
        tuple(sorted((min(index[a], index[b]), max(index[a], index[b])) for a, b in edges)),
        tuple(ordered),
        shape,
    )
    if g.vertex_count and len(flood(neighbours(g), 0)) < g.vertex_count:
        raise ShapeError("decorations leave the graph disconnected")
    return g


def outcome(shape: GraphShape):
    """(edges, coords) of a built shape, or the ShapeError message."""
    try:
        g = build(shape)
    except ShapeError as exc:
        return "error", str(exc)
    return g.edges, g.coords


def reference_outcome(shape: GraphShape):
    try:
        g = reference_build(shape)
    except ShapeError as exc:
        return "error", str(exc)
    return g.edges, g.coords


def sticky_shapes():
    ends = [StickyEnd(side, align) for side in ("left", "right") for align in ("bottom", "top")]
    for m in range(2, 6):
        for n in range(1, 6):
            for end in ends:
                yield GraphShape.grid(m, n, (end,))
            for left in ends[:2]:
                for right in ends[2:]:
                    yield GraphShape.grid(m, n, (left, right))


CUSTOM_SHAPES = [
    # chords between vertices that are not lattice neighbours: on a grid,
    # across a right staircase, on a triangle and on a path
    GraphShape.grid(3, 3, (Custom((((0, 0), (2, 2)),)),)),
    GraphShape.grid(3, 2, (StickyEnd("right"), Custom((((0, 0), (2, 3)),)))),
    GraphShape(TRIANGLE, 3, 3, (Custom((((0, 0), (2, 2)),)),)),
    GraphShape("path", 1, 4, (Custom((((0, 0), (0, 3)),)),)),
]

# each with the message both derivations must raise
CUSTOM_ERRORS = [
    (GraphShape.grid(3, 2, (StickyEnd("right"), Custom((((2, 2), (1, 2)),)))),
     "custom edge (2, 2)-(1, 2) duplicates an existing edge"),
    (GraphShape.grid(2, 3, (Custom((((0, 2), (0, 2)),)),)),
     "custom edge (0, 2)-(0, 2) is a self-loop"),
    (GraphShape.grid(2, 2, (Custom((((0, 0), (0, 1)),)),)),
     "custom edge (0, 0)-(0, 1) duplicates an existing edge"),
    (GraphShape.grid(2, 2, (Custom((((0, 1), (0, 0)),)),)),
     "custom edge (0, 1)-(0, 0) duplicates an existing edge"),
    (GraphShape.grid(2, 2, (Custom((((0, 0), (1, 1)), ((1, 1), (0, 0)))),)),
     "custom edge (1, 1)-(0, 0) duplicates an existing edge"),
    (GraphShape.grid(2, 2, (Custom((((0, 1), (0, 3)),)),)),
     "custom edge (0, 1)-(0, 3) references a missing vertex"),
    (GraphShape.grid(2, 2, (Custom((((9, 9), (0, 2)),)),)),
     "custom edge (9, 9)-(0, 2) references a missing vertex"),
]


def test_triangles_match_reference():
    for s in range(1, 13):
        shape = GraphShape.triangle(s)
        assert outcome(shape) == reference_outcome(shape), shape


def test_grids_and_paths_match_reference():
    for m in range(1, 7):
        for n in range(1, 9):
            shape = GraphShape.grid(m, n)
            assert outcome(shape) == reference_outcome(shape), shape
    for n in range(1, 9):
        shape = GraphShape.path(n)
        assert outcome(shape) == reference_outcome(shape), shape


def test_sticky_ends_match_reference():
    shapes = list(sticky_shapes())
    assert len(shapes) == 4 * 5 * 8
    for shape in shapes:
        assert outcome(shape) == reference_outcome(shape), shape


def test_long_four_row_shapes_match_reference():
    # the widest graphs the certificates build, one with negative columns
    for shape in (GraphShape.grid(4, 4093), two_sticky_shape(2044, anti=True)):
        assert outcome(shape) == reference_outcome(shape), shape


def test_custom_decorations_match_reference():
    for shape in CUSTOM_SHAPES:
        got = outcome(shape)
        assert got[0] != "error", got
        assert got == reference_outcome(shape), shape


@pytest.mark.parametrize("shape,message", CUSTOM_ERRORS)
def test_shape_errors_match_reference(shape, message):
    assert outcome(shape) == reference_outcome(shape) == ("error", message)
