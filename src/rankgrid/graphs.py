"""Grid-family graphs and their declarative shape descriptions.

Families: a path P_n (one row), a rectangular grid G_{m,n}, and a triangular
grid tri_s.  Coordinates are (row, col) pairs; rows grow downward.  The
triangle has rows 0..s-1 where row r holds columns 0..r, and each vertex
(r, c) is adjacent to (r, c+1), (r+1, c) and (r+1, c+1).

Decorations extend a grid core:

* a sticky end is a staircase of columns with heights m-1, m-2, ..., 1
  descending away from the grid.  By default each staircase keeps the
  bottom rows of the grid (align="bottom"); the top-aligned mirror also
  occurs, because slicing a grid along a descending diagonal leaves a
  bottom-aligned staircase on one side and a top-aligned one on the
  other.  Staircase vertices connect vertically inside their column and
  horizontally to the same-row vertex of the neighbouring column (plain
  unit grid edges, no diagonals).
* custom adds explicitly listed edges between existing vertices.  A graph
  of one's own is a shapeless Graph, not a decorated shape.

Vertex order is canonical: core vertices row-major, then each staircase's
vertices sorted by (col, row) in declaration order.  Everything downstream
(hashes, caches, certificates) relies on this order being stable.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product

Coord = tuple[int, int]

PATH = "path"
GRID = "grid"
TRIANGLE = "triangle"


class ShapeError(ValueError):
    """A GraphShape that cannot describe a legal graph."""


_INT = frozenset((int,))


def _require_ints(values) -> None:
    """Raise TypeError unless every one of values is an int.  JSON reads
    true and false as bools, an int subclass that operator.index takes as 1
    and 0, so the test is on the exact type."""
    if not _INT.issuperset(map(type, values)):
        raise TypeError("expected integers")


@dataclass(frozen=True)
class StickyEnd:
    side: str  # "left" or "right"
    align: str = "bottom"  # which grid rows the staircase keeps

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ShapeError(f"sticky end side must be left or right, got {self.side!r}")
        if self.align not in ("bottom", "top"):
            raise ShapeError(f"sticky end align must be bottom or top, got {self.align!r}")


@dataclass(frozen=True)
class Custom:
    extra_edges: tuple[tuple[Coord, Coord], ...]

    def __init__(self, extra_edges) -> None:
        try:
            edges = tuple(((ar, ac), (br, bc)) for (ar, ac), (br, bc) in extra_edges)
            _require_ints(chain.from_iterable(chain.from_iterable(edges)))
        except TypeError:
            raise ShapeError("custom edges need integer coords") from None
        except ValueError:  # an edge or endpoint of the wrong length
            raise ShapeError("custom edges need (row, col) endpoint pairs") from None
        object.__setattr__(self, "extra_edges", edges)


Decoration = StickyEnd | Custom


@dataclass(frozen=True)
class GraphShape:
    """Declarative description of a graph; build() turns it into a Graph."""

    family: str
    m: int
    n: int
    decorations: tuple[Decoration, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in (PATH, GRID, TRIANGLE):
            raise ShapeError(f"unknown family {self.family!r}")
        if self.family == PATH:
            if self.m != 1 or self.n < 1:
                raise ShapeError(f"path needs m=1 and n>=1, got m={self.m}, n={self.n}")
        elif self.family == GRID:
            if self.m < 1 or self.n < 1:
                raise ShapeError(f"grid needs m,n >= 1, got m={self.m}, n={self.n}")
        else:
            if self.m != self.n or self.m < 1:
                raise ShapeError(f"triangle needs m == n >= 1, got m={self.m}, n={self.n}")
        self._check_decorations()

    def _check_decorations(self) -> None:
        sticky_sides: set[str] = set()
        for dec in self.decorations:
            if isinstance(dec, StickyEnd):
                if self.family != GRID:
                    raise ShapeError(f"sticky ends attach only to the grid family, not {self.family}")
                if self.m < 2:
                    raise ShapeError("a sticky end needs at least 2 rows (its profile is m-1..1)")
                if dec.side in sticky_sides:
                    raise ShapeError(f"duplicate sticky end on side {dec.side!r}")
                sticky_sides.add(dec.side)
            elif isinstance(dec, Custom):
                pass  # validated against the assembled coords in build()
            else:
                raise ShapeError(f"unknown decoration {dec!r}")

    # Convenience constructors; these are the only spellings used in-repo.
    @staticmethod
    def path(n: int) -> "GraphShape":
        return GraphShape(PATH, 1, n)

    @staticmethod
    def grid(m: int, n: int, decorations: tuple[Decoration, ...] = ()) -> "GraphShape":
        return GraphShape(GRID, m, n, tuple(decorations))

    @staticmethod
    def triangle(s: int) -> "GraphShape":
        return GraphShape(TRIANGLE, s, s)

    @property
    def vertex_count(self) -> int:
        """The vertex count build() gives, worked out without building."""
        core = self.m * (self.m + 1) // 2 if self.family == TRIANGLE else self.m * self.n
        stairs = sum(isinstance(dec, StickyEnd) for dec in self.decorations)
        return core + stairs * (self.m * (self.m - 1) // 2)

    def to_json_dict(self) -> dict:
        decs = []
        for dec in self.decorations:
            if isinstance(dec, StickyEnd):
                decs.append({"kind": f"sticky_end_{dec.side}", "align": dec.align})
            else:
                decs.append({"kind": "custom", "extra_edges": [[list(a), list(b)] for a, b in dec.extra_edges]})
        return {"family": self.family, "m": self.m, "n": self.n, "decorations": decs}

    @staticmethod
    def from_json_dict(data: dict) -> "GraphShape":
        decs: list[Decoration] = []
        for d in data.get("decorations", ()):
            kind = d["kind"]
            if kind == "sticky_end_left":
                decs.append(StickyEnd("left", d.get("align", "bottom")))
            elif kind == "sticky_end_right":
                decs.append(StickyEnd("right", d.get("align", "bottom")))
            elif kind == "custom":
                # files written when custom decorations could add vertices
                # list "extra_vertices": [], which still loads
                if d.get("extra_vertices", []) != []:
                    raise ShapeError("a custom decoration adds edges only, not vertices")
                decs.append(Custom(d["extra_edges"]))
            else:
                raise ShapeError(f"unknown decoration kind {kind!r}")
        return GraphShape(data["family"], data["m"], data["n"], tuple(decs))


def _sticky_coords(side: str, align: str, m: int, n: int) -> list[Coord]:
    """Staircase coords for one sticky end, sorted by (col, row)."""
    coords: list[Coord] = []
    for j in range(1, m):
        # j steps from the grid; the column keeps m-j rows
        col = n - 1 + j if side == "right" else -j
        rows = range(j, m) if align == "bottom" else range(0, m - j)
        coords.extend((r, col) for r in rows)
    coords.sort(key=lambda rc: (rc[1], rc[0]))
    return coords


@dataclass(frozen=True)
class Graph:
    """An undirected graph with canonical vertex order and planar coords.

    edges holds each edge once as (u, v) with u < v, sorted.  coords[i] is
    the (row, col) position of vertex i; positions are unique.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    coords: tuple[Coord, ...]
    shape: GraphShape | None = field(default=None, compare=False)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask: the graph's one adjacency,
        read by the solver, automorphisms and a violation's witness path."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def graph_hash(self) -> str:
        """SHA-256 of the compact sorted-key JSON {"coords", "edges",
        "vertex_count"}, written by one %-format over the flattened ints."""
        template = '{"coords":[%s],"edges":[%s],"vertex_count":%%d}' % (
            ",".join(["[%d,%d]"] * len(self.coords)), ",".join(["[%d,%d]"] * len(self.edges)))
        flat = chain.from_iterable
        payload = template % (*flat(self.coords), *flat(self.edges), self.vertex_count)
        return hashlib.sha256(payload.encode()).hexdigest()

    @cached_property
    def extent(self) -> tuple[int, int, int, int]:
        """(top, left, bottom, right): the least and greatest row and
        column of the coords."""
        rows, cols = zip(*self.coords)
        return min(rows), min(cols), max(rows), max(cols)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Coordinate symmetries of this graph, as vertex permutations.

        Only geometric candidates are tried: the row mirror for triangles,
        else the four flips of the coords' bounding box, then the same four
        after a transpose.  Each candidate is verified to map the coord set
        onto itself and preserve edges, so the result is sound for any
        decorated shape.
        """
        if not self.coords:
            return ((),)
        if self.shape is not None and self.shape.family == TRIANGLE:
            maps = [lambda r, c: (r, c), lambda r, c: (r, r - c)]
        else:
            top, left, bottom, right = self.extent
            rsum, csum, off = top + bottom, left + right, top - left
            maps = [lambda r, c: (r, c), lambda r, c: (r, csum - c),
                    lambda r, c: (rsum - r, c), lambda r, c: (rsum - r, csum - c)]
            maps += [lambda r, c, f=f: f(c + off, r - off) for f in maps]
        index, masks = {rc: i for i, rc in enumerate(self.coords)}.get, self.adjacency_masks
        found: list[tuple[int, ...]] = []
        for f in maps:
            p = tuple(index(f(r, c)) for r, c in self.coords)
            if None not in p and p not in found and all(masks[p[u]] >> p[v] & 1 for u, v in self.edges):
                found.append(p)
        return tuple(found)

    def induced_subgraph(self, vertices: list[int]) -> tuple["Graph", list[int]]:
        """Subgraph induced on the given vertices (kept in canonical order).

        Returns the subgraph and the list mapping new index -> old index.
        """
        keep = sorted(set(vertices))
        pos = {old: new for new, old in enumerate(keep)}
        edges = tuple(
            sorted(
                (pos[u], pos[v])
                for u, v in self.edges
                if u in pos and v in pos
            )
        )
        coords = tuple(self.coords[old] for old in keep)
        return Graph(len(keep), edges, coords), keep

    def to_json_dict(self) -> dict:
        """The graph as JSON-ready data.  edges and coords are the graph's
        own tuples, not copies: the JSON writers put a tuple out exactly as
        a list, and a copy would cost about three containers per vertex."""
        return {
            "shape": self.shape.to_json_dict() if self.shape is not None else None,
            "vertex_count": self.vertex_count,
            "edges": self.edges,
            "coords": self.coords,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        shape = None
        if data.get("shape"):
            if not isinstance(data["shape"], dict):
                raise ShapeError("graph JSON shape is not a JSON object")
            shape = GraphShape.from_json_dict(data["shape"])
        n = data["vertex_count"]
        try:
            pairs = [(u, v) if u < v else (v, u) for u, v in data["edges"]]
            coords = tuple([(r, c) for r, c in data["coords"]])
            _require_ints(chain((n,), chain.from_iterable(pairs), chain.from_iterable(coords)))
        except TypeError:
            raise ShapeError("graph JSON needs integer vertex_count, edge endpoints and coords") from None
        edges = tuple(sorted(pairs))
        if n != len(coords):
            raise ShapeError(f"graph JSON lists {len(coords)} coords for {n} vertices")
        if len(set(coords)) != n:
            raise ShapeError("graph JSON places two vertices on one coord")
        for i, (u, v) in enumerate(edges):
            if u == v:
                raise ShapeError(f"graph JSON edge {u}-{v} is a self-loop")
            if u < 0 or v >= n:
                raise ShapeError(f"graph JSON edge {u}-{v} is out of range for {n} vertices")
            if i and edges[i - 1] == (u, v):
                raise ShapeError(f"graph JSON lists edge {u}-{v} twice")
        g = Graph(n, edges, coords, shape)
        # the size check first: a shape far bigger than its file is never built
        if shape is not None and (shape.vertex_count != n or build(shape) != g):
            raise ShapeError("graph JSON does not match its embedded shape")
        return g


def _grid_edges(m: int, n: int, stairs: dict[Coord, int]) -> list[tuple[int, int]]:
    """Sorted (u, v) index pairs, u < v, of an m x n grid core laid out
    row-major, plus the lattice edges of the staircase vertices.

    Core vertex (r, c) is r*n + c, so its edges are (u, u+1) along a row and
    (u, u+n) down, laid out in order a row at a time.  stairs maps the
    coord of each staircase vertex to its index (m*n and up); only those
    look their neighbours up by coord, among the core and the staircases,
    and each of their edges is inserted in its sorted place.
    """
    size = m * n
    edges: list[tuple[int, int]] = []
    for s in range(0, size - n, n):  # rows above the last: right and down edges interleaved
        t = s + n
        right, down = zip(range(s, t - 1), range(s + 1, t)), zip(range(s, t), range(t, t + n))
        edges += chain.from_iterable(zip(right, down))
        edges.append((t - 1, t - 1 + n))
    edges += zip(range(size - n, size - 1), range(size - n + 1, size))
    at = stairs.get
    for (r, c), v in stairs.items():
        for rr, cc in ((r, c - 1), (r, c + 1), (r - 1, c), (r + 1, c)):
            if 0 <= rr < m and 0 <= cc < n:
                insort(edges, (rr * n + cc, v))
            elif (u := at((rr, cc), -1)) > v:
                insort(edges, (v, u))
    return edges


def build(shape: GraphShape) -> Graph:
    """Materialize a GraphShape into its canonical Graph.

    A grid or path takes its edges from _grid_edges, with each staircase
    vertex wired by lattice step.  A triangle is laid out row by row, so
    vertex u = (r, c) is r(r+1)/2 + c and its edges go to u+1 along the
    row and to u+r+1 and u+r+2 below: index arithmetic gives them in
    sorted order, with no coord lookup.  The custom edges are then merged
    in.  Raises ShapeError if a custom edge names a missing vertex, is a
    self-loop or duplicates an edge.  Every result is connected without a
    check: the core is, each staircase attaches to it, and custom edges
    only add edges.
    """
    m, n = shape.m, shape.n
    if shape.family == TRIANGLE:
        ordered = [(r, c) for r in range(m) for c in range(r + 1)]
        edges = []
        for u, (r, c) in enumerate(ordered):
            if c < r:
                edges.append((u, u + 1))
            if r < m - 1:
                edges += (u, u + r + 1), (u, u + r + 2)
    else:
        ordered = list(product(range(m), range(n)))  # row-major
        stairs: dict[Coord, int] = {}  # each staircase vertex's index, by coord
        for dec in shape.decorations:
            if isinstance(dec, StickyEnd):
                for rc in _sticky_coords(dec.side, dec.align, m, n):
                    stairs[rc] = len(ordered)
                    ordered.append(rc)
        edges = _grid_edges(m, n, stairs)
    explicit_edges = [e for dec in shape.decorations if isinstance(dec, Custom) for e in dec.extra_edges]
    if explicit_edges:
        index = {rc: i for i, rc in enumerate(ordered)}
        present = set(edges)
        for a, b in explicit_edges:
            if a not in index or b not in index:
                raise ShapeError(f"custom edge {a}-{b} references a missing vertex")
            if a == b:
                raise ShapeError(f"custom edge {a}-{b} is a self-loop")
            key = (min(index[a], index[b]), max(index[a], index[b]))
            if key in present:
                raise ShapeError(f"custom edge {a}-{b} duplicates an existing edge")
            present.add(key)
        edges = sorted(present)
    return Graph(len(ordered), tuple(edges), tuple(ordered), shape)
