"""Constructive certificates: explicit rankings realizing upper bounds.

The staircase constructions share one move: place two labelled pieces of
m rows so that a diagonal of m fresh labels separates them, letting the
pieces reuse each other's label block.  Each application doubles the
width and spends m labels.  Staircase ends are what make pieces dovetail
around the diagonal, so the merges flip copies as the rows their
staircases keep (bottom or top) require; they read m from their inputs,
and take exactly the shapes the chains make: one_sticky_shape(w, m) and
two_sticky_shape(w, anti=True or False, m).  Any other shape raises
ShapeError.  The four-row chains and diagonal_cut, whose piece is an inner
grid with a glued corner, are both built from them.

Grid assembly works on rows.  Each row of every grid shape built here is
one run of consecutive cells, so a labelling is a list of rows, each held
as its first column and its labels.  A flip reverses the row list or each
row, a shift moves first columns, and pieces laid side by side join row by
row, where a gap or an overlap asserts.  _to_ranking checks each row's
extent against the one the shape's staircases give that row, then gathers
the rows' slices in the shape's vertex order: the core row-major, then the
staircase cells by (col, row).  A triangle ranking is not assembled: its
row cuts come from one table, _row_cuts, one column per end row, filled
once per process and shared by every side, and their labels are written
straight into build's vertex order.

Every builder returns a validated Ranking or raises; nothing here trusts
arithmetic alone, nor the stored rankings the four-row chains start from
(_BASES, _SEGMENTS), which are checked on use.  run_endpoint_certificates
drives the whole inventory: one certificate per constant-value run of the
four-row formula, plus column restrictions for the interior widths.
Each endpoint chain is built once per process, kept as its steps and
final labels, and emitted as built by the call that builds it; every
other call rebuilds its width from those labels (interior ones cut to
their columns) and validates it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

from . import formulas, solve
from .graphs import Custom, GraphShape, ShapeError, StickyEnd, build, _sticky_coords
from .verify import Ranking, checked, validate

__all__ = [
    "one_sticky_shape",
    "two_sticky_shape",
    "merge_two_sticky",
    "vertical_cut",
    "corner_shape",
    "diagonal_cut",
    "triangle_ranking",
    "triangle_certificate",
    "ruler_ranking",
    "restrict_columns",
    "ChainStep",
    "CertificateChain",
    "four_row_certificate",
    "run_endpoint_certificates",
]

# a row of a labelling: the column of its first cell, and its cells' labels
Row = tuple[int, Sequence[int]]


# -- shape vocabulary ------------------------------------------------------


def one_sticky_shape(n: int, m: int = 4) -> GraphShape:
    """m-row grid of core width n with one bottom staircase on the right."""
    return GraphShape.grid(m, n, (StickyEnd("right", "bottom"),))


def two_sticky_shape(n: int, *, anti: bool, m: int = 4) -> GraphShape:
    """m-row grid with staircases on both ends.

    anti=True keeps the top rows on the left and the bottom rows on the
    right (the shape a descending diagonal cut produces); anti=False
    keeps the bottom rows on both ends.  The two are genuinely different
    graphs with different rank numbers.
    """
    left = StickyEnd("left", "top" if anti else "bottom")
    return GraphShape.grid(m, n, (left, StickyEnd("right", "bottom")))


# -- row assembly ----------------------------------------------------------


def _row_layout(shape: GraphShape) -> list[tuple[int, int, list[int], list[int]]]:
    """Per row of a grid shape: the vertex index of its first core cell, its
    core width, and the vertex indices of its left and right staircase
    cells, left to right.  build lays the core out row-major and then each
    staircase's cells by (col, row), and a custom decoration adds edges
    only, so every row's core is one slice."""
    m, n = shape.m, shape.n
    left: list[list[int]] = [[] for _ in range(m)]
    right: list[list[int]] = [[] for _ in range(m)]
    i = m * n
    for dec in shape.decorations:
        if isinstance(dec, StickyEnd):
            side = left if dec.side == "left" else right
            for r, _ in _sticky_coords(dec.side, dec.align, m, n):
                side[r].append(i)
                i += 1
    return [(r * n, n, left[r], right[r]) for r in range(m)]


def _rows(r: Ranking) -> list[Row]:
    """r's labels as rows; r's graph is its shape's canonical build."""
    labels = r.labels
    out = []
    for core, width, left, right in _row_layout(r.graph.shape):
        row = [labels[i] for i in left]
        row += labels[core:core + width]
        row += [labels[i] for i in right]
        out.append((-len(left), row))
    return out


def _mirrored(rows: Sequence[Row], width: int) -> list[Row]:
    # reflect about the core columns 0..width-1; staircases swap sides
    return [(width - first - len(labels), labels[::-1]) for first, labels in rows]


def _shifted(rows: Sequence[Row], dc: int) -> list[Row]:
    return [(first + dc, labels) for first, labels in rows]


def _join(*parts: Sequence[Row]) -> list[Row]:
    """Pieces laid left to right, joined row by row.  Each piece's row must
    start on the column after the one where the row so far ends: a gap or an
    overlap is a construction bug and raises AssertionError."""
    if len({len(part) for part in parts}) != 1:
        raise AssertionError(f"assembly joins pieces of {sorted({len(part) for part in parts})} rows")
    out = []
    for r, row in enumerate(zip(*parts)):
        first, labels = row[0]
        labels = list(labels)
        for start, more in row[1:]:
            if start != first + len(labels):
                raise AssertionError(f"assembly places a piece at column {start} of row {r},"
                                     f" which ends at column {first + len(labels) - 1}")
            labels += more
        out.append((first, labels))
    return out


def _to_ranking(shape: GraphShape, rows: list[Row], expect: int) -> Ranking:
    """Materialize an assembled labelling and insist it is a valid ranking.

    Builders check their inputs before they assemble, so rows that do not
    tile the shape (a row count or a row's extent that differs from the
    shape's), a labelling that fails validate or misses the expected label
    count is a construction bug: each raises AssertionError.
    """
    layout = _row_layout(shape)
    if len(rows) != len(layout):
        raise AssertionError(f"assembly does not tile {shape}: {len(rows)} rows for {len(layout)}")
    flat = [0] * sum(width + len(left) + len(right) for _, width, left, right in layout)
    for r, ((first, labels), (core, width, left, right)) in enumerate(zip(rows, layout)):
        if first != -len(left) or len(labels) != width + len(left) + len(right):
            raise AssertionError(
                f"assembly does not tile {shape}: row {r} covers columns {first}..{first + len(labels) - 1},"
                f" the shape's row {-len(left)}..{width + len(right) - 1}")
        flat[core:core + width] = labels[len(left):len(left) + width]
        for j, i in enumerate(left):
            flat[i] = labels[j]
        for j, i in enumerate(right, len(left) + width):
            flat[i] = labels[j]
    return checked(build(shape), flat, expect)


def _one_staircase(r: Ranking) -> tuple[int, int, int, list[Row]]:
    """Row count, width, label count and rows of a ranking of
    one_sticky_shape(w, m), the one one-staircase shape the chains make;
    any other shape raises ShapeError."""
    shape = r.graph.shape
    if shape is None or shape.m < 2 or shape != one_sticky_shape(shape.n, shape.m):
        raise ShapeError("input must rank one_sticky_shape(w, m): one staircase,"
                         " on the right, keeping the bottom rows")
    return shape.m, shape.n, r.label_count, _rows(r)


def _two_staircase(r: Ranking) -> tuple[int, int, int, list[Row], bool]:
    """Row count, width, label count and rows of a ranking of
    two_sticky_shape(w, anti=..., m), and whether it is the aligned one
    (anti=False).  Aligned rows come flipped top to bottom, so that the
    left staircase keeps the top rows either way; any other shape raises
    ShapeError."""
    shape = r.graph.shape
    if shape is None or shape.m < 2 or shape not in (two_sticky_shape(shape.n, anti=True, m=shape.m),
                                                     two_sticky_shape(shape.n, anti=False, m=shape.m)):
        raise ShapeError("input must rank two_sticky_shape(w, anti=..., m): staircases on both ends,"
                         " the right one keeping the bottom rows")
    rows = _rows(r)
    aligned = shape.decorations[0].align == "bottom"  # anti=False: both keep the bottom rows
    return shape.m, shape.n, r.label_count, rows[::-1] if aligned else rows, aligned


# -- staircase merges ------------------------------------------------------


def merge_two_sticky(r: Ranking) -> Ranking:
    """Join two copies of a two-staircase ranking across a fresh diagonal.

    m rows of core width n at lambda labels become core width 2n+m at
    lambda+m.  The input is two_sticky_shape(n, anti=..., m), either
    alignment; the output is always the anti one, top rows kept on the left
    and bottom rows on the right.  Row i of the cut gets
    label lambda+m-i, so the cut tops out at the far output labels.
    """
    m, n, lam, rows, aligned = _two_staircase(r)
    if aligned:
        # the second copy is flipped so the staircases interlock
        second = rows[::-1]
        cut = [(n + m - 1 - i, [lam + m - i]) for i in range(m)]
    else:
        second = rows
        cut = [(n + i, [lam + m - i]) for i in range(m)]
    out = _join(rows, cut, _shifted(second, n + m))
    return _to_ranking(two_sticky_shape(2 * n + m, anti=True, m=m), out, lam + m)


def _ml_out1(a: Ranking, b: Ranking) -> Ranking:
    """One-staircase a (width n) + two-staircase b (width n-1), both of m
    rows -> one-staircase width 2n+m-1: the merging lemma's first output,
    whose _close_one_sticky is its second."""
    m, n, lam, rows_a = _one_staircase(a)
    mb, nb, lam_b, rows_b, aligned = _two_staircase(b)
    if mb != m:
        raise ShapeError(f"row counts differ: {m} vs {mb}")
    if nb != n - 1:
        raise ShapeError(f"widths must be n and n-1, got {n} and {nb}")
    if lam != lam_b:
        raise ValueError(f"label counts differ: {lam} vs {lam_b}")
    cut = [(n + i, [lam + m - i]) for i in range(m)]
    out = _join(rows_a, cut, _shifted(rows_b, n + m))
    if aligned:
        out = out[::-1]
    return _to_ranking(one_sticky_shape(2 * n + m - 1, m), out, lam + m)


def _close_one_sticky(r: Ranking) -> Ranking:
    """Fold a one-staircase ranking onto a copy of itself spun 180 degrees.

    m rows of width w at lambda labels give the plain m x (2w+m) grid at
    lambda+m; the staircases of the two copies and the descending cut of
    m fresh labels tile the seam exactly.
    """
    m, w, lam, rows = _one_staircase(r)
    spun = _mirrored(rows[::-1], 2 * w + m)
    cut = [(w + i, [lam + m - i]) for i in range(m)]
    out = _join(rows, cut, spun)
    return _to_ranking(GraphShape.grid(m, 2 * w + m), out, lam + m)


# -- cut constructions for general m ---------------------------------------


def vertical_cut(m: int, n: int, sub: Ranking) -> Ranking:
    """Mirror sub about an all-fresh middle column.

    sub must cover G_{m, ceil((n-1)/2)}; the middle column takes the m
    highest labels and both halves carry sub's labels, the right one
    mirrored (and clipped by one column when n is even).
    """
    if m < 1 or n < 1:
        raise ShapeError("grid dimensions must be positive")
    q = n // 2  # ceil((n-1)/2)
    shape = sub.graph.shape
    if shape is None or shape.decorations or (shape.m, shape.n) != (m, q):
        raise ShapeError(f"sub must be a plain {m}x{q} grid for n={n}")
    lam = sub.label_count
    rows = _rows(sub)
    middle = [(q, [lam + m - r]) for r in range(m)]
    clip = 2 * q + 1 - n  # 1 when n is even: the mirror's first column is the middle one
    mirror = [(first + clip, labels[clip:]) for first, labels in _mirrored(rows, n)]
    return _to_ranking(GraphShape.grid(m, n), _join(rows, middle, mirror), lam + m)


def corner_shape(m: int) -> GraphShape:
    """The glued corner: one full column of m cells, a bottom staircase on
    its right, and every two first-column cells that are not already
    adjacent joined by an edge.  diagonal_cut takes a ranking of it."""
    pairs = tuple(((a, 0), (b, 0)) for a in range(m) for b in range(a + 2, m))
    return GraphShape.grid(m, 1, (StickyEnd("right"),) + ((Custom(pairs),) if pairs else ()))


def diagonal_cut(m: int, n: int, inner: Ranking | None, corner: Ranking) -> Ranking:
    """Two glued corners and a mirrored inner grid around one diagonal.

    The piece is the inner grid G_{m,q} with q = ceil((n-m)/2)-1 on labels
    1..li, and right of it a corner carrying corner's labels shifted by li
    (its cell (r, c) at grid cell (r, q + c)): a one-staircase ranking of
    width q+1.  The fold (_close_one_sticky) puts the m-vertex descending
    cut on the top m labels and the piece again, spun 180 degrees, beyond
    it; the corners sit on opposite sides of the cut, so they share one
    label block, and both inner copies sit below everything else.  The
    fold is m x (2q+m+2); when n - m is odd that is one column too wide,
    and restrict_columns drops the last one, a column of the spun inner
    grid, whose labels the other inner copy still holds.  At
    n = m+2, q = 0: inner is None and the corners and cut alone tile the
    grid.

    corner must rank corner_shape(m), whose first column is a clique.
    Every corner label exceeds every inner label, so a path that leaves
    the corner through the inner grid meets only lower labels and comes
    back on the first column: to the corner the inner grid is one edge
    between any two first-column cells, and the clique already holds it.
    The unit edges of the staircase are grid edges, so a ranking of
    corner_shape(m) stays a ranking once glued.

    Inputs are checked first: a corner of any other shape raises
    ShapeError, and inner or corner failing validate raises ValueError.
    Checked inputs always assemble, so a failed assembly asserts.
    """
    if m < 2:
        raise ShapeError("needs at least two rows; one-row grids take vertical_cut")
    if n < m + 2:
        raise ShapeError(f"not applicable: need n >= m+2, got n={n}, m={m}")
    q = (n - m + 1) // 2 - 1
    ishape = inner.graph.shape if inner is not None else None
    if (q or inner is not None) and (ishape is None or ishape.decorations or (ishape.m, ishape.n) != (m, q)):
        raise ShapeError(f"inner must be {f'a plain {m}x{q} grid' if q else 'None'} for n={n}")
    if corner.graph.shape != corner_shape(m):
        raise ShapeError(f"corner must be a ranking of corner_shape({m})")
    if inner is not None and (bad := validate(inner)) is not None:
        raise ValueError(f"inner is not a ranking: {bad}")
    if (bad := validate(corner)) is not None:
        raise ValueError(f"corner is not a ranking: {bad}")

    li = inner.label_count if inner is not None else 0
    glued = [(q + first, [li + v for v in labels]) for first, labels in _rows(corner)]
    piece = glued if inner is None else _join(_rows(inner), glued)
    folded = _close_one_sticky(_to_ranking(one_sticky_shape(q + 1, m), piece, li + corner.label_count))
    return restrict_columns(m, 2 * q + m + 2, folded.labels, n) if (n - m) % 2 else folded


# -- triangle rankings -----------------------------------------------------


@cache
def _row_cuts(e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Column e of the row-cut table: for every a <= e, the best schedule
    for rows a..e-1 of a triangle, as the labels it spends and the first
    row it cuts.

    Row r of a triangle has r+1 vertices, so a run's cost does not depend
    on the side, and every side reads the same columns: tri_s is the run
    0..s-1, entry 0 of column s.  A full row is cut and its vertices take
    the top labels, the two remaining runs sharing the block below; the
    first row that achieves the least cost is the one cut.  A single row
    is a path and gets the ruler labelling, and no rows cost nothing;
    neither cuts a row, so both give row -1.  A cold column reads the
    earlier ones in ascending order, so each is filled once per process,
    with O(e^2) steps, and no call recurses more than two deep.
    """
    left = [_row_cuts(w)[0] for w in range(e)]  # left[w][a]: rows a..w-1
    cost, cut = [0] * (e + 1), [-1] * (e + 1)
    if e:
        cost[e - 1] = e.bit_length()
    for a in range(e - 2, -1, -1):
        costs = [w + 1 + max(left[w][a], cost[w + 1]) for w in range(a, e)]
        cost[a] = min(costs)
        cut[a] = a + costs.index(cost[a])
    return tuple(cost), tuple(cut)


@cache
def triangle_ranking(s: int) -> Ranking:
    """A valid ranking of tri_s: solve.solved's for s <= 6, row cuts above.

    The row-cut schedule does not reach the 2s - 2floor(log2(s+1)) + 1
    labels the halving recursion advertises at every s; the tests pin the
    gap rather than hide it.
    """
    if s < 1:
        raise ValueError("triangle side must be positive")
    shape = GraphShape.triangle(s)
    if s <= 6:
        return solve.solved(shape)
    labels = [0] * shape.vertex_count  # build's order: (r, c) is vertex r(r+1)/2 + c
    runs = [(0, s, 0)]  # rows a..e-1 still to label, on labels above base
    while runs:
        a, e, base = runs.pop()
        if e - a > 1:
            cost, cut = _row_cuts(e)
            w, top = cut[a], base + cost[a]
            first = w * (w + 1) // 2
            labels[first:first + w + 1] = range(top, top - w - 1, -1)
            runs += (a, w, base), (w + 1, e, base)
        elif e > a:
            first = a * (a + 1) // 2
            labels[first:first + a + 1] = [base + ((c + 1) & -(c + 1)).bit_length() for c in range(a + 1)]
    return checked(build(shape), labels, _row_cuts(s)[0][0])


def triangle_certificate(s: int) -> CertificateChain:
    """triangle_ranking(s) as a one-step chain: "solve" for s <= 6, "triangle-rows" above."""
    r = triangle_ranking(s)
    return CertificateChain((_step("solve" if s <= 6 else "triangle-rows", (), r),), r)


# -- segmented construction with ruler-depth cuts --------------------------


# the ruler's four segment cell sets, each with its least column at 0: per
# row, the columns from spans[r][0] up to, not including, spans[r][1], and
# the labels rank_exact gave its cells, row by row.  Stored so that no
# process searches for them; _segment checks them on use.
_SEGMENTS = {
    ((0, 2), (0, 3), (0, 4), (0, 3)): (2, 1, 1, 5, 1, 3, 1, 4, 1, 1, 2, 1),
    ((0, 4), (1, 4), (2, 4), (1, 4)): (1, 4, 1, 2, 1, 5, 1, 1, 3, 1, 2, 1),
    ((0, 5), (1, 4), (2, 5), (1, 6)): (1, 2, 1, 3, 1, 1, 5, 1, 1, 4, 1, 1, 3, 1, 2, 1),
    ((1, 4), (0, 5), (1, 6), (2, 5)): (1, 2, 1, 1, 3, 1, 4, 1, 1, 5, 1, 3, 1, 1, 2, 1),
}


@cache
def _segment(spans: tuple[tuple[int, int], ...]) -> tuple[Row, ...]:
    """The stored ranking of a segment, as rows, once verify.checked has
    accepted it within 5 labels on the segment's cells, taken as an induced
    subgraph of the 4-row grid (row-major, as the labels are stored)."""
    cells = {(r, c) for r, (lo, hi) in enumerate(spans) for c in range(lo, hi)}
    grid = build(GraphShape.grid(4, max(hi for _, hi in spans)))
    g, _ = grid.induced_subgraph([v for v, rc in enumerate(grid.coords) if rc in cells])
    seg = checked(g, _SEGMENTS[spans])
    if seg.label_count > 5:
        raise AssertionError(f"segment between cuts has {seg.label_count} labels, expected <= 5")
    rows, i = [], 0
    for lo, hi in spans:
        rows.append((lo, seg.labels[i:i + hi - lo]))
        i += hi - lo
    return tuple(rows)


def ruler_ranking(k: int) -> Ranking:
    """Width 2^k + 2^(k-2) - 3 at 4k-3 labels, for k >= 3.

    2^(k-2) short segments are separated by four-vertex zig-zag cuts.
    Cut i gets the label block at depth nu2(i)+1, so between any two
    cuts of one depth lies a deeper one; segments take _SEGMENTS' rankings
    on labels 1..5 and reuse them freely across cuts.  The zig-zag offsets
    alternate by cut parity: straight-line cuts leave segments that need
    a sixth label.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    pieces = 1 << (k - 2)
    width = 5 * pieces - 3
    # per row, the column of every cut, between sentinels -1 and width
    cols: list[list[int]] = [[-1] for _ in range(4)]
    cuts: list[list[Row]] = []
    for i in range(1, pieces):
        offs = (0, 1, 2, 1) if i % 2 else (1, 0, 1, 2)
        depth = (i & -i).bit_length()
        for r in range(4):
            cols[r].append(5 * i - 3 + offs[r])
        cuts.append([(row[-1], [4 * depth + 5 - r]) for r, row in enumerate(cols)])
    for row in cols:
        row.append(width)
    # segment j holds, in each row, the columns strictly between cuts j and j+1;
    # it is looked up with its least column at 0, so segments of one shape share a ranking
    parts: list[list[Row]] = []
    for j in range(pieces):
        if j:
            parts.append(cuts[j - 1])
        spans = [(row[j] + 1, row[j + 1]) for row in cols]
        c0 = min(lo for lo, _ in spans)
        parts.append(_shifted(_segment(tuple((lo - c0, hi - c0) for lo, hi in spans)), c0))
    return _to_ranking(GraphShape.grid(4, width), _join(*parts), 4 * k - 3)


# -- run endpoints ---------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One construction application inside a certificate chain."""

    name: str
    inputs: tuple[GraphShape, ...]
    output: GraphShape
    labels: int

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": [s.to_json_dict() for s in self.inputs],
            "output": self.output.to_json_dict(),
            "labels": self.labels,
        }


@dataclass(frozen=True)
class CertificateChain:
    steps: tuple[ChainStep, ...]
    final: Ranking

    @property
    def width(self) -> int:
        return self.final.graph.shape.n

    @property
    def labels(self) -> int:
        return self.final.label_count

    def to_json_dict(self) -> dict:
        """Replayable manifest: the step list plus the final graph and ranking."""
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "graph": self.final.graph.to_json_dict(),
            "ranking": self.final.to_json_dict(),
        }


def restrict_columns(m: int, width: int, labels: Sequence[int], n: int) -> Ranking:
    """The first n columns of a ranking of the plain m x width grid, given
    as its labels in build's row-major order ((r, c) is vertex r*width + c),
    with labels renumbered densely; n outside 1..width raises ShapeError.

    Restriction of a valid ranking is valid; order-preserving renumbering
    keeps the level structure, so validity survives both.
    """
    if not 1 <= n <= width:
        raise ShapeError(f"cannot keep {n} of {width} columns")
    kept = [v for i in range(0, m * width, width) for v in labels[i:i + n]]
    return checked(build(GraphShape.grid(m, n)), solve._compress(kept), len(set(kept)))


def _step(name: str, inputs: tuple[Ranking, ...], out: Ranking) -> ChainStep:
    return ChainStep(name, tuple(r.graph.shape for r in inputs), out.graph.shape, out.label_count)


def _solver_chain(n: int) -> CertificateChain:
    cert = solve.solved(GraphShape.grid(4, n))
    return CertificateChain((_step("solve", (), cert),), cert)


# the doubling chains' bases (w, anti, labels, one, two): the labels, in
# build's vertex order, that rank_decision gave the one-staircase of width
# w and the two-staircase of width w-1 on labels; stored so that no process
# searches for them, and checked on use.  r merge rounds and the fold give
# the 4 x ((w+3)*2^(r+1) - 2) grid at labels + 4r + 4
_BASES = (
    (5, True, 8,
     (1, 2, 1, 6, 1, 3, 1, 7, 1, 2, 1, 4, 1, 8, 1, 2, 1, 5, 1, 3, 1, 4, 1, 1, 2, 1),
     (3, 1, 2, 1, 1, 8, 1, 6, 5, 1, 7, 1, 1, 2, 1, 3, 1, 2, 1, 1, 4, 1, 1, 4, 1, 1, 2, 1)),
    (3, True, 6,
     (1, 2, 1, 3, 1, 6, 1, 5, 1, 2, 1, 4, 1, 3, 1, 1, 2, 1),
     (3, 1, 1, 6, 5, 1, 1, 3, 1, 2, 1, 1, 4, 1, 1, 4, 1, 1, 2, 1)),
    (4, False, 7,
     (3, 1, 2, 1, 1, 4, 1, 7, 2, 1, 6, 1, 1, 5, 1, 3, 1, 4, 1, 1, 2, 1),
     (1, 2, 1, 6, 1, 4, 1, 7, 1, 3, 1, 5, 1, 1, 2, 1, 4, 1, 1, 3, 1, 1, 2, 1)),
)


def _doubling_chain(rounds: int, w: int, anti: bool, labels: int,
                    one: tuple[int, ...], two: tuple[int, ...]) -> CertificateChain:
    """Close after the given merge rounds from the stored bases of one
    _BASES row, each checked at exactly its row's label count first."""
    a = checked(build(one_sticky_shape(w)), one, labels)
    b = checked(build(two_sticky_shape(w - 1, anti=anti)), two, labels)
    steps = [_step("solve-decision", (), a), _step("solve-decision", (), b)]
    for _ in range(rounds):
        na = _ml_out1(a, b)
        steps.append(_step("staircase-merge", (a, b), na))
        nb = merge_two_sticky(b)
        steps.append(_step("double-merge", (b,), nb))
        a, b = na, nb
    final = _close_one_sticky(a)
    steps.append(_step("fold", (a,), final))
    return CertificateChain(tuple(steps), final)


def _endpoint_chain(n: int) -> CertificateChain:
    if n <= 8:
        return _solver_chain(n)
    for base in _BASES:
        q, rest = divmod(n + 2, base[0] + 3)
        if not rest and not q & (q - 1):  # q = 2^(rounds+1)
            return _doubling_chain(q.bit_length() - 2, *base)
    k = (n + 3).bit_length() - 1
    if n + 3 == 5 << (k - 2):
        cert = ruler_ranking(k)
        return CertificateChain((_step("ruler", (), cert),), cert)
    raise AssertionError(f"width {n} is not a run endpoint the families cover")


@cache
def _endpoint_record(e: int) -> list:
    """Run endpoint e's memo cell, empty until _endpoint_certificate files the
    chain's steps and final labels in it, so no graph is kept."""
    return []


def _endpoint_certificate(e: int, n: int) -> CertificateChain:
    """Endpoint e's chain, cut to its first n columns when n < e.  The call
    that files the chain returns it as built at n == e, its final already
    checked; any other call rebuilds the final or the cut and validates it."""
    record = _endpoint_record(e)
    if not record:
        top = _endpoint_chain(e)
        if top.labels != formulas.rank_4xn(e):
            raise AssertionError(
                f"endpoint {e}: built {top.labels} labels, formula says {formulas.rank_4xn(e)}"
            )
        record += top.steps, top.final.labels
        if n == e:
            return top
    steps, labels = record
    if n == e:
        return CertificateChain(steps, checked(build(GraphShape.grid(4, e)), labels, steps[-1].labels))
    cut = restrict_columns(4, e, labels, n)
    restrict = ChainStep("restrict", (GraphShape.grid(4, e),), cut.graph.shape, cut.label_count)
    return CertificateChain(steps + (restrict,), cut)


def four_row_certificate(n: int) -> CertificateChain:
    """Certificate chain for G_{4,n}: endpoint construction, restricted if needed.

    Run endpoints get a chain whose label count equals the closed form
    exactly; interior widths reuse their run's endpoint chain with a final
    restriction step.  The endpoint has the same rank_4xn as n, and a
    restriction adds no labels, so it uses at most that many.
    """
    if n < 1:
        raise ValueError("width must be positive")
    return _endpoint_certificate(_run_end(n), n)


def _run_end(n: int) -> int:
    """The right endpoint of the four-row formula's run that holds width n."""
    while formulas.rank_4xn(n + 1) == formulas.rank_4xn(n):
        n += 1
    return n


def run_endpoint_certificates(k_max: int) -> list[CertificateChain]:
    """Verified certificates for every value run of the four-row formula
    that ends by 2^(k_max+1) - 3: widths 1..7*2^(k_max-2) - 2, as the next
    run ends at 2^(k_max+1) - 2.  Each run's endpoint certificate has
    exactly the formula's label count, and every interior width of the run
    gets it restricted to its first columns.
    """
    if k_max < 3:
        raise ValueError("need k_max >= 3")
    limit = (1 << (k_max + 1)) - 3
    chains: list[CertificateChain] = []
    start = 1
    while (e := _run_end(start)) <= limit:
        chains.extend(_endpoint_certificate(e, n) for n in range(start, e + 1))
        start = e + 1
    return chains
