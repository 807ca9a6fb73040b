"""Constructive certificates: staircase merges, cuts, triangles, chains."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from conftest import decided, run_endpoint
from rankgrid import bounds, construct, formulas, solve, verify
from rankgrid.graphs import Custom, Graph, GraphShape, ShapeError, StickyEnd, build
from rankgrid.solve import rank_exact
from rankgrid.verify import Ranking, checked, validate


def test_staircase_shapes():
    one = construct.one_sticky_shape(5)
    assert one.m == 4 and one.n == 5 and len(one.decorations) == 1
    two = construct.two_sticky_shape(4, anti=True)
    sides = {d.side for d in two.decorations}
    aligns = {d.align for d in two.decorations}
    assert sides == {"left", "right"}
    assert aligns == {"bottom", "top"}
    both_bottom = construct.two_sticky_shape(4, anti=False)
    assert {d.align for d in both_bottom.decorations} == {"bottom"}


def test_base_rankings_hit_their_budgets():
    for width, lam in [(3, 6), (4, 7), (5, 8)]:
        r = decided(construct.one_sticky_shape(width), lam)
        assert validate(r) is None
        assert r.label_count == lam


def _stored() -> dict:
    """Every stored base, keyed by its shape and label count, and every
    stored ruler segment, keyed by its spans and 5."""
    out = {}
    for w, anti, k, one, two in construct._BASES:
        out[construct.one_sticky_shape(w), k] = one
        out[construct.two_sticky_shape(w - 1, anti=anti), k] = two
    for spans, labels in construct._SEGMENTS.items():
        out[spans, 5] = labels
    return out


def _segment_graph(spans) -> Graph:
    # the segment's cells as an induced subgraph of a grid, row by row
    g = build(GraphShape.grid(len(spans), max(hi for _, hi in spans)))
    cells = {(r, c) for r, (lo, hi) in enumerate(spans) for c in range(lo, hi)}
    return g.induced_subgraph([v for v, rc in enumerate(g.coords) if rc in cells])[0]


@pytest.mark.parametrize("shape, k, digest", [
    (construct.one_sticky_shape(5), 8,
     "f7512f2d7453ba9ee84118ee4cff79baf6d01b086533b287301f1be97e546b6e"),
    (construct.two_sticky_shape(3, anti=False), 7,
     "48e45d670e41c1791aeeb63bf2c262965d03be63747ca4d99d4311cbbfc36d82"),
    (construct.two_sticky_shape(4, anti=True), 8,
     "384cf70bc208894ee073827003c02693098a229ba1b79fdf76a78f8cfd40964c"),
    (construct.one_sticky_shape(3), 6,
     "e17344202ce94d199df1c3bb78e6a0d82c8ddf031cac80038a5d5ca0745f58f2"),
    (construct.two_sticky_shape(2, anti=True), 6,
     "b2610077355d3e6d2a6963ce0a0f18c50e46a22608688c37051c06f4179fe6c3"),
    (construct.one_sticky_shape(4), 7,
     "451cf53f29a08ea2ef9a5755368720dc2c9043e2c746315f7c3f29ea3d240d43"),
    # the ruler's segments, by their spans
    (((0, 2), (0, 3), (0, 4), (0, 3)), 5,
     "24f3c81b3a1d54456e3f568ce6801ab456cefd13e7b09fbc27123623b4949144"),
    (((0, 4), (1, 4), (2, 4), (1, 4)), 5,
     "b296e5c7d0563daa4235214b0bc32de2cef4e23f60f3a879a4a43dfa0a28272a"),
    (((0, 5), (1, 4), (2, 5), (1, 6)), 5,
     "5714f9db392987ea81c94f19f822f93862eaa8935cd83eba55c6197d27119826"),
    (((1, 4), (0, 5), (1, 6), (2, 5)), 5,
     "eca9fb820039bb7e3392a3e1459f0be01911adb15c66685d78af1e0e6e24a115"),
])
def test_base_ranking_labels_are_pinned(shape, k, digest):
    # the labels construct stores for each base (shape) and ruler segment
    # (spans): every doubling chain and ruler grows from them, so they must
    # not move.  Each digest is of what the solver found for it before they
    # were stored: rank_decision at k for a base, rank_exact for a segment
    assert hashlib.sha256(",".join(map(str, _stored()[shape, k])).encode()).hexdigest() == digest


def test_stored_pieces_validate_at_their_label_counts():
    for (shape, k), labels in _stored().items():
        if isinstance(shape, GraphShape):
            checked(build(shape), labels, k)
        else:
            checked(_segment_graph(shape), labels, k)
            assert [v for _, row in construct._segment(shape) for v in row] == list(labels)
    assert len(_stored()) == 10


def test_the_solver_still_decides_every_stored_piece():
    # a stored piece stands in for a search that must still succeed at its
    # label count, even if it would now find other labels
    for (shape, k), labels in _stored().items():
        g = build(shape) if isinstance(shape, GraphShape) else _segment_graph(shape)
        assert solve.rank_decision(g, k).feasible, (shape, k)


def test_four_row_chains_run_no_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a four-row chain built a search engine")

    monkeypatch.setattr(solve, "_Engine", forbidden)
    for memo in vars(construct).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
    for n in (14, 10, 12, 37):  # one endpoint per _BASES row, then a ruler
        chain = construct.four_row_certificate(n)
        assert chain.labels == formulas.rank_4xn(n)
        assert validate(chain.final) is None


def _lowerings(labels: tuple[int, ...]):
    """labels with one label above 1 lowered by one, each in turn."""
    for i, v in enumerate(labels):
        if v > 1:
            yield labels[:i] + (v - 1,) + labels[i + 1:]


def test_a_lowered_stored_label_fails_its_chain(monkeypatch):
    # every such lowering leaves a labelling that is not a ranking or has
    # too few labels, and checked refuses it before any merge
    for w, anti, k, one, two in construct._BASES:
        for a, b in [(low, two) for low in _lowerings(one)] + [(one, low) for low in _lowerings(two)]:
            with pytest.raises(AssertionError):
                construct._doubling_chain(0, w, anti, k, a, b)
    for spans, labels in construct._SEGMENTS.items():
        for low in _lowerings(labels):
            monkeypatch.setitem(construct._SEGMENTS, spans, low)
            construct._segment.cache_clear()
            with pytest.raises(AssertionError):
                construct.ruler_ranking(4)
    monkeypatch.undo()
    construct._segment.cache_clear()


def test_two_staircase_bases_alternate_classes():
    # exact class values for 4-row double-staircase grids: the cheaper
    # alignment flips with parity of the width
    for width, lam, anti in [(1, 5, False), (2, 6, True), (3, 7, False), (4, 8, True)]:
        r = decided(construct.two_sticky_shape(width, anti=anti), lam)
        assert validate(r) is None
        assert r.label_count == lam


def test_merge_two_sticky_doubles_width():
    b = decided(construct.two_sticky_shape(2, anti=True), 6)
    merged = construct.merge_two_sticky(b)
    assert validate(merged) is None
    shape = merged.graph.shape
    assert shape.n == 2 * 2 + 4
    assert merged.label_count == 6 + 4
    again = construct.merge_two_sticky(merged)
    assert validate(again) is None
    assert again.graph.shape.n == 2 * 8 + 4
    assert again.label_count == 14


def test_merge_handles_aligned_inputs_too():
    b = decided(construct.two_sticky_shape(3, anti=False), 7)
    merged = construct.merge_two_sticky(b)
    assert validate(merged) is None
    assert merged.graph.shape.n == 10
    assert merged.label_count == 11


def test_merging_lemma_output_pair():
    a = decided(construct.one_sticky_shape(3), 6)
    b = decided(construct.two_sticky_shape(2, anti=True), 6)
    out1 = construct._ml_out1(a, b)
    closed = construct._close_one_sticky(out1)
    assert validate(out1) is None and validate(closed) is None
    assert out1.graph.shape.n == 2 * 3 + 3
    assert out1.label_count == 10
    assert closed.graph.shape == GraphShape.grid(4, 4 * 3 + 10)
    assert closed.label_count == 14
    # the closure width 22 is a run endpoint: the labels are optimal
    assert formulas.rank_4xn(22) == 14


def _flipped(r: Ranking, hflip: bool, vflip: bool) -> Ranking:
    """r's four-row staircase ranking mirrored left-right and/or top-bottom."""
    shape = r.graph.shape
    swap = {"left": "right", "right": "left", "bottom": "top", "top": "bottom"}
    decs = tuple(StickyEnd(swap[d.side] if hflip else d.side, swap[d.align] if vflip else d.align)
                 for d in shape.decorations)
    at = {(3 - row if vflip else row, shape.n - 1 - c if hflip else c): r.labels[i]
          for i, (row, c) in enumerate(r.graph.coords)}
    g = build(GraphShape.grid(4, shape.n, decs))
    out = Ranking(g, tuple(at[rc] for rc in g.coords))
    assert validate(out) is None
    return out


def _one_base(w: int) -> Ranking:
    return decided(construct.one_sticky_shape(w), w + 3)


def _two_base(w: int) -> Ranking:
    return decided(construct.two_sticky_shape(w, anti=w != 3), w + 4)


# SHA-256 of the output shape's JSON and its labels, taken when the merges
# also took flipped inputs and gave every flip this same output
ORIENTATION_SHA256 = {
    ("fold", 3): "17890384ea092cd1ce6ddd779eee920d6e3c254aa00016ce9e01e3dccf53fd9d",
    ("fold", 4): "8be647ba2e24f12e7357a161e5bfbefdfd07f0ef13c2014776a4958f6976103e",
    ("fold", 5): "8e176ee660b1a8c73b762cec43f1cc10160104679729c15a9831a5e6dd377dcd",
    ("double", 2): "0ec3aa0840f70e257d45e89f3f0d29392ab9c457c6a9e4224774f8e30dbc1e54",
    ("double", 3): "aa017e8d2e1ac82d010110404fd7f1f225f1397201163a25e305dbc89b98f928",
    ("double", 4): "7716623bc68b50d3edabf880535afd03981b95d4fbc59cf8b19df5017f8cd631",
    ("staircase", 3): "2b0539b9b8f29e0160b3a10024a31fca01780836b7f443313f1d92126aa0cc36",
    ("staircase", 4): "3708bd2419dd44dc05e5bba3c064b3411c321a47754f5824377104c350f97927",
    ("staircase", 5): "83e6da4c6ed171e7d3803d3ba94317d938759c9cfcc282b4446f58471485056d",
}


@pytest.mark.parametrize("merge,w", sorted(ORIENTATION_SHA256))
def test_merges_are_pinned_in_every_orientation(merge, w):
    # the chains hand the merges one_sticky_shape and two_sticky_shape
    # rankings as they are: those give the pinned output, and every flip
    # of them is refused
    flips = [(h, v) for h in (False, True) for v in (False, True)]
    if merge == "fold":
        merge_of = construct._close_one_sticky
        inputs = [(_flipped(_one_base(w), h, v),) for h, v in flips]
    elif merge == "double":
        merge_of = construct.merge_two_sticky
        inputs = [(_flipped(_two_base(w), False, v),) for v in (False, True)]
    else:
        merge_of = construct._ml_out1
        inputs = [(_flipped(_one_base(w), h, v), _flipped(_two_base(w - 1), False, bv))
                  for h, v in flips for bv in (False, True)]
    out = merge_of(*inputs[0])  # no flip
    text = json.dumps(out.graph.shape.to_json_dict(), sort_keys=True) + "|" + ",".join(map(str, out.labels))
    assert hashlib.sha256(text.encode()).hexdigest() == ORIENTATION_SHA256[merge, w]
    for flipped in inputs[1:]:
        with pytest.raises(ShapeError, match="input must rank"):
            merge_of(*flipped)


def _solved_one(w: int, m: int) -> Ranking:
    return solve.solved(construct.one_sticky_shape(w, m))


def _solved_two(w: int, m: int, anti: bool = True) -> Ranking:
    return solve.solved(construct.two_sticky_shape(w, anti=anti, m=m))


@pytest.mark.parametrize("m, w, labels", [(3, 2, 7), (3, 3, 8), (3, 4, 9), (5, 2, 12), (5, 3, 13)])
def test_fold_reads_the_row_count(m, w, labels):
    # an m-row one-staircase of width w at lambda labels folds to the plain
    # m x (2w+m) grid at lambda+m
    base = _solved_one(w, m)
    out = construct._close_one_sticky(base)
    assert out.graph.shape == GraphShape.grid(m, 2 * w + m)
    assert out.label_count == labels == base.label_count + m


@pytest.mark.parametrize("m, w, anti, labels", [
    (3, 2, False, 7), (3, 3, True, 8), (3, 4, True, 9), (5, 2, True, 12), (5, 3, True, 13),
])
def test_staircase_merge_reads_the_row_count(m, w, anti, labels):
    # one-staircase w and two-staircase w-1 on one label count give the
    # one-staircase 2w+m-1 at m more labels
    a, b = _solved_one(w, m), _solved_two(w - 1, m, anti)
    assert a.label_count == b.label_count
    out = construct._ml_out1(a, b)
    assert out.graph.shape == construct.one_sticky_shape(2 * w + m - 1, m)
    assert out.label_count == labels == a.label_count + m


@pytest.mark.parametrize("m, w, anti, labels", [
    (3, 2, True, 8), (3, 3, False, 8), (3, 4, True, 9), (5, 2, True, 13), (5, 3, True, 13),
])
def test_double_merge_reads_the_row_count(m, w, anti, labels):
    base = _solved_two(w, m, anti)
    out = construct.merge_two_sticky(base)
    assert out.graph.shape == construct.two_sticky_shape(2 * w + m, anti=True, m=m)
    assert out.label_count == labels == base.label_count + m


@pytest.mark.parametrize("m, w, anti", [(3, 2, False), (3, 3, True), (3, 4, True), (5, 2, True), (5, 3, True)])
def test_merging_lemma_reads_the_row_count(m, w, anti):
    # one-staircase 2w+m-1 at lambda+m, and its closure the plain
    # m x (4w+3m-2) grid at lambda+2m
    a, b = _solved_one(w, m), _solved_two(w - 1, m, anti)
    out1 = construct._ml_out1(a, b)
    closed = construct._close_one_sticky(out1)
    assert out1.graph.shape == construct.one_sticky_shape(2 * w + m - 1, m)
    assert out1.label_count == a.label_count + m
    assert closed.graph.shape == GraphShape.grid(m, 4 * w + 3 * m - 2)
    assert closed.label_count == a.label_count + 2 * m


def _distinct(shape: GraphShape) -> Ranking:
    # all labels distinct: a valid ranking of any graph
    g = build(shape)
    return Ranking(g, tuple(range(1, g.vertex_count + 1)))


@pytest.mark.parametrize("shape", [
    GraphShape.grid(3, 4, (StickyEnd(side, align),)) for side in ("left", "right") for align in ("bottom", "top")
] + [
    construct.two_sticky_shape(2, anti=True, m=5), construct.two_sticky_shape(3, anti=False),
    construct.corner_shape(4), GraphShape.grid(1, 5),
])
def test_rows_round_trip(shape):
    # each row is one run of cells; gathering the rows back in the shape's
    # vertex order gives the labels they came from
    r = _distinct(shape)
    rows = construct._rows(r)
    assert len(rows) == shape.m
    assert sum(len(labels) for _, labels in rows) == r.graph.vertex_count
    at = dict(zip(r.graph.coords, r.labels))
    for row, (first, labels) in enumerate(rows):
        assert list(labels) == [at[row, c] for c in range(first, first + len(labels))]
    assert construct._to_ranking(shape, rows, r.label_count).labels == r.labels


def test_row_assembly_refuses_gaps_overlaps_and_bad_extents():
    base = _solved_one(3, 4)
    shape, rows, count = base.graph.shape, construct._rows(base), base.label_count
    ends = [first + len(labels) for first, labels in rows]
    column = [(end, [count + 1]) for end in ends]  # one cell right after each row
    assert [len(labels) for _, labels in construct._join(rows, column)] == [len(l) + 1 for _, l in rows]
    for bad in ([(end + 1, labels) for end, (_, labels) in zip(ends, column)],  # a gap
                [(end - 1, labels) for end, (_, labels) in zip(ends, column)],  # an overlap
                column[:1] + [(ends[1] + 1, [count + 1])] + column[2:]):  # a gap in one row
        with pytest.raises(AssertionError, match="assembly places a piece"):
            construct._join(rows, bad)
    with pytest.raises(AssertionError, match="pieces of"):
        construct._join(rows, column[:-1])
    (first, labels), rest = rows[0], rows[1:]
    for bad in (rows[:-1], rows + rows[-1:],  # a row too few, a row too many
                [(first, labels[:-1])] + rest, [(first, [*labels, 1])] + rest,  # a row short, a row long
                [(first + 1, labels)] + rest):  # a row shifted off its extent
        with pytest.raises(AssertionError, match="does not tile"):
            construct._to_ranking(shape, bad, count)


def test_staircase_algebra_refuses_bad_inputs():
    # bad inputs are refused before assembly, never by an assertion
    two = _solved_two(2, 4)
    for wrong in (two, _distinct(GraphShape.grid(4, 3)), construct.triangle_ranking(4),
                  _distinct(GraphShape.grid(4, 3, (StickyEnd("right"), Custom((((0, 0), (2, 2)),)))))):
        with pytest.raises(ShapeError):
            construct._close_one_sticky(wrong)
    with pytest.raises(ShapeError, match="both ends"):
        construct.merge_two_sticky(_solved_one(3, 4))
    one = _solved_one(3, 4)
    assert one.label_count == two.label_count == 6
    with pytest.raises(ShapeError, match="widths"):
        construct._ml_out1(_solved_one(4, 4), two)
    raised = Ranking(two.graph, tuple(v + 1 for v in two.labels))
    with pytest.raises(ValueError, match="label counts"):
        construct._ml_out1(one, raised)
    # widths 3 and 2 on 6 labels, but three rows against four
    three = _solved_two(2, 3)
    three = Ranking(three.graph, tuple(v + 1 for v in three.labels))
    assert three.label_count == 6
    with pytest.raises(ShapeError, match="row counts"):
        construct._ml_out1(one, three)


def test_vertical_cut_even_and_odd():
    sub = rank_exact(build(GraphShape.grid(3, 3))).certificate
    for n in (6, 7):
        out = construct.vertical_cut(3, n, sub)
        assert validate(out) is None
        assert out.label_count == sub.label_count + 3
        assert out.graph.shape == GraphShape.grid(3, n)


def test_vertical_cut_rejects_wrong_sub():
    sub = rank_exact(build(GraphShape.grid(3, 2))).certificate
    with pytest.raises(ShapeError):
        construct.vertical_cut(3, 7, sub)


def test_vertical_cut_known_totals():
    sub = rank_exact(build(GraphShape.grid(4, 4))).certificate
    assert sub.label_count == 7
    out = construct.vertical_cut(4, 9, sub)
    assert validate(out) is None
    assert out.label_count == 11

    tiny = construct.vertical_cut(1, 3, rank_exact(build(GraphShape.grid(1, 1))).certificate)
    assert validate(tiny) is None
    assert tiny.graph.shape == GraphShape.grid(1, 3)
    assert tiny.label_count == 2

    # doubling from a width-30 run endpoint lands back on the closed form
    base = construct.four_row_certificate(30).final
    assert base.label_count == formulas.rank_4xn(30) == 16
    wide = construct.vertical_cut(4, 61, base)
    assert validate(wide) is None
    assert wide.label_count == 20 == formulas.rank_4xn(61)


def test_triangle_ranking_small_exact():
    want = {1: 1, 2: 3, 3: 4, 4: 6, 5: 8, 6: 9}
    for s, lam in want.items():
        r = construct.triangle_ranking(s)
        assert validate(r) is None
        assert r.label_count == lam


def test_triangle_ranking_validates_larger():
    for s in (7, 10, 16):
        r = construct.triangle_ranking(s)
        assert validate(r) is None
        assert r.graph.vertex_count == s * (s + 1) // 2


@cache
def _row_cut(a: int, b: int) -> tuple[int, int]:
    """The recursive row-cut schedule construct._row_cuts replaced, as the
    reference: the labels it spends on rows a..b of a triangle, and the
    first row it cuts (-1 for one row or none).  A cold call recurses once
    per row, so callers settle shorter runs first."""
    if a > b:
        return 0, -1
    if a == b:
        return (b + 1).bit_length(), -1
    costs = [w + 1 + max(_row_cut(a, w - 1)[0], _row_cut(w + 1, b)[0]) for w in range(a, b + 1)]
    t = min(costs)
    return t, a + costs.index(t)


def _row_cut_fill(s: int) -> list[int]:
    """The recursive schedule's labels of tri_s in build's vertex order:
    each cut row takes the top labels of its run, the two runs it leaves
    share the block below, and a single row takes the ruler labelling."""
    labels = [0] * (s * (s + 1) // 2)

    def fill(a: int, b: int, base: int) -> None:
        if a > b:
            return
        first = a * (a + 1) // 2
        if a == b:
            labels[first:first + a + 1] = [base + ((c + 1) & -(c + 1)).bit_length() for c in range(a + 1)]
            return
        t, w = _row_cut(a, b)
        first = w * (w + 1) // 2
        labels[first:first + w + 1] = [base + t - c for c in range(w + 1)]
        fill(a, w - 1, base)
        fill(w + 1, b, base)

    fill(0, s - 1, 0)
    return labels


def _check_row_cuts(s: int) -> None:
    for e in range(1, s + 1):
        cost, cut = construct._row_cuts(e)
        for a in range(e - 1, -1, -1):  # shorter runs first
            assert (cost[a], cut[a]) == _row_cut(a, e - 1), (s, a, e)


def test_row_cut_table_matches_the_recursive_schedule():
    # column e holds every run that ends at row e-1, so columns 1..120
    # hold every run up to side 120; the smaller sides, read again from a
    # table filled in their own order, give the same runs
    _check_row_cuts(120)
    construct._row_cuts.cache_clear()
    for s in [*range(1, 41), 60]:
        _check_row_cuts(s)
        assert bounds.tri_bound(s) == _row_cut(0, s - 1)[0]


def test_row_cut_columns_are_shared_across_sides():
    # the side-120 table holds every smaller side's: reading them fills
    # nothing more
    construct._row_cuts.cache_clear()
    bounds.tri_bound(120)
    misses = construct._row_cuts.cache_info().misses
    for s in range(1, 121):
        bounds.tri_bound(s)
    assert construct._row_cuts.cache_info().misses == misses


def test_row_cut_column_recurses_a_constant_depth():
    # a cold column reads the earlier ones in ascending order, so the
    # side-150 table fills in a fresh process held to 60 frames, where a
    # memo that recursed once per row would not
    env = dict(os.environ, PYTHONPATH=str(Path(construct.__file__).parents[1]))
    code = "import sys; from rankgrid import construct; sys.setrecursionlimit(60); construct._row_cuts(150)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_row_cut_counts_are_pinned():
    # the sum of the stacked counts over sides 1..200, as the per-side
    # tables gave them
    assert sum(bounds.tri_bound(s) for s in range(1, 201)) == 87655


# SHA-256 of triangle_ranking(s).labels for s = 7..40, taken when the rows
# were filled by the recursive schedule and gathered by _to_ranking
TRIANGLE_LABELS_SHA256 = "db0dd7e6b91b4c350a2836ca9aadbe3a4844cb1abcd667d6e828d8aec613ec39"


def test_triangle_ranking_matches_the_recursive_fill():
    rankings = [construct.triangle_ranking(s) for s in range(7, 41)]
    for s, r in zip(range(7, 41), rankings):
        assert list(r.labels) == _row_cut_fill(s), s
    assert _labels_sha256(rankings) == TRIANGLE_LABELS_SHA256


def test_claimed_triangle_labels_closed_form():
    # the label count the halving recursion advertises: 2s - 2floor(log2(s+1)) + 1
    assert [2 * s - 2 * ((s + 1).bit_length() - 1) + 1 for s in range(1, 9)] == [
        1, 3, 3, 5, 7, 9, 9, 11,
    ]


def test_triangle_report_shape_and_gap():
    # the advertised 5 labels at s = 4 are below the exact rank, and the
    # row cuts take more than the advertised 9 at s = 7
    assert construct.triangle_ranking(4).label_count == 6
    assert construct.triangle_ranking(7).label_count > 9


def test_corner_ranks():
    # the glued corner: a column, its bottom staircase, and the column as a clique
    assert construct.corner_shape(2) == GraphShape.grid(2, 1, (StickyEnd("right"),))
    for m, rank in [(2, 2), (3, 4), (4, 5), (5, 7)]:
        shape = construct.corner_shape(m)
        g = build(shape)
        assert g.vertex_count == m * (m + 1) // 2
        column = [g.coords.index((r, 0)) for r in range(m)]
        assert all(g.adjacency_masks[u] >> v & 1 for u in column for v in column if u < v)
        corner = solve.solved(shape)
        assert validate(corner) is None and corner.label_count == rank


def corner(m: int) -> Ranking:
    return solve.solved(construct.corner_shape(m))


def test_diagonal_cut_matches_known_totals():
    inner = rank_exact(build(GraphShape.grid(4, 4))).certificate
    out = construct.diagonal_cut(4, 14, inner, corner(4))
    assert validate(out) is None
    assert out.label_count == inner.label_count + corner(4).label_count + 4 == 16
    odd = construct.diagonal_cut(4, 13, inner, corner(4))
    assert validate(odd) is None
    assert odd.label_count == 16


def test_diagonal_cut_three_rows():
    # width 7 leaves room for a single inner column
    inner = rank_exact(build(GraphShape.grid(3, 1))).certificate
    out = construct.diagonal_cut(3, 7, inner, corner(3))
    assert validate(out) is None
    assert out.label_count == inner.label_count + corner(3).label_count + 3 == 9


def test_diagonal_cut_refuses_other_corners():
    inner = rank_exact(build(GraphShape.grid(4, 4))).certificate
    for wrong in (construct.triangle_ranking(4), corner(3)):
        with pytest.raises(ShapeError, match="corner_shape"):
            construct.diagonal_cut(4, 14, inner, wrong)
    # valid on the unit-edge staircase, but (0, 0) and (2, 0) share a label
    # the inner grid would join
    at = {(0, 0): 1, (1, 0): 3, (2, 0): 1, (1, 1): 1, (2, 1): 2, (2, 2): 1}
    stair = build(GraphShape.grid(3, 1, (StickyEnd("right"),)))
    assert validate(Ranking(stair, tuple(at[rc] for rc in stair.coords))) is None
    glued = build(construct.corner_shape(3))
    sub = rank_exact(build(GraphShape.grid(3, 1))).certificate
    with pytest.raises(ValueError, match="corner is not a ranking"):
        construct.diagonal_cut(3, 7, sub, Ranking(glued, tuple(at[rc] for rc in glued.coords)))


def test_diagonal_cut_takes_a_corner_read_back_from_json():
    # a corner written to a file keeps its shape, clique edges included
    data = json.loads(json.dumps(corner(4).graph.to_json_dict()))
    back = Ranking(Graph.from_json_dict(data), corner(4).labels)
    inner = solve.solved(GraphShape.grid(4, 4))
    assert construct.diagonal_cut(4, 14, inner, back).label_count == 16


def test_diagonal_cut_rejects_invalid_inputs():
    # inputs that are not rankings are bad input, refused before assembly
    inner = rank_exact(build(GraphShape.grid(4, 4))).certificate
    flat_inner = Ranking(inner.graph, (1,) * 16)
    with pytest.raises(ValueError, match="inner is not a ranking"):
        construct.diagonal_cut(4, 14, flat_inner, corner(4))
    flat_corner = Ranking(corner(4).graph, (1,) * 10)
    for n, sub in [(14, inner), (6, None)]:
        with pytest.raises(ValueError, match="corner is not a ranking"):
            construct.diagonal_cut(4, n, sub, flat_corner)


def test_diagonal_cut_rejects_bad_dims():
    inner = rank_exact(build(GraphShape.grid(4, 4))).certificate
    with pytest.raises(ShapeError):
        construct.diagonal_cut(4, 5, inner, corner(4))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_diagonal_cut_without_inner_grid(m):
    # at n = m+2 the corners and the cut tile the grid; diagonal_upper's
    # value there is the label count of this validated cut
    out = construct.diagonal_cut(m, m + 2, None, corner(m))
    assert validate(out) is None
    assert out.graph.shape == GraphShape.grid(m, m + 2)
    assert out.label_count == corner(m).label_count + m == bounds.diagonal_upper(m, m + 2)
    inner = rank_exact(build(GraphShape.grid(m, 1))).certificate
    with pytest.raises(ShapeError):
        construct.diagonal_cut(m, m + 2, inner, corner(m))
    with pytest.raises(ShapeError):
        construct.diagonal_cut(m, m + 3, None, corner(m))


def _labels_sha256(rankings) -> str:
    text = ";".join(",".join(map(str, r.labels)) for r in rankings)
    return hashlib.sha256(text.encode()).hexdigest()


def _inner(m: int, q: int) -> Ranking | None:
    # the inner grid diagonal_upper prices: solved up to width 4, a
    # vertical cut of the solved half above
    if q > 4:
        return construct.vertical_cut(m, q, solve.solved(GraphShape.grid(m, q // 2)))
    return solve.solved(GraphShape.grid(m, q)) if q else None


# SHA-256 of the labels of diagonal_cut(m, n) for n = m+2..m+15, taken when
# the cut kept its own mirror: q = 0 and both parities of n - m are covered
DIAGONAL_CUT_SHA256 = {
    2: "2997f2d682849d7d21b3377c93c10862b4d3e2fb2fc7dfab2e90106d4bfcc582",
    3: "f2fb2eb34922cbdb6c981fac6a451530c7811efce34603f4ed71551ef9071937",
    4: "5cdcb6d47d379eb4948ae1e4875d54538dc7305bd38d23e57d1b6c1771fc1bdf",
    5: "0823a418eb928457b31778cb5fab220bb6c20a58986223215af3a2f057c37e45",
}


@pytest.mark.parametrize("m", sorted(DIAGONAL_CUT_SHA256))
def test_diagonal_cut_labels_are_pinned(m):
    cuts = [construct.diagonal_cut(m, n, _inner(m, (n - m + 1) // 2 - 1), corner(m))
            for n in range(m + 2, m + 16)]
    assert _labels_sha256(cuts) == DIAGONAL_CUT_SHA256[m]


# SHA-256 of the labels of vertical_cut(m, n) for n = 2..13 on the solved
# half, taken when the cut wrote its labels straight into one dict
VERTICAL_CUT_SHA256 = {
    1: "889a41399f94f2f0336112b84e5ea426122f9c150495120c90a2ceaedf4601e2",
    2: "11bd670fc9f135756649c4cf23fd6d5850fbd97ae5e774958ed47137f41ceb91",
    3: "288000e1dcaf462da734b298e34deff6d80414534bf03287a1093a0f8e82867e",
    4: "0310b05b00c03981f0dd4d53587a0d139f7a124f3247a5b6a1d0d53e17b9f967",
}


@pytest.mark.parametrize("m", sorted(VERTICAL_CUT_SHA256))
def test_vertical_cut_labels_are_pinned(m):
    cuts = [construct.vertical_cut(m, n, solve.solved(GraphShape.grid(m, n // 2))) for n in range(2, 14)]
    assert _labels_sha256(cuts) == VERTICAL_CUT_SHA256[m]


def test_ruler_ranking_family():
    for k, (width, lam) in {3: (7, 9), 4: (17, 13), 5: (37, 17)}.items():
        r = construct.ruler_ranking(k)
        assert validate(r) is None
        assert r.graph.shape == GraphShape.grid(4, width)
        assert r.label_count == lam
        assert formulas.rank_4xn(width) == lam


RULER_LABEL_SHA256 = {
    3: "ac4147e1a39b6c5bf80f8c44092ec9460c5de46e70d6230914150d635127bea1",
    4: "b0f0cef69fbbda3e531c053788b2cb0d41bc40249bcef678ff90841719ed15d8",
    5: "b43dca4a739b9b106ba997d576e39d7f22311bebe0fadb70db747b99b5d15ca3",
    6: "4bfa52ed38531f097794104b06b10e6eadb3c8caf18e6bdade41532c44887061",
    7: "a55c6bf0ebb9eb970fe580bfb0fbed097106e630b0565e765dd1312bfa831d16",
    8: "7151956df2b1e13a560fece62ddc1efcd9ea665cfb205e108b4e1b9c4d3e1b8f",
    9: "d282d67f783d0ae41777d0d697f11f1e599065c38b8b583dbd34dc86c793c717",
    10: "290cfce1a927205daa581f34320aa46bf5205c9a3be43b38f9e3aa0d5953c59e",
    11: "0e4a3f7d62d3245885dc8cc1fd542fac2e819771375467c9d2a368e76f12a235",
}


@pytest.mark.parametrize("k", sorted(RULER_LABEL_SHA256))
def test_ruler_ranking_labels_are_pinned(k):
    # SHA-256 of the comma-joined labels; the segments must be the same cell
    # sets between the same cut columns for the ruler endpoints to stay put
    labels = ",".join(map(str, construct.ruler_ranking(k).labels))
    assert hashlib.sha256(labels.encode()).hexdigest() == RULER_LABEL_SHA256[k]


def test_restrict_columns():
    r = construct.ruler_ranking(3)
    cut = construct.restrict_columns(4, 7, r.labels, 5)
    assert validate(cut) is None
    assert cut.graph.shape == GraphShape.grid(4, 5)
    # restriction never adds labels but can keep extras when it crosses
    # a run boundary; width 5 retains all 9 of the width-7 ranking
    assert cut.label_count <= r.label_count
    with pytest.raises(ShapeError):
        construct.restrict_columns(4, 7, r.labels, 8)


def test_four_row_certificate_endpoint_and_interior():
    # 10 is a run endpoint, 11 is not
    end = construct.four_row_certificate(10)
    assert end.labels == formulas.rank_4xn(10) == 10
    assert end.steps[-1].name != "restrict"
    mid = construct.four_row_certificate(11)
    assert mid.steps[-1].name == "restrict"
    assert mid.labels == formulas.rank_4xn(11)
    assert validate(mid.final) is None


def test_chain_manifest_serializes():
    chain = construct.four_row_certificate(6)
    d = chain.to_json_dict()
    assert d["ranking"]["labels"] == list(chain.final.labels)
    assert [s["name"] for s in d["steps"]] == [s.name for s in chain.steps]
    assert d["graph"]["vertex_count"] == chain.final.graph.vertex_count


def test_run_endpoint_certificates_small():
    # k_max = 4 admits endpoints up to 2^5 - 3 = 29; the last one that
    # fits is 26, and interior widths 27..29 belong to the next run
    chains = construct.run_endpoint_certificates(4)
    widths = sorted(c.width for c in chains)
    assert widths == list(range(1, 26 + 1))
    by_width = {c.width: c for c in chains}
    for n in (6, 10, 14, 22, 26):
        assert by_width[n].labels == formulas.rank_4xn(n)
    for c in chains:
        # interior widths share their run's value, so restriction is tight
        assert c.labels == formulas.rank_4xn(c.width)
        assert validate(c.final) is None


@pytest.mark.parametrize("k_max, last", [(3, 12), (4, 26), (5, 54), (6, 110)])
def test_run_endpoint_certificates_cover_to_the_last_whole_run(k_max, last):
    # 2^(k_max+1) - 3 lies inside the run that ends at 2^(k_max+1) - 2, so
    # the widths covered are 1..7*2^(k_max-2) - 2
    assert last == (7 << (k_max - 2)) - 2
    assert [c.width for c in construct.run_endpoint_certificates(k_max)] == list(range(1, last + 1))


def _holds_no_graph(x) -> bool:
    if isinstance(x, (Graph, Ranking)):
        return False
    if isinstance(x, tuple):
        return all(_holds_no_graph(y) for y in x)
    if dataclasses.is_dataclass(x):
        return all(_holds_no_graph(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


def test_each_endpoint_chain_is_built_once(endpoint_builds):
    # up and back down, so a memo of only the latest endpoints would rebuild
    for n in [*range(9, 65), *range(64, 8, -1)]:
        chain = construct.four_row_certificate(n)
        assert validate(chain.final) is None
    ends = {run_endpoint(n) for n in range(9, 65)}
    assert endpoint_builds == {e: 1 for e in ends}
    for e in ends:
        # the memo keeps steps and row-major labels, never a graph
        steps, labels = construct._endpoint_record(e)
        assert _holds_no_graph(steps) and _holds_no_graph(labels)
        assert len(labels) == 4 * e and all(type(v) is int for v in labels)
        assert steps[-1].output == GraphShape.grid(4, e)
    assert endpoint_builds == {e: 1 for e in ends}


@pytest.fixture
def validations(monkeypatch) -> Counter:
    """verify.validate calls per graph shape, counted from a cold endpoint memo."""
    seen: Counter = Counter()
    real = verify.validate

    def counted(r: Ranking):
        seen[r.graph.shape] += 1
        return real(r)

    monkeypatch.setattr(verify, "validate", counted)
    construct._endpoint_record.cache_clear()
    return seen


@pytest.mark.parametrize("e", [46, 37])  # a doubling endpoint, then a ruler one
def test_a_cold_endpoint_validates_its_final_once(validations, e):
    grid = GraphShape.grid(4, e)
    chain = construct.four_row_certificate(e)
    assert chain.final.graph.shape == grid and chain.labels == formulas.rank_4xn(e)
    assert validations[grid] == 1
    # a warm call rebuilds the grid from the memo's labels and checks it on use
    assert construct.four_row_certificate(e).final.labels == chain.final.labels
    assert validations[grid] == 2


def test_a_cold_interior_width_validates_its_cut_and_the_final_once(validations):
    assert run_endpoint(40) == 46
    assert construct.four_row_certificate(40).final.graph.shape == GraphShape.grid(4, 40)
    assert validations[GraphShape.grid(4, 40)] == 1 and validations[GraphShape.grid(4, 46)] == 1


def test_a_cold_endpoint_keeps_no_graph_alive():
    # the memo files the chain's labels; once the caller drops the chain it
    # built, its 4 x e graph must go with it
    construct._endpoint_record.cache_clear()
    chain = construct.four_row_certificate(46)
    final, graph = weakref.ref(chain.final), weakref.ref(chain.final.graph)
    del chain
    gc.collect()
    assert final() is None and graph() is None
    steps, labels = construct._endpoint_record(46)
    assert _holds_no_graph(steps) and _holds_no_graph(labels)


def test_restrict_columns_matches_coordinate_restriction():
    r = construct.four_row_certificate(46).final
    for n in (1, 17, 40, 46):
        cut = construct.restrict_columns(4, 46, r.labels, n)
        kept = sorted({v for (row, c), v in zip(r.graph.coords, r.labels) if c < n})
        want = [kept.index(v) + 1 for (row, c), v in zip(r.graph.coords, r.labels) if c < n]
        assert list(cut.labels) == want
