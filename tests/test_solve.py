"""Exact solver behaviour: oracle agreement, certificates, budgets."""

from __future__ import annotations

import hashlib
import random
import sys
from collections import deque
from functools import partial

import pytest

from conftest import brute_force, corner_cut, neighbours, random_connected_graph
from rankgrid import bounds, cli, construct, formulas, solve
from rankgrid.graphs import Graph, GraphShape, StickyEnd, build
from rankgrid.solve import Budget, rank_decision, rank_exact
from rankgrid.verify import Ranking, validate


def test_known_small_values():
    for shape, want in [
        (GraphShape.path(1), 1),
        (GraphShape.path(2), 2),
        (GraphShape.path(7), 3),
        (GraphShape.grid(2, 2), 3),
        (GraphShape.grid(3, 3), 5),
        (GraphShape.grid(2, 5), 5),
        (GraphShape.triangle(3), 4),
    ]:
        res = rank_exact(build(shape))
        assert res.exact and res.value == want, shape


def test_four_by_seven_less_a_corner():
    res = rank_exact(corner_cut(4, 7, (3, 0)))
    assert res.value == 9 and validate(res.certificate) is None


def test_certificate_is_valid_and_tight():
    res = rank_exact(build(GraphShape.grid(3, 4)))
    assert res.certificate is not None
    assert validate(res.certificate) is None
    assert res.certificate.label_count == res.value


def test_agrees_with_brute_force_sample(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        assert rank_exact(g).value == brute_force(g).value


def test_brute_force_certificate_and_cap(rng):
    g = random_connected_graph(rng, 6)
    res = brute_force(g)
    assert res.exact
    assert validate(res.certificate) is None
    big = build(GraphShape.grid(3, 4))
    with pytest.raises(ValueError):
        brute_force(big)
    assert brute_force(big, cap=12).value == 6


def test_decision_feasible_produces_certificate():
    g = build(GraphShape.grid(4, 2, (StickyEnd("left"), StickyEnd("right"))))
    out = rank_decision(g, 6)
    # left and right staircases on opposite row alignments would be the
    # cheaper variant; the default same-alignment pair needs 7
    assert not out.budget_exhausted and out.feasible is False
    out7 = rank_decision(g, 7)
    assert out7.feasible and validate(out7.ranking) is None
    assert out7.ranking.label_count <= 7


def test_decision_known_cases():
    anti = build(GraphShape.grid(4, 2, (StickyEnd("left", "top"), StickyEnd("right"))))
    out = rank_decision(anti, 6)
    assert out.feasible and validate(out.ranking) is None

    p4 = build(GraphShape.path(4))
    assert rank_decision(p4, 2).feasible is False

    cut = corner_cut(4, 3, (0, 0), (0, 2))
    out5 = rank_decision(cut, 5)
    assert out5.feasible and validate(out5.ranking) is None
    assert rank_decision(cut, 4).feasible is False


def test_decision_refuses_a_k_that_is_not_a_whole_count():
    # NaN compares false with everything, so it once passed "k < 1" and got
    # a 6-label "yes" on the rank-5 3x3 grid
    g = build(GraphShape.grid(3, 3))
    for k in (float("nan"), float("inf"), float("-inf"), 4.5, 5.0, True, "5", 0, -1):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            rank_decision(g, k)
    assert rank_decision(g, 5).ranking.label_count == 5


def test_budget_exhaustion_reports_interval():
    g = build(GraphShape.grid(5, 6))
    res = rank_exact(g, budget=Budget(nodes=50))
    assert res.budget_exhausted
    assert not res.exact
    assert res.lb <= res.ub
    assert res.certificate is not None
    assert validate(res.certificate) is None
    assert res.certificate.label_count == res.ub


@pytest.mark.parametrize("shape, budgets", [
    (GraphShape.grid(3, 5), range(40, 55)),
    (GraphShape.grid(4, 5), range(588, 606)),
    (GraphShape.grid(2, 20), range(196, 255)),
    (GraphShape.path(100), range(5, 6)),
])
def test_budget_running_out_in_certificate_extraction(shape, budgets):
    # these budgets outlast the search but not the rebuilding of its
    # certificate; the reply is still a proven interval, never an exception
    g = build(shape)
    value = rank_exact(g).value
    for nodes in budgets:
        res = rank_exact(g, budget=Budget(nodes=nodes))
        assert res.lb <= value <= res.ub, nodes
        assert validate(res.certificate) is None
        assert res.certificate.label_count == res.ub


def test_budget_seconds_running_out_still_holds_the_value():
    # the engine reads its clock every 256 nodes, and exact 4x8 needs ~30k
    res = rank_exact(build(GraphShape.grid(4, 8)), budget=Budget(seconds=1e-9))
    assert res.budget_exhausted and res.lb <= formulas.rank_4xn(8) <= res.ub
    assert validate(res.certificate) is None and res.certificate.label_count == res.ub


def test_decision_budget_running_out_in_certificate_extraction():
    g = build(GraphShape.grid(4, 5))
    for nodes in range(10, 20):
        out = rank_decision(g, 8, budget=Budget(nodes=nodes))
        assert out.feasible is not False, nodes
        if out.ranking is not None:
            assert validate(out.ranking) is None and out.ranking.label_count <= 8


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(seconds=0)
    with pytest.raises(ValueError):
        Budget(nodes=-1)
    with pytest.raises(ValueError):
        Budget(seconds=float("nan"))
    assert Budget(seconds=float("inf")).seconds == float("inf")
    # seconds are an int or a float: a bool is no duration, and a string is
    # refused like any other bad cap, not by a TypeError from comparing it
    for seconds in (True, False, "5", [1]):
        with pytest.raises(ValueError, match="budget seconds must be positive"):
            Budget(seconds=seconds)
    assert Budget(seconds=2).seconds == 2 and Budget(seconds=0.5).seconds == 0.5
    # a node cap is a whole count: NaN would never run out, and a bool or a
    # fraction is no count
    for nodes in (0, float("nan"), float("inf"), 1.5, 10.0, True, "10"):
        with pytest.raises(ValueError):
            Budget(nodes=nodes)
    assert Budget(nodes=1).nodes == 1


def test_interval_result_refuses_value():
    g = build(GraphShape.grid(5, 6))
    res = rank_exact(g, budget=Budget(nodes=50))
    with pytest.raises(ValueError):
        _ = res.value


def test_disconnected_graph_takes_component_max(rng):
    # two paths glued as one vertex set: rank is the larger component's
    from rankgrid.graphs import Graph

    g = Graph(5, ((0, 1), (1, 2), (3, 4)), tuple((0, i) for i in range(5)))
    res = rank_exact(g)
    assert res.value == 2
    assert validate(res.certificate) is None


def test_brute_force_shares_no_code_with_the_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle built a search engine")

    monkeypatch.setattr(solve, "_Engine", forbidden)
    g = Graph(5, ((0, 1), (1, 2), (3, 4)), tuple((0, i) for i in range(5)))
    assert brute_force(g).certificate.labels == (1, 2, 1, 1, 2)


def test_brute_force_labels_are_pinned():
    # random graphs, disconnected ones among them; the digest was taken
    # while brute_force still split components with the engine
    rng = random.Random(20)
    lines = []
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
        g = Graph(n, edges, tuple((0, i) for i in range(n)))
        lines.append(",".join(map(str, brute_force(g).certificate.labels)))
    digest = hashlib.sha256(";".join(lines).encode()).hexdigest()
    assert digest == "cd475c84a470293d144348d49d0742b014c67a181d76e00170cd320a6a982b46"


def test_deletion_never_raises_rank(rng):
    # removing a vertex keeps an induced subgraph: rank cannot go up,
    # and adding the vertex back with a fresh top label shows it drops
    # by at most one
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(3, 8))
        r = rank_exact(g).value
        for v in range(g.vertex_count):
            keep = [u for u in range(g.vertex_count) if u != v]
            sub, _ = g.induced_subgraph(keep)
            rv = rank_exact(sub).value
            assert r - 1 <= rv <= r


# -- block lower bounds ------------------------------------------------------


def _placements(g, rows, cols):
    """Bitmasks of every rows x cols grid placed in g other than g itself,
    found by coords: inside the frame (the shape's m x n, else the bounding
    box), every cell a vertex and every unit step between cells an edge."""
    if g.shape is not None:
        lo, hi = (0, 0), (g.shape.m, g.shape.n)
    else:
        lo = tuple(map(min, zip(*g.coords)))
        hi = tuple(x + 1 for x in map(max, zip(*g.coords)))
    at = {rc: i for i, rc in enumerate(g.coords)
          if lo[0] <= rc[0] < hi[0] and lo[1] <= rc[1] < hi[1]}
    out = []
    for r0, c0 in at:
        cells = [(r0 + i, c0 + j) for i in range(rows) for j in range(cols)]
        if not all(rc in at for rc in cells):
            continue
        steps = [(at[r, c], at[r + dr, c + dc]) for r, c in cells
                 for dr, dc in ((0, 1), (1, 0)) if (r + dr, c + dc) in cells]
        mask = sum(1 << at[rc] for rc in cells)
        if all(g.adjacency_masks[u] >> v & 1 for u, v in steps) and mask != (1 << g.vertex_count) - 1:
            out.append(mask)
    return out


def _reference(g):
    """(rank, mask) of every placement of every block of 4..24 cells."""
    return [(solve.grid_rank(a, b), p)
            for a in range(1, 25) for b in range(1, 24 // a + 1) if a * b >= 4
            for p in _placements(g, a, b)]


RIGHT = (StickyEnd("right"),)
SW_CUT = corner_cut(4, 4, (3, 0))
# a triangle; a corner cut; a custom vertex at the cut corner, wired only to
# the cell above it; and a shapeless graph whose coords all lie on one row
# while its edges are arbitrary: one of its eleven 1x4 windows is a path, and
# only that one counts
MORE_GRAPHS = (
    build(GraphShape.triangle(5)),
    corner_cut(4, 5, (3, 0)),
    Graph(16, tuple(sorted(SW_CUT.edges + ((8, 15),))), SW_CUT.coords + ((3, 0),)),
    random_connected_graph(random.Random(0), 14),
)


def _grids(*dims, decorations=()):
    return [build(GraphShape.grid(m, n, decorations)) for m, n in dims]


def _masks(g, rng, count=2000):
    if g.vertex_count <= 16:
        return range(1 << g.vertex_count)
    return [rng.getrandbits(g.vertex_count) for _ in range(count)]


def _check_block_detection(g, masks):
    table = solve._blocks(g)
    ref = _reference(g)
    assert ref and {(rank, p) for rank, ps in table for p in ps} <= set(ref)
    eng = solve._Engine(g)
    for mask in [*masks, *(p for _, p in ref)]:
        want = max((rank for rank, p in ref if mask & p == p), default=0)
        assert eng.block_lb(mask, 0) == want, (g.shape, bin(mask))


def test_block_detection_matches_coordinate_scan():
    rng = random.Random(7)
    # staircase cells lie outside the frame, so no block may reach them
    for g in (*_grids((3, 4), (4, 4), (4, 6), (5, 5), (6, 6)),
              *_grids((4, 4), (3, 6), decorations=RIGHT), *MORE_GRAPHS):
        _check_block_detection(g, _masks(g, rng))


def _block_cells(g):
    return {g.coords[v] for _, ps in solve._blocks(g) for p in ps
            for v in range(g.vertex_count) if p >> v & 1}


def test_blocks_lie_in_the_frame():
    g = build(GraphShape.grid(4, 4, RIGHT))
    # the whole 4x4 core is a block of the decorated grid; the frame is that
    # core, so the staircase's own 2x2 squares are left out
    assert any((1 << 16) - 1 in ps for _, ps in solve._blocks(g))
    assert _block_cells(g) == {(r, c) for r in range(4) for c in range(4)}
    # without a shape the frame is the bounding box, which holds those squares
    assert {(2, 4), (3, 5)} <= _block_cells(Graph(g.vertex_count, g.edges, g.coords))
    # a triangle's frame is its s x s square: tri_5's best block is the 3x3
    # grid in its bottom-left corner
    tri = build(GraphShape.triangle(5))
    at = {rc: i for i, rc in enumerate(tri.coords)}
    corner = sum(1 << at[r, c] for r in range(2, 5) for c in range(3))
    assert solve._blocks(tri)[0] == (5, (corner,))
    g = build(GraphShape.grid(4, 5))
    dims = set()
    for _, ps in solve._blocks(g):
        for p in ps:
            cells = [g.coords[v] for v in range(g.vertex_count) if p >> v & 1]
            rows, cols = zip(*cells)
            dims.add((max(rows) - min(rows) + 1, max(cols) - min(cols) + 1))
    assert {(4, 4), (3, 4), (4, 3), (2, 2), (1, 4)} <= dims
    # 4x5 is the grid itself; 3x5 and 1x5 hold 3x4 and 1x4, of equal rank
    assert not {(4, 5), (3, 5), (1, 5)} & dims
    assert all(4 <= rows * cols <= 24 for rows, cols in dims)


def _random_connected_mask(rng, g):
    adj = g.adjacency_masks
    mask = 1 << rng.randrange(g.vertex_count)
    for _ in range(rng.randrange(g.vertex_count)):
        frontier = 0
        for v in range(g.vertex_count):
            if mask >> v & 1:
                frontier |= adj[v]
        frontier &= ~mask
        if not frontier:
            break
        cells = [v for v in range(g.vertex_count) if frontier >> v & 1]
        mask |= 1 << rng.choice(cells)
    return mask


def _mask_components(g, mask):
    """The components of mask, each flooded from the lowest vertex left: the
    reference for the engine's split, sharing no code with it."""
    adj = neighbours(g)
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grown = comp
            for v in range(g.vertex_count):
                if frontier >> v & 1:
                    grown |= sum(1 << u for u in adj[v]) & mask
            frontier = grown & ~comp
            comp = grown
        comps.append(comp)
        mask &= ~comp
    return comps


def _induced(g, mask):
    return g.induced_subgraph([v for v in range(g.vertex_count) if mask >> v & 1])[0]


def test_block_bound_is_below_the_subgraph_rank():
    rng = random.Random(11)
    raised = []
    for g in (*_grids((4, 4), (3, 5)), *_grids((4, 4), (3, 6), decorations=RIGHT), *MORE_GRAPHS):
        eng = solve._Engine(g)
        raised.append(0)
        for _ in range(200):
            mask = _random_connected_mask(rng, g)
            if mask & (mask - 1) == 0:
                continue
            lb, _ = eng.bounds_of(mask, eng.canon(mask))
            assert lb <= rank_exact(_induced(g, mask)).value, (g.shape, bin(mask))
            raised[-1] += lb > max(eng.path_lb(mask), 2)
    # a 1x4 block never beats the path bound of a mask that holds it
    assert min(raised[:-1]) >= 20 and raised[-1] == 0, raised


def _check_block_core(g, masks):
    eng = solve._Engine(g)
    ref = _reference(g)
    for mask in masks:
        inside = [(rank, p) for rank, p in ref if mask & p == p]
        for k in range(1, max(rank for rank, _ in ref) + 2):
            want = -1
            for rank, p in inside:
                if rank >= k:
                    want &= p
            assert eng.block_core(mask, k) == want, (g.shape, k, bin(mask))


def test_block_core_matches_coordinate_scan():
    rng = random.Random(13)
    for g in (*_grids((3, 4), (4, 4), (4, 6), (5, 5), (6, 6)),
              *_grids((4, 4), (3, 6), decorations=RIGHT), *MORE_GRAPHS):
        _check_block_core(g, _masks(g, rng))


def test_block_core_holds_every_top_separator():
    # a ranking of a connected mask within r = rank labels has one vertex
    # labelled r, in every block of rank r: outside the core no vertex works
    rng = random.Random(17)
    empty = checked = outside = 0
    for g in (*_grids((4, 4), (3, 5), (4, 5)), *_grids((4, 4), (3, 6), decorations=RIGHT),
              *MORE_GRAPHS):
        eng = solve._Engine(g)
        for _ in range(40):
            mask = _random_connected_mask(rng, g)
            if mask & (mask - 1) == 0:
                continue
            r = rank_exact(_induced(g, mask)).value
            for k in range(1, r + 2):
                if eng.block_core(mask, k) == 0:
                    assert k < r, (g.shape, k, bin(mask))
                    empty += 1
            core = eng.block_core(mask, r)
            if core == -1 or mask & ~core == 0:
                continue
            checked += 1
            rest = mask & ~core
            while rest:
                v = rest & -rest
                rest ^= v
                outside += 1
                comps = sorted(_mask_components(g, mask & ~v), key=int.bit_count, reverse=True)
                assert any(rank_decision(_induced(g, c), r - 1).feasible is False
                           for c in comps), (g.shape, bin(mask), v)
    assert empty >= 50 and checked >= 60 and outside >= 200, (empty, checked, outside)


def test_one_solve_per_small_grid(monkeypatch, capsys):
    # the blocks, the closed forms' base cases, square_lower's small squares,
    # the small four-row chains, small triangles and unbudgeted sweeps all
    # read one table of exact solves
    real = solve.rank_exact
    solved = []

    def recording(g, *args, **kwargs):
        solved.append(g.graph_hash)
        return real(g, *args, **kwargs)

    for mod in (solve, formulas, bounds, construct, cli):
        if getattr(mod, "rank_exact", None) is real:
            monkeypatch.setattr(mod, "rank_exact", recording)
    for memo in (solve.solved, solve.grid_rank, bounds.square_lower,
                 construct._endpoint_record, construct.triangle_ranking):
        memo.cache_clear()
    assert formulas.rank_3xn(5) == 6 and formulas.rank_4xn(2) == 4
    assert bounds.square_lower(4) == 7
    assert cli.main(["sweep", "--m", "4", "--n-range", "4:7", "--methods", "formula,exact,cert"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(construct.run_endpoint_certificates(4)) == 26
    assert [construct.triangle_ranking(s).label_count for s in range(1, 7)] == [1, 3, 4, 6, 8, 9]
    assert solve.rank_exact(build(GraphShape.grid(5, 5))).value == 9
    assert build(GraphShape.grid(4, 4)).graph_hash in solved
    assert len(solved) == len(set(solved))


@pytest.fixture
def engines(monkeypatch):
    """Every _Engine made while the test runs, oldest first."""
    made = []

    class Recording(solve._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solve, "_Engine", Recording)
    return made


def test_block_table_is_not_charged_to_the_budget(engines):
    g = build(GraphShape.grid(4, 8))
    runs = []
    for cold in (True, False):
        if cold:
            solve.solved.cache_clear()
            solve.grid_rank.cache_clear()
        res = rank_exact(g, budget=Budget(nodes=10000))
        runs.append((engines[-1].nodes, res.lb, res.ub, res.budget_exhausted))
    assert runs[0] == runs[1]
    assert runs[0][1:] == (8, 11, True)


# -- kernel primitives and the search they drive -----------------------------


SHAPELESS = Graph.from_json_dict({
    "vertex_count": 11,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [2, 4], [4, 5], [5, 6], [6, 4],
              [6, 7], [7, 8], [8, 9], [9, 10], [10, 7], [1, 9]],
    "coords": [[0, c] for c in range(11)],
})


def _rank_of(g):
    return solve._Engine(g).rank_of((1 << g.vertex_count) - 1)


def _decide(g, k):
    return rank_decision(g, k).feasible


def _budgeted(g):
    res = rank_exact(g, budget=Budget(nodes=10000))
    return res.lb, res.ub, res.budget_exhausted


@pytest.mark.parametrize("shape, want", [
    (GraphShape.grid(4, 6),
     (8, 258, 73, "7713357d9a7b2f60fab0c97a6cae2922c45895bf720b0fbc85fb85f5fa989cee")),
    (GraphShape.grid(5, 5),
     (9, 2679, 800, "93c7742afa85005833b7a3ddcb5ffa1f6ed8cb41946611e8bd84d175ba5ea675")),
    (GraphShape.triangle(5),
     (8, 3476, 1092, "28c3ba8344c2e050124a41a0802ff04b40bf37d8477292be5e015eedb0f242fb")),
    (GraphShape.grid(4, 4, RIGHT),
     (7, 218, 77, "0e2ac0cfa1ceaa8e9518b5f6959b6c0d5d960c4881ddb086acc0583068705cf6")),
    # its only blocks are 1x4 paths, of rank 3
    pytest.param(partial(_rank_of, SHAPELESS),
                 (5, 50, 20, "bbeb197698d36c66dd45637b58dab876f833beef45ec2d67f22be4ddb9e46619"),
                 id="shapeless"),
    # refuted at the root, whose lb is 8
    pytest.param(partial(_decide, build(GraphShape.grid(4, 6)), 7),
                 (False, 1, 1, "b44b8bf8d46929051d8b8f54ed9d81d5c7b98465ce579874d0534db3a48d44d3"),
                 id="decide-4x6-k7"),
    pytest.param(partial(_decide, build(GraphShape.grid(4, 7)), 9),
                 (True, 3964, 1634, "31f76231a7e1277b00929cffc69ae6e925753dd1bfe88290b8b1aebd1f10500d"),
                 id="decide-4x7-k9"),
    # the memo as the budget runs out, greedy's upper bound included
    pytest.param(partial(_budgeted, build(GraphShape.grid(4, 8))),
                 ((8, 11, True), 10001, 4671,
                  "d516f92450ea37eacf9a5fa47c861cab505d76757723726137b4ebc95c90e92d"),
                 id="budgeted-4x8"),
    pytest.param(partial(_budgeted, build(GraphShape.grid(4, 9))),
                 ((8, 12, True), 10001, 4800,
                  "c9a4666594a9c133a5170206448c0084dcc204b14b4201b77f8956e76b8871d3"),
                 id="budgeted-4x9"),
    pytest.param(partial(_budgeted, build(GraphShape.grid(6, 6))),
                 ((8, 13, True), 10001, 3577,
                  "e6b38f1d8fde906753859e94cf17a07951adc2741e6137ecef8859e59d4ec5b6"),
                 id="budgeted-6x6"),
])
def test_search_trajectory_is_pinned(engines, shape, want):
    # a faster kernel must run the same search: same answer, same number of
    # nodes, same memo entries holding the same intervals
    run = shape if callable(shape) else partial(_rank_of, build(shape))
    answer = run()
    memo = engines[-1].memo
    digest = hashlib.sha256(repr(sorted(memo.items())).encode()).hexdigest()
    assert (answer, engines[-1].nodes, len(memo), digest) == want


def _scanned(table, mask):
    """(rank, placement) of every placement of the block table inside mask,
    one containment test each."""
    return [(rank, p) for rank, ps in table for p in ps if mask & p == p]


@pytest.mark.parametrize("run", [
    partial(_budgeted, build(GraphShape.grid(6, 6))),
    partial(_budgeted, build(GraphShape.grid(4, 9))),
    partial(_rank_of, build(GraphShape.grid(4, 4, RIGHT))),
], ids=["budgeted-6x6", "budgeted-4x9", "exact-4x4-right"])
def test_block_index_matches_a_placement_scan_on_memo_keys(engines, run):
    # the subproblems the search really meets: every memo key it leaves
    run()
    eng = engines[-1]
    table = solve._blocks(eng.g)
    top = table[0][0]
    for mask in eng.memo:
        inside = _scanned(table, mask)
        for lb in (0, 2, top):
            assert eng.block_lb(mask, lb) == max([lb] + [rank for rank, _ in inside]), (bin(mask), lb)
        for k in range(1, top + 2):
            want = -1
            for rank, p in inside:
                if rank >= k:
                    want &= p
            assert eng.block_core(mask, k) == want, (bin(mask), k)


@pytest.mark.parametrize("shape", [GraphShape.path(3), GraphShape.grid(1, 3), GraphShape.grid(2, 2)])
def test_a_graph_without_placements_has_no_block_bound(shape):
    g = build(shape)
    assert solve._blocks(g) == []
    eng = solve._Engine(g)
    for mask in range(1, 1 << g.vertex_count):
        for lb in (0, 2, 5):
            assert eng.block_lb(mask, lb) == lb
        for k in range(1, 6):
            assert eng.block_core(mask, k) == -1


@pytest.mark.parametrize("m, n, interval", [(4, 8, (8, 11)), (4, 9, (8, 12)), (6, 6, (8, 13))])
def test_budgeted_intervals_are_pinned(m, n, interval):
    res = rank_exact(build(GraphShape.grid(m, n)), budget=Budget(nodes=10000))
    assert res.budget_exhausted and (res.lb, res.ub) == interval


def _labels_sha(labels) -> str:
    return hashlib.sha256(",".join(map(str, labels)).encode()).hexdigest()


@pytest.mark.parametrize("m, n, digest", [
    (4, 8, "1e4bcd3c920ff8cff4590268f679775a9c1e7c7523d8f368574e49961a0c1e0d"),
    (4, 9, "562bfa78fb85d9ac01f85a56c698be8fffc4ecdb892428317b633a7f55230967"),
    (6, 6, "c25541e4f10c76044f064788a8006d076e2d064971732d074995d1961411e361"),
])
def test_budgeted_certificates_are_the_pinned_greedy_labels(m, n, digest):
    # a budgeted reply prints greedy's ranking; the digests are of the
    # labels the recursive greedy gave
    res = rank_exact(build(GraphShape.grid(m, n)), budget=Budget(nodes=10000))
    assert res.budget_exhausted and _labels_sha(res.certificate.labels) == digest


def test_greedy_needs_no_stack_per_label():
    # 16x16 takes 82 greedy labels, once 82 nested calls; the digest is of
    # the labels that recursive greedy gave
    g = build(GraphShape.grid(16, 16))
    eng = solve._Engine(g)
    labels: dict[int, int] = {}
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        count = eng.greedy((1 << g.vertex_count) - 1, labels)
    finally:
        sys.setrecursionlimit(limit)
    assert count == 82 == max(labels.values())
    assert _labels_sha(labels[v] for v in range(g.vertex_count)) == \
        "9139abb341d58679eb4e1195567eba3407f85ad04f1bcfc6897b033b6fbfb6d8"
    assert validate(Ranking(g, tuple(labels[v] for v in range(g.vertex_count)))) is None


@pytest.mark.parametrize("g", [
    build(GraphShape.grid(3, 4)),
    build(GraphShape.triangle(4)),
    build(GraphShape.grid(3, 3, RIGHT)),
    build(construct.corner_shape(4)),
    SHAPELESS,
], ids=["grid3x4", "triangle4", "grid3x3-right", "corner4", "shapeless"])
def test_split_matches_components(g):
    eng = solve._Engine(g)
    checked = 0
    for mask in range(1, 1 << g.vertex_count):
        if len(_mask_components(g, mask)) != 1:
            continue
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            assert eng.split(mask, v) == _mask_components(g, mask & ~b), (bin(mask), v)
            checked += 1
    assert checked > 1000


def _ref_path_lb(g, mask):
    """The engine's path bound by lists and a deque: BFS inside mask from its
    lowest vertex, then from the lowest vertex at the greatest depth; a
    shortest path of that second depth d holds d + 1 vertices."""
    adj = neighbours(g)

    def sweep(src):
        depth = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if mask >> u & 1 and u not in depth:
                    depth[u] = depth[v] + 1
                    queue.append(u)
        d = max(depth.values())
        return min(v for v in depth if depth[v] == d), d

    far, _ = sweep((mask & -mask).bit_length() - 1)
    return (sweep(far)[1] + 1).bit_length()


@pytest.mark.parametrize("g", [
    build(GraphShape.grid(5, 5)),
    build(GraphShape.triangle(5)),
    build(GraphShape.grid(4, 4, RIGHT)),
    build(construct.corner_shape(4)),
    SHAPELESS,
], ids=["grid5x5", "triangle5", "grid4x4-right", "corner4", "shapeless"])
def test_entry_bound_is_the_best_of_path_and_block(g):
    # a new entry's lb is max(2, path, block) whether or not the path sweep
    # runs; it is skipped when the block bound already reaches the largest
    # path bound |mask| allows
    rng = random.Random(g.vertex_count)
    eng = solve._Engine(g)
    swept = []
    path_lb = eng.path_lb
    eng.path_lb = lambda mask: swept.append(mask) or path_lb(mask)
    entries = 0
    for _ in range(400):
        mask = _random_connected_mask(rng, g)
        key = eng.canon(mask)
        if mask & (mask - 1) == 0 or key in eng.memo:
            continue
        lb, _ = eng.bounds_of(mask, key)
        assert lb == max(2, _ref_path_lb(g, mask), eng.block_lb(mask, 0)), bin(mask)
        entries += 1
    assert 0 < len(swept) < entries, (len(swept), entries)


def _image(perm, mask):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


@pytest.mark.parametrize("shape, automorphisms", [
    (GraphShape.grid(6, 6), 8),
    (GraphShape.grid(5, 5), 8),
    (GraphShape.grid(3, 3), 8),
    (GraphShape.triangle(5), 2),
    (GraphShape.grid(4, 4, RIGHT), 1),
])
def test_canon_is_the_least_image(shape, automorphisms):
    g = build(shape)
    assert len(g.automorphisms) == automorphisms
    eng = solve._Engine(g)
    rng = random.Random(g.vertex_count)
    for mask in [rng.getrandbits(g.vertex_count) for _ in range(300)]:
        want = min(mask, *(_image(p, mask) for p in g.automorphisms))
        # with the identity alone (the sticky 4x4), want is mask itself
        assert eng.canon(mask) == want, bin(mask)
