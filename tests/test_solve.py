"""Exact solver behaviour: oracle agreement, certificates, budgets."""

from __future__ import annotations

import random

import pytest

from conftest import random_connected_graph
from rankgrid import solve
from rankgrid.graphs import Custom, GraphShape, RemoveCorner, StickyEnd, build
from rankgrid.solve import Budget, brute_force, rank_decision, rank_exact
from rankgrid.verify import validate


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
    with pytest.raises(RuntimeError):
        brute_force(big, cap=12, budget=Budget(seconds=1e-6))


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

    cut = build(GraphShape.grid(4, 3, (RemoveCorner("NW"), RemoveCorner("NE"))))
    out5 = rank_decision(cut, 5)
    assert out5.feasible and validate(out5.ranking) is None
    assert rank_decision(cut, 4).feasible is False


def test_budget_exhaustion_reports_interval():
    g = build(GraphShape.grid(5, 6))
    res = rank_exact(g, budget=Budget(nodes=50))
    assert res.budget_exhausted
    assert not res.exact
    assert res.lb <= res.ub
    assert res.certificate is not None
    assert validate(res.certificate) is None
    assert res.certificate.label_count == res.ub


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(seconds=0)
    with pytest.raises(ValueError):
        Budget(nodes=-1)


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
    """Bitmasks of every rows x cols rectangle of core cells, found by coords."""
    m, n = g.shape.m, g.shape.n
    at = {rc: i for i, rc in enumerate(g.coords) if 0 <= rc[0] < m and 0 <= rc[1] < n}
    out = []
    for r0, c0 in at:
        cells = [at.get((r0 + i, c0 + j)) for i in range(rows) for j in range(cols)]
        if None not in cells:
            out.append(sum(1 << v for v in cells))
    return out


RIGHT = (StickyEnd("right"),)


def _check_block_detection(m, n, masks, decorations=()):
    g = build(GraphShape.grid(m, n, decorations))
    eng = solve._Engine(g, blocks=solve._grid_blocks(g))
    blocks = eng.blocks
    assert blocks, (m, n)
    for rank, size, rows, start in blocks:
        placed = _placements(g, rows, size // rows)
        eng.blocks = [(1, size, rows, start)]  # this block alone, rank 1
        for mask in masks:
            want = any(mask & p == p for p in placed)
            assert (eng.block_lb(mask, 0) == 1) == want, (m, n, rows, size // rows, bin(mask))


def test_block_detection_matches_coordinate_scan():
    for m, n in ((3, 4), (4, 4)):
        _check_block_detection(m, n, range(1 << (m * n)))
    rng = random.Random(7)
    for m, n in ((4, 6), (5, 5), (6, 6)):
        _check_block_detection(m, n, [rng.getrandbits(m * n) for _ in range(2000)])
    # staircase cells follow the core, so no run through them may count
    for m, n in ((4, 4), (3, 6)):
        size = build(GraphShape.grid(m, n, RIGHT)).vertex_count
        _check_block_detection(m, n, [rng.getrandbits(size) for _ in range(2000)], RIGHT)


def test_blocks_only_on_plain_and_sticky_grids():
    sticky = {(rows, size // rows)
              for _, size, rows, _ in solve._grid_blocks(build(GraphShape.grid(4, 4, RIGHT)))}
    # the whole 4x4 core is a block of the decorated grid
    assert {(4, 4), (2, 2), (1, 4)} <= sticky
    for decorations in ((RemoveCorner("NE"),), (StickyEnd("left"), RemoveCorner("SW")),
                        (Custom([(0, 4)], [((0, 3), (0, 4))]),)):
        assert solve._grid_blocks(build(GraphShape.grid(4, 4, decorations))) == []
    assert solve._grid_blocks(build(GraphShape.triangle(5))) == []
    g = build(GraphShape.grid(4, 5))
    sub, _ = g.induced_subgraph(range(12))
    assert solve._grid_blocks(sub) == []
    dims = {(rows, size // rows) for _, size, rows, _ in solve._grid_blocks(g)}
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


def test_block_bound_is_below_the_subgraph_rank():
    rng = random.Random(11)
    for m, n, decorations in ((4, 4, ()), (3, 5, ()), (4, 4, RIGHT), (3, 6, RIGHT)):
        g = build(GraphShape.grid(m, n, decorations))
        eng = solve._Engine(g, blocks=solve._grid_blocks(g))
        raised = 0
        for _ in range(200):
            mask = _random_connected_mask(rng, g)
            if mask & (mask - 1) == 0:
                continue
            sub, _ = g.induced_subgraph([v for v in range(g.vertex_count) if mask >> v & 1])
            lb, _ = eng.bounds_of(mask, eng.canon(mask))
            assert lb <= rank_exact(sub).value, (m, n, bin(mask))
            raised += lb > max(eng.path_lb(mask), 2)
        assert raised >= 20, (m, n, raised)


def _check_block_core(m, n, masks, decorations=()):
    g = build(GraphShape.grid(m, n, decorations))
    eng = solve._Engine(g, blocks=solve._grid_blocks(g))
    placed = [(rank, _placements(g, rows, size // rows)) for rank, size, rows, _ in eng.blocks]
    for mask in masks:
        inside = [(rank, [p for p in ps if mask & p == p]) for rank, ps in placed]
        for k in range(1, eng.blocks[0][0] + 2):
            want = -1
            for rank, ps in inside:
                if rank >= k:
                    for p in ps:
                        want &= p
            assert eng.block_core(mask, k) == want, (m, n, k, bin(mask))


def test_block_core_matches_coordinate_scan():
    for m, n in ((3, 4), (4, 4)):
        _check_block_core(m, n, range(1 << (m * n)))
    rng = random.Random(13)
    for m, n in ((4, 6), (5, 5), (6, 6)):
        _check_block_core(m, n, [rng.getrandbits(m * n) for _ in range(2000)])
    for m, n in ((4, 4), (3, 6)):
        size = build(GraphShape.grid(m, n, RIGHT)).vertex_count
        _check_block_core(m, n, [rng.getrandbits(size) for _ in range(2000)], RIGHT)


def _induced(g, mask):
    return g.induced_subgraph([v for v in range(g.vertex_count) if mask >> v & 1])[0]


def test_block_core_holds_every_top_separator():
    # a ranking of a connected mask within r = rank labels has one vertex
    # labelled r, in every block of rank r: outside the core no vertex works
    rng = random.Random(17)
    empty = checked = outside = 0
    for m, n, decorations in ((4, 4, ()), (3, 5, ()), (4, 5, ()), (4, 4, RIGHT), (3, 6, RIGHT)):
        g = build(GraphShape.grid(m, n, decorations))
        eng = solve._Engine(g, blocks=solve._grid_blocks(g))
        for _ in range(40):
            mask = _random_connected_mask(rng, g)
            if mask & (mask - 1) == 0:
                continue
            r = rank_exact(_induced(g, mask)).value
            for k in range(1, r + 2):
                if eng.block_core(mask, k) == 0:
                    assert k < r, (m, n, k, bin(mask))
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
                comps = sorted(eng.components(mask & ~v), key=int.bit_count, reverse=True)
                assert any(rank_decision(_induced(g, c), r - 1).feasible is False
                           for c in comps), (m, n, bin(mask), v)
    assert empty >= 50 and checked >= 60 and outside >= 200, (empty, checked, outside)


def test_block_table_is_not_charged_to_the_budget(monkeypatch):
    engines = []

    class Recording(solve._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(solve, "_Engine", Recording)
    g = build(GraphShape.grid(4, 8))
    runs = []
    for cold in (True, False):
        if cold:
            solve._block_rank.cache_clear()
        res = rank_exact(g, budget=Budget(nodes=10000))
        runs.append((engines[-1].nodes, res.lb, res.ub, res.budget_exhausted))
    assert runs[0] == runs[1]
    assert runs[0][1:] == (8, 11, True)
