"""Shared helpers: seeded random graphs, corner cuts, decided staircase
bases and endpoint counters."""

from __future__ import annotations

import random
from collections import Counter
from functools import cache

import pytest

from rankgrid import construct, formulas, solve
from rankgrid.graphs import Graph, GraphShape, build
from rankgrid.verify import Ranking


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-ish connected graph: a random spanning tree plus extra edges."""
    edges: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    extra = rng.randrange(0, n) if n > 1 else 0
    for _ in range(extra):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    # coords only matter for rendering; a single row keeps them unique
    return Graph(n, tuple(sorted(edges)), tuple((0, i) for i in range(n)))


def corner_cut(m: int, n: int, *cells: tuple[int, int]) -> Graph:
    """The m x n grid less the given cells, as a shapeless graph.  Its
    coords, edges, hash and symmetries are those of the grid's induced
    subgraph, and its bounding box is still the full m x n frame when only
    corners are cut."""
    g = build(GraphShape.grid(m, n))
    return g.induced_subgraph([v for v, rc in enumerate(g.coords) if rc not in cells])[0]


@cache
def decided(shape: GraphShape, k: int) -> Ranking:
    """rank_decision's ranking of shape within k labels, memoised: the
    staircase bases the merge tests take, solved as construct's were."""
    out = solve.rank_decision(build(shape), k)
    assert out.ranking is not None, f"{shape} has no ranking within {k} labels"
    return out.ranking


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def run_endpoint(n: int) -> int:
    """The right endpoint of the four-row formula's run that holds width n."""
    while formulas.rank_4xn(n + 1) == formulas.rank_4xn(n):
        n += 1
    return n


@pytest.fixture
def endpoint_builds(monkeypatch) -> Counter:
    """Calls of construct._endpoint_chain per endpoint, counted from a cold memo."""
    built: Counter = Counter()
    chain = construct._endpoint_chain

    def counted(e: int):
        built[e] += 1
        return chain(e)

    monkeypatch.setattr(construct, "_endpoint_chain", counted)
    construct._endpoint_record.cache_clear()
    return built
