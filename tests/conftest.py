"""Shared helpers: seeded random graphs, corner cuts, decided staircase
bases, endpoint counters, and the tests' own adjacency, flood and
enumeration oracle."""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import cache

import pytest

from rankgrid import construct, formulas, solve
from rankgrid.graphs import Graph, GraphShape, build
from rankgrid.verify import Ranking, checked, validate


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


def neighbours(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours read off g.edges, ascending: with the edges
    sorted, each vertex meets its smaller neighbours first, then its larger
    ones.  The reference checks' adjacency, shared with no package code."""
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def flood(adj: list[list[int]], src: int) -> list[int]:
    """src's connected component in BFS order from src, each vertex's
    neighbours taken in adj's order."""
    seen = {src}
    order = [src]
    for u in order:  # order grows as the flood reaches new vertices
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def brute_force(g: Graph, cap: int = 8) -> solve.RankResult:
    """Smallest k admitting any valid labeling, by direct enumeration: the
    oracle for the exact solver, sharing no code with its search.

    Each component, in flood's BFS order, is labelled for k = 1, 2, ... by
    a depth-first search over labels 1..k: vertices are labelled one by
    one in that order, each trying labels from 1 up, and a prefix is
    abandoned as soon as the new vertex reaches an equal label through
    labelled vertices below it.  That check only sees pairs ending at the
    new vertex, so a complete labelling counts only once validate accepts
    it.  The least k for a component uses every label 1..k (an unused one
    could be squeezed out), so the labels need no relabelling.
    Exponential, hence the vertex cap.
    """
    if g.vertex_count == 0:
        raise ValueError("brute_force needs a nonempty graph")
    if g.vertex_count > cap:
        raise ValueError(f"brute_force capped at {cap} vertices, got {g.vertex_count}")
    start = time.monotonic()
    adj = neighbours(g)
    labels = [0] * g.vertex_count  # 0 on every vertex not yet labelled

    def fits(v: int, label: int) -> bool:
        seen = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w in seen or not labels[w]:
                    continue
                if labels[w] == label:
                    return False
                if labels[w] < label:
                    seen.add(w)
                    stack.append(w)
        return True

    def rec(i: int) -> bool:
        # labels order[i:] within k; order, sub, old and k belong to the
        # component and cap the loop below is trying
        if i == len(order):
            return validate(Ranking(sub, tuple(labels[v] for v in old))) is None
        v = order[i]
        for label in range(1, k + 1):
            if fits(v, label):
                labels[v] = label
                if rec(i + 1):
                    return True
        labels[v] = 0
        return False

    for src in range(g.vertex_count):
        if labels[src]:
            continue
        order = flood(adj, src)
        sub, old = g.induced_subgraph(order)
        # k = |comp| always succeeds: distinct labels rank anything
        for k in range(1, len(order) + 1):
            if rec(0):
                break
    cert = checked(g, labels)
    return solve.RankResult(cert.label_count, cert.label_count, "brute_force", cert,
                            time.monotonic() - start)


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
