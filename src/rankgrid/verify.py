"""Checking rankings: validate, with a witness path for each violation.

A ranking assigns each vertex a label in 1..k such that any path between
two vertices with the same label passes through a strictly larger label.
Equivalently (and this is what validate checks): for every level c, no
connected component of the subgraph induced by labels <= c contains two
vertices labelled exactly c.  validate grows those components in label
order with a union-find whose root is always its component's highest
label, so a second vertex at a component's top label shows at once; a
root's parent has a strictly higher label, so no find walks more than k
steps.  It reads the edge list once, filing each edge under its later
end in label order, and builds no adjacency: only a violation's witness
path reads Graph.adjacency_masks.  The path form is kept in the test
suite as an independent oracle, and a level-by-level union-find as the
reference for witnesses.  checked runs validate on every ranking the
package emits, where a failure is a bug.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Ranking:
    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.graph.vertex_count:
            raise ValueError(
                f"ranking has {len(self.labels)} labels for {self.graph.vertex_count} vertices"
            )
        if self.graph.vertex_count == 0:
            raise ValueError("rankings of the empty graph are not supported")
        if min(self.labels) < 1:
            raise ValueError("labels must be positive integers")

    @property
    def label_count(self) -> int:
        return max(self.labels)

    def to_json_dict(self) -> dict:
        return {"graph_hash": self.graph.graph_hash, "labels": list(self.labels)}


@dataclass(frozen=True)
class Violation:
    """Witness that a labelling is not a ranking.

    level is the offending label value, witnesses the two equal-labelled
    endpoints, and path a concrete connecting path whose interior labels
    are all <= level.
    """

    level: int
    witnesses: tuple[int, int]
    path: tuple[int, ...]


def validate(ranking: Ranking) -> Violation | None:
    """Return None for a valid ranking, or a Violation with a witness path.

    One pass over g.edges puts each edge on the list of its later end in
    (label, index) order, the order vertices then join a union-find forest
    in; no adjacency is built.  Each joining vertex becomes the parent of
    the root of every earlier neighbour's component, so a root is always
    its component's highest label, and a vertex with no earlier neighbour
    is left as its own root.  An earlier neighbour whose root already has
    the new vertex's label (an equal-labelled neighbour is its own root)
    is a violation, found at the lowest level that has one.
    """
    g = ranking.graph
    labels = ranking.labels
    n = g.vertex_count
    down: list[list[int]] = [[] for _ in range(n)]  # each vertex's earlier neighbours
    for u, v in g.edges:  # u < v, so v is the later end on a tie
        if labels[u] <= labels[v]:
            down[v].append(u)
        else:
            down[u].append(v)
    parent = list(range(n))
    for v in sorted(filter(down.__getitem__, range(n)), key=labels.__getitem__):
        c = labels[v]
        for x in down[v]:
            r = parent[x]
            while r != x:  # up to the root, pointing the path at v on the way
                parent[x] = v
                x, r = r, parent[r]
            if x != v:
                if labels[x] == c:
                    return _first_violation(g, labels, c)
                parent[x] = v
    return None


def _first_violation(g: Graph, labels: tuple[int, ...], c: int) -> Violation:
    """The Violation at level c: the first level-c vertex, in index order,
    that shares a component of the labels <= c subgraph with an earlier one,
    that earlier vertex, and the BFS path from it inside the component,
    each vertex's neighbours taken lowest first."""
    adj = g.adjacency_masks
    prev = [-1] * g.vertex_count  # BFS parent; a flood's start is its own
    for v, l in enumerate(labels):
        if l != c:
            continue
        if prev[v] >= 0:
            path = [v]
            while prev[path[-1]] != path[-1]:
                path.append(prev[path[-1]])
            return Violation(c, (path[-1], v), tuple(reversed(path)))
        prev[v] = v
        q = deque([v])
        while q:
            u = q.popleft()
            nbrs = adj[u]
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                w = low.bit_length() - 1
                if prev[w] < 0 and labels[w] <= c:
                    prev[w] = u
                    q.append(w)
    raise AssertionError(f"no two vertices labelled {c} share a component")


def checked(g: Graph, labels: Sequence[int], count: int | None = None) -> Ranking:
    """labels on g as a Ranking that validate accepts, of exactly count
    labels when count is given.

    For the package's own rankings, where either failure is a bug: it
    raises AssertionError naming the violation or the two counts.
    """
    r = Ranking(g, tuple(labels))
    bad = validate(r)
    if bad is not None:
        raise AssertionError(f"emitted an invalid ranking: {bad}")
    if count is not None and r.label_count != count:
        raise AssertionError(f"ranking has {r.label_count} labels, expected {count}")
    return r
