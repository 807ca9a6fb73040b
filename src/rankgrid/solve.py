"""Exact rank-number computation.

rank_exact and rank_decision share one decision search, feasible(mask, k):
a connected graph has a ranking within k labels iff deleting some vertex v
leaves components that each have one within k - 1.  Subproblems are
connected vertex subsets, memoized as bitmasks (canonicalized under the
graph's geometric automorphisms) with [lb, ub] intervals.  A new entry's lb
is the larger of path_lb and the rank of the best a x b grid block the
subset holds, placed by coordinates in the graph's frame, since a ranking
restricted to a subgraph is still a ranking.  Block ranks come from
grid_rank, which reads solved, the process's one table of unbudgeted
rank_exact certificates by shape; the closed forms' base cases,
square_lower, construct's small chains and triangles and an unbudgeted
sweep read it too, so none of them solves a shape twice.  The engine
numbers the placements as bits, highest rank first, and indexes them by
vertex, so the placements inside a subset are those that no vertex outside
it hits: one OR per vertex outside it.  When an entry's lb equals the k
asked, the one vertex labelled k lies in every placement of every block of
rank k, so only that common core is tried as a separator, and an empty
core refutes k.  rank_decision asks the search once; rank_exact starts ub
at a greedy ranking's label count and lowers it one label at a time until
the next step down is refuted.  Both rebuild their certificate with one
memo walk, extract: rank_exact lets each part take its own rank,
rank_decision caps the top label at k.  Every ranking they return
has passed verify.checked; the test suite checks their values against an
enumeration oracle of its own.

Both respect wall-clock / node budgets, which cover rebuilding the
certificate from the memo as well as the search.  Budget exhaustion is
never silent: rank_exact degrades to a proven interval with the flag set,
rank_decision reports "unknown".
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

from .graphs import Graph, GraphShape, build
from .verify import Ranking, checked

__all__ = [
    "Budget",
    "RankResult",
    "DecisionOutcome",
    "rank_exact",
    "rank_decision",
    "grid_rank",
    "solved",
]


@dataclass(frozen=True)
class Budget:
    """Caps on a solver call; None means unlimited.

    Each cap must be positive, seconds an int or float and nodes an int,
    neither a bool: NaN seconds are rejected like zero, infinite seconds
    never run out.  Both caps count the caller's own search only.  Filling
    solved, the table of exact solves that block bounds draw from, is a
    fixed cost of the process, like build, and charged to no budget; a
    budgeted call never takes its reply from it, so it does not depend on
    what was solved before.
    """

    seconds: float | None = None
    nodes: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and (type(self.seconds) not in (int, float) or not self.seconds > 0):
            raise ValueError(f"budget seconds must be positive, got {self.seconds!r}")
        if self.nodes is not None and (type(self.nodes) is not int or self.nodes <= 0):
            raise ValueError(f"budget nodes must be a positive int, got {self.nodes!r}")


@dataclass(frozen=True)
class RankResult:
    """Outcome of an exact computation.

    lb == ub when solved; otherwise the pair is a proven interval and
    budget_exhausted is set.  certificate, when present, is a valid
    ranking with exactly ub labels.
    """

    lb: int
    ub: int
    method: str
    certificate: Ranking | None
    elapsed: float
    budget_exhausted: bool = False

    @property
    def exact(self) -> bool:
        return self.lb == self.ub

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"no exact value, only the interval [{self.lb}, {self.ub}]")
        return self.lb

    def to_json_dict(self) -> dict:
        out: dict = {"method": self.method, "elapsed": round(self.elapsed, 6),
                     "budget_exhausted": self.budget_exhausted}
        if self.exact:
            out["value"] = self.lb
        else:
            out["interval"] = [self.lb, self.ub]
        if self.certificate is not None:
            out["labels"] = list(self.certificate.labels)
        return out


@dataclass(frozen=True)
class DecisionOutcome:
    """rank_decision result: a certificate, a proven 'no', or budget out."""

    ranking: Ranking | None
    budget_exhausted: bool
    elapsed: float

    @property
    def feasible(self) -> bool | None:
        if self.ranking is not None:
            return True
        return None if self.budget_exhausted else False


class _BudgetExhausted(Exception):
    pass


class _Engine:
    """Separator-recursion search over connected bitmask subproblems."""

    def __init__(self, graph: Graph, budget: Budget | None = None) -> None:
        self.g = graph
        self.n = graph.vertex_count
        self.adj = list(graph.adjacency_masks)
        # the block placements as bits, highest rank first: each bit's rank
        # and cells, hit[v] the bits of the placements that hold vertex v,
        # and covered the vertices some placement holds; built before the
        # clock starts, so no budget pays for the solves behind the ranks
        blocks = _blocks(graph)
        self.ranks = [rank for rank, placements in blocks for _ in placements]
        self.cells = [p for _, placements in blocks for p in placements]
        self.placed = (1 << len(self.cells)) - 1
        self.hit = hit = [0] * self.n
        covered = 0
        bit = 1
        for p in self.cells:
            covered |= p
            while p:
                low = p & -p
                hit[low.bit_length() - 1] |= bit
                p ^= low
            bit <<= 1
        self.covered = covered
        self.memo: dict[int, tuple[int, int]] = {}
        self.nodes = 0
        self._node_limit = budget.nodes if budget else None
        self._deadline = (time.monotonic() + budget.seconds) if budget and budget.seconds else None
        # static tie-break: central vertices first (good separators early)
        top, left, bottom, right = graph.extent
        cr, cc = (top + bottom) / 2, (left + right) / 2
        cent = [abs(r - cr) + abs(c - cc) for r, c in graph.coords]
        self.static_pos = [0] * self.n
        for i, v in enumerate(sorted(range(self.n), key=lambda v: (cent[v], v))):
            self.static_pos[v] = i
        self._perm_tables = self._build_perm_tables()

    # -- symmetry ---------------------------------------------------------

    def _build_perm_tables(self) -> list[list[int]]:
        """Per-byte tables: entry b of table i packs the images of a mask
        whose byte i is b under every nontrivial automorphism, n bits each."""
        n = self.n
        perms = [p for p in self.g.automorphisms if p != tuple(range(n))]
        single = [sum(1 << (i * n + p[v]) for i, p in enumerate(perms))
                  for v in range(n)] + [0] * 7
        tables = []
        for base in range(0, n if perms else 0, 8):
            row = [0] * 256
            for b in range(1, 256):
                low = b & -b
                row[b] = row[b ^ low] | single[base + low.bit_length() - 1]
            tables.append(row)
        return tables

    def canon(self, mask: int) -> int:
        """The least of mask and its images under the automorphisms."""
        packed = 0
        m = mask
        for row in self._perm_tables:
            packed |= row[m & 0xFF]
            m >>= 8
        best = mask
        n = self.n
        full = (1 << n) - 1
        # a nonempty mask has a nonempty image in every lane
        while packed:
            img = packed & full
            if img < best:
                best = img
            packed >>= n
        return best

    # -- plumbing ---------------------------------------------------------

    def split(self, mask: int, v: int) -> list[int]:
        """The components of mask & ~(1 << v) for a connected mask, ordered
        by lowest vertex: each holds a neighbour of v, so a flood that holds
        every neighbour not yet placed leaves the rest of the mask as one."""
        adj = self.adj
        rest = mask & ~(1 << v)
        nbrs = adj[v] & rest
        comps = []
        while nbrs:
            comp = frontier = nbrs & -nbrs
            while frontier and nbrs & ~comp:
                nxt = 0
                f = frontier
                while f:
                    u = f.bit_length() - 1
                    f ^= 1 << u
                    nxt |= adj[u]
                frontier = nxt & rest & ~comp
                comp |= frontier
            if not nbrs & ~comp:
                comps.append(rest)
                break
            comps.append(comp)
            rest ^= comp
            nbrs &= ~comp
        if len(comps) > 1:
            comps.sort(key=lambda c: c & -c)
        return comps

    def path_lb(self, mask: int) -> int:
        """Bit-length bound from a longest shortest path: BFS from the lowest
        vertex, then from the lowest of its last level, to depth d."""
        adj = self.adj
        far = mask & -mask
        for _ in range(2):
            rest = mask & ~far
            frontier = far
            d = -1
            while frontier:
                last = frontier
                d += 1
                nxt = 0
                while frontier:
                    v = frontier.bit_length() - 1
                    frontier ^= 1 << v
                    nxt |= adj[v]
                frontier = nxt & rest
                rest ^= frontier
            far = last & -last
        return (d + 1).bit_length()

    def live(self, mask: int) -> int:
        """The bits of the placements that lie in mask: those that no
        vertex outside mask hits."""
        hit = self.hit
        dead = 0
        removed = self.covered & ~mask
        while removed:
            low = removed & -removed
            dead |= hit[low.bit_length() - 1]
            removed ^= low
        return self.placed & ~dead

    def block_lb(self, mask: int, lb: int) -> int:
        """The larger of lb and the rank of the best block placed in mask:
        the rank of its lowest live placement bit."""
        live = self.live(mask)
        if live:
            rank = self.ranks[(live & -live).bit_length() - 1]
            if rank > lb:
                return rank
        return lb

    def block_core(self, mask: int, k: int) -> int:
        """The cells common to every placement in mask of every block of
        rank >= k; -1 (all cells) when mask holds no such placement.
        Ranks fall along the bit order, so those are the live bits before
        the first of rank < k."""
        ranks = self.ranks
        live = self.live(mask)
        core = -1
        while live:
            low = live & -live
            i = low.bit_length() - 1
            if ranks[i] < k:
                break
            core &= self.cells[i]
            if not core:
                return 0
            live ^= low
        return core

    def candidates(self, mask: int, allowed: int = -1) -> list[int]:
        """Branch vertices among allowed: degree >= 2 inside the mask when
        possible, densest and most central first."""
        verts = []
        m = mask & allowed
        while m:
            b = m & -m
            m ^= b
            verts.append(b.bit_length() - 1)
        degs = {v: (self.adj[v] & mask).bit_count() for v in verts}
        if any(d >= 2 for d in degs.values()):
            # deleting a degree-1 vertex is never better than deleting its
            # neighbour, so leaves are skipped
            verts = [v for v in verts if degs[v] >= 2]
        verts.sort(key=lambda v: (-degs[v], self.static_pos[v]))
        return verts

    # -- search -----------------------------------------------------------

    def bounds_of(self, mask: int, key: int) -> tuple[int, int]:
        """Memo interval of mask, whose canonical form is key."""
        ent = self.memo.get(key)
        if ent is None:
            size = mask.bit_count()
            lb = self.block_lb(mask, 2)
            # a path holds at most size vertices, so the path bound can
            # raise lb only when lb is below size's bit length
            if lb < size.bit_length():
                lb = max(lb, self.path_lb(mask))
            ent = self.memo[key] = (lb, size)
        return ent

    def feasible(self, mask: int, k: int) -> bool:
        """Is the connected subproblem rankable within k labels?  Stops at
        the first workable separator instead of minimizing."""
        if mask & (mask - 1) == 0:
            return True
        self.nodes += 1
        if (self._node_limit is not None and self.nodes > self._node_limit
                or self._deadline is not None and self.nodes % 256 == 0 and time.monotonic() > self._deadline):
            raise _BudgetExhausted()
        key = self.canon(mask)
        lb, ub = self.bounds_of(mask, key)
        if ub <= k:
            return True
        if lb > k:
            return False
        core = -1
        if lb == k and self.cells:
            # rank >= k: the one vertex labelled k lies in every block of
            # rank k, and it is the separator sought
            core = self.block_core(mask, k)
            if not core:
                self.memo[key] = (k + 1, ub)
                return False
        for v in self.candidates(mask, core):
            for comp in self.split(mask, v):
                if not self.feasible(comp, k - 1):
                    break
            else:
                if k < ub:
                    self.memo[key] = (lb, k)
                return True
        self.memo[key] = (max(lb, k + 1), ub)
        return False

    def rank_of(self, mask: int) -> int:
        """Exact rank of the connected subproblem: lower the memo ub one
        label at a time with feasible until the next step down is refuted."""
        if mask & (mask - 1) == 0:
            return 1
        lb, ub = self.bounds_of(mask, self.canon(mask))
        while lb < ub and self.feasible(mask, ub - 1):
            ub -= 1
        return ub

    # -- certificates ------------------------------------------------------

    def greedy(self, mask: int, labels: dict[int, int]) -> int:
        """Balanced-separator heuristic ranking; returns its label count.

        The parts still to split wait on a stack and are labelled in
        reverse order of their splits, so the call depth does not grow
        with the label count."""
        splits = []  # (part, its vertex, its components) in the order split
        todo = [mask]
        while todo:
            part = todo.pop()
            if part & (part - 1) == 0:
                labels[part.bit_length() - 1] = 1
                continue
            best_v, best, best_size = -1, [], None
            for v in self.candidates(part):
                comps = self.split(part, v)
                size = max(c.bit_count() for c in comps)
                if best_size is None or size < best_size:
                    best_v, best, best_size = v, comps, size
            splits.append((part, best_v, best))
            todo += best
        count: dict[int, int] = {}  # label count per split part; a lone vertex needs 1
        for part, v, comps in reversed(splits):
            count[part] = labels[v] = 1 + max(count.get(c, 1) for c in comps)
        return count.get(mask, 1)

    def extract(self, mask: int, labels: dict[int, int], k: int | None = None) -> None:
        """Rebuild a ranking of the connected subproblem from the memo.

        With k None each part takes its own rank, so the ranking is
        optimal.  With k set the top label is k, or the memo ub when that
        is lower, and the parts are ranked within one label less.
        """
        if mask & (mask - 1) == 0:
            labels[mask.bit_length() - 1] = 1
            return
        if k is None:
            t = self.rank_of(mask)
        else:
            t = min(k, self.bounds_of(mask, self.canon(mask))[1])
        for v in self.candidates(mask):
            comps = self.split(mask, v)
            if all(self.feasible(c, t - 1) for c in comps):
                labels[v] = t
                for c in comps:
                    self.extract(c, labels, None if k is None else t - 1)
                return
        raise AssertionError("no separator fits the memo's answers; memo corrupted")


def _compress(labels: Sequence[int]) -> tuple[int, ...]:
    """Order-preserving relabel onto 1..d (d = number of distinct labels)."""
    remap = {l: i for i, l in enumerate(sorted(set(labels)), 1)}
    return tuple(map(remap.__getitem__, labels))


@cache
def solved(shape: GraphShape) -> Ranking:
    """An optimal ranking of build(shape): rank_exact, unbudgeted, once per process."""
    return rank_exact(build(shape)).certificate


@cache
def grid_rank(m: int, n: int) -> int:
    """Rank number of the m x n grid: the path rank for one row or column,
    else the label count of solved, one entry for either orientation."""
    if m > n:
        return grid_rank(n, m)
    if m == 1:
        return n.bit_length()
    return solved(GraphShape.grid(m, n)).label_count


def _blocks(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(rank, placement masks) of the a x b grids of 4..24 cells in g,
    other than g itself; highest rank first.

    Placements are found by coordinates.  One lies in g's frame (rows
    0..m-1 and cols 0..n-1 of its shape, else the bounding box of its
    coords), each of its cells is a vertex, and each unit step between its
    cells is an edge of g.  Staircase cells lie outside the frame.
    """
    if g.shape is not None:
        top = left = 0
        m, n = g.shape.m, g.shape.n
    else:
        top, left, bottom, right = g.extent
        m, n = bottom - top + 1, right - left + 1
    dims = [(a, b) for a in range(1, min(m, 24) + 1) for b in range(1, min(n, 24 // a) + 1)
            if 4 <= a * b < g.vertex_count]
    rank = {d: grid_rank(*d) for d in dims}
    # a block that holds a smaller one of the same rank proves nothing more;
    # ranks grow with blocks, so a row or a column less is the one test
    dims = [(a, b) for a, b in dims
            if rank.get((a - 1, b)) != rank[a, b] and rank.get((a, b - 1)) != rank[a, b]]
    if not dims:
        return []
    at = {rc: v for v, rc in enumerate(g.coords)
          if top <= rc[0] < top + m and left <= rc[1] < left + n}
    adj = g.adjacency_masks

    def joined(v: int, rc: tuple[int, int]) -> int | None:
        u = at.get(rc)
        return u if u is not None and adj[v] >> u & 1 else None

    # per frame cell, right to left: the masks of its first 1, 2, ... cells
    # joined rightwards by edges, how many of those have an edge down, and
    # the cell below
    widest = max(b for _, b in dims)
    run: dict[int, list[int]] = {}
    downs: dict[int, int] = {}
    below: dict[int, int | None] = {}
    for (r, c), v in sorted(at.items(), key=lambda item: -item[0][1]):
        nxt = joined(v, (r, c + 1))
        tail = run[nxt][:widest - 1] if nxt is not None else []
        run[v] = [1 << v] + [(1 << v) | t for t in tail]
        below[v] = joined(v, (r + 1, c))
        downs[v] = 0 if below[v] is None else 1 + (downs[nxt] if nxt is not None else 0)

    found: dict[tuple[int, int], list[int]] = {d: [] for d in dims}
    widths = [[b for a, b in dims if a == rows] for rows in range(max(dims)[0] + 1)]
    for v in at.values():
        # grow the block down from top-left cell v; fit is its widest width
        stack: list[list[int]] = []
        cell: int | None = v
        fit = widest
        for a in range(1, len(widths)):
            stack.append(run[cell])
            fit = min(fit, len(run[cell]))
            for b in widths[a]:
                if b > fit:
                    break
                found[a, b].append(sum(masks[b - 1] for masks in stack))
            fit = min(fit, downs[cell])
            cell = below[cell]
            if cell is None:
                break
    table: dict[int, list[int]] = {}
    for d in sorted(dims, key=lambda d: (-rank[d], d[0] * d[1], d[0])):
        if found[d]:
            table.setdefault(rank[d], []).extend(found[d])
    return [(k, tuple(placements)) for k, placements in table.items()]


def _components(adj: list[int]) -> list[int]:
    """The components of the graph with neighbour masks adj, as bitmasks
    ordered by lowest vertex."""
    comps = []
    rest = (1 << len(adj)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                v = frontier.bit_length() - 1
                frontier ^= 1 << v
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        rest ^= comp
    return comps


def rank_exact(g: Graph, budget: Budget | None = None) -> RankResult:
    """Exact rank number with certificate, or a proven interval on budget."""
    if g.vertex_count == 0:
        raise ValueError("rank_exact needs a nonempty graph")
    start = time.monotonic()
    eng = _Engine(g, budget)
    comps = _components(eng.adj)

    heur: dict[int, int] = {}
    heur_vals = [eng.greedy(c, heur) for c in comps]
    for comp, hv in zip(comps, heur_vals):
        if comp & (comp - 1):
            key = eng.canon(comp)
            lb, ub = eng.bounds_of(comp, key)
            eng.memo[key] = (lb, min(ub, hv))

    try:
        value = max(eng.rank_of(c) for c in comps)
        labels: dict[int, int] = {}
        for comp in comps:
            eng.extract(comp, labels)
    except _BudgetExhausted:
        # a component whose rank_of finished has its value as memo lb
        lb_total = max(eng.memo[eng.canon(c)][0] if c & (c - 1) else 1 for c in comps)
        # greedy gives each component every label 1..its count
        cert = checked(g, [heur[v] for v in range(g.vertex_count)], max(heur_vals))
        return RankResult(lb_total, cert.label_count, "exact", cert,
                          time.monotonic() - start, budget_exhausted=True)
    cert = checked(g, [labels[v] for v in range(g.vertex_count)], value)
    return RankResult(value, value, "exact", cert, time.monotonic() - start)


def rank_decision(g: Graph, k: int, budget: Budget | None = None) -> DecisionOutcome:
    """Search for a ranking within k labels; proven 'no' reported as such."""
    if g.vertex_count == 0:
        raise ValueError("rank_decision needs a nonempty graph")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    start = time.monotonic()
    eng = _Engine(g, budget)
    comps = _components(eng.adj)
    try:
        if not all(eng.feasible(c, k) for c in comps):
            return DecisionOutcome(None, False, time.monotonic() - start)
        labels: dict[int, int] = {}
        for c in comps:
            eng.extract(c, labels, k)
    except _BudgetExhausted:
        return DecisionOutcome(None, True, time.monotonic() - start)
    cert = checked(g, _compress([labels[v] for v in range(g.vertex_count)]))
    if cert.label_count > k:
        raise AssertionError("decision certificate exceeds k labels")
    return DecisionOutcome(cert, False, time.monotonic() - start)
