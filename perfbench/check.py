"""Correctness checks on the outputs of a pass, run after the pass ends.

The ranking check here is the benchmark's own: it derives the edges from the
vertex coordinates and re-checks every label list with a separate union-find
pass, so a defect in `rankgrid.verify` or `rankgrid.graphs` cannot vouch for
itself.  Reference values come from the closed forms for grids with at most
four rows and from the values the first released version of the solver
computed for three shapes without a closed form.  The closed forms are a
frozen copy of the first released `rankgrid.formulas`, written out here, so a
change to the program's formulas is checked against the old values instead
of moving the reference with it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from workloads import Plan, four_row_endpoints

# Exact values with no closed form, as the solver first computed them.
KNOWN_RANKS = {
    ("grid", 5, 5, ""): 9,
    ("triangle", 5): 8,
    ("triangle", 6): 9,
    ("grid", 4, 4, "right"): 7,
    ("grid", 3, 6, "right"): 7,
    ("grid", 4, 5, "right"): 8,
}


def graph_shape(shape: tuple):
    """The rankgrid GraphShape for a benchmark shape tuple."""
    from rankgrid.graphs import GraphShape, StickyEnd

    if shape[0] == "grid":
        _, m, n, sticky = shape
        return GraphShape.grid(m, n, (StickyEnd(sticky, "bottom"),) if sticky else ())
    if shape[0] == "path":
        return GraphShape.path(shape[1])
    return GraphShape.triangle(shape[1])


# Base values of the closed forms below their recurrences, as the first
# released rankgrid.formulas gives them (widths 1, 2, ...).
BASES_2XN = (2, 3, 4)
BASES_3XN = (2, 4, 5, 6, 6)
BASES_4XN = (3, 4, 6, 7, 8, 8, 9, 10)


def closed_form(rows: int, cols: int) -> int | None:
    """Rank of the rows x cols grid by the frozen closed forms, or None past four rows."""
    rows, cols = min(rows, cols), max(rows, cols)
    if rows > 4:
        return None
    return (_rank_path, _rank_2xn, _rank_3xn, _rank_4xn)[rows - 1](cols)


def _rank_path(n: int) -> int:
    return n.bit_length()


def _rank_2xn(n: int) -> int:
    return BASES_2XN[n - 1] if n <= 3 else 2 + _rank_2xn((n - 1) // 2)


def _rank_3xn(n: int) -> int:
    if n <= 5:
        return BASES_3XN[n - 1]
    # widths 15*4^k + 7*(4^k - 1)/3 + {1, 2} pay 4 instead of 3
    k, special = 0, False
    while not special and 15 * 4**k + 7 * (4**k - 1) // 3 + 1 <= n:
        special = n - (15 * 4**k + 7 * (4**k - 1) // 3) in (1, 2)
        k += 1
    return (4 if special else 3) + _rank_3xn((n - 2) // 2)


def _rank_4xn(n: int) -> int:
    if n <= 8:
        return BASES_4XN[n - 1]
    # widths 2^k + 2^(k-2) - 2 and - 1 give 4k - 2
    for off in (2, 1):
        k = (n + off).bit_length() - 1
        if k >= 3 and n + off == (1 << k) + (1 << (k - 2)):
            return 4 * k - 2
    t = n + 1
    s = t.bit_length()
    return 4 * (s - 1) - 3 + 2 * ((t >> (s - 2)) & 1) + ((t >> (s - 3)) & 1)


def reference_rank(shape: tuple) -> int | None:
    if shape in KNOWN_RANKS:
        return KNOWN_RANKS[shape]
    if shape[0] == "path":
        return closed_form(1, shape[1])
    if shape[0] == "grid" and not shape[3]:
        return closed_form(shape[1], shape[2])
    return None


def expected_coords(shape: tuple) -> set[tuple[int, int]]:
    """Vertex positions of a shape, derived independently of rankgrid.graphs."""
    if shape[0] == "path":
        return {(0, c) for c in range(shape[1])}
    if shape[0] == "triangle":
        return {(r, c) for r in range(shape[1]) for c in range(r + 1)}
    _, m, n, sticky = shape
    cells = {(r, c) for r in range(m) for c in range(n)}
    if sticky == "right":
        cells |= {(r, n - 1 + j) for j in range(1, m) for r in range(j, m)}
    return cells


def adjacency(coords: list, triangle: bool = False) -> list[list[int]]:
    """Neighbour lists from positions: unit steps, plus the down-right
    diagonal in triangle grids."""
    index = {tuple(rc): i for i, rc in enumerate(coords)}
    steps = ((0, 1), (1, 0), (1, 1)) if triangle else ((0, 1), (1, 0))
    adj: list[list[int]] = [[] for _ in coords]
    for i, (r, c) in enumerate(coords):
        for dr, dc in steps:
            j = index.get((r + dr, c + dc))
            if j is not None:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def find_violation(labels: list, adj: list[list[int]]) -> str | None:
    """None when labels rank the graph, else a description of the fault.

    Vertices join a union-find forest in order of label; two vertices with
    the same label in one component of the labels-at-most-c subgraph are a
    path between equal labels with no larger label on it.
    """
    n = len(adj)
    if len(labels) != n:
        return f"{len(labels)} labels for {n} vertices"
    if any(type(l) is not int or l < 1 for l in labels):
        return "labels must be positive integers"
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = sorted(range(n), key=labels.__getitem__)
    joined = [False] * n
    i = 0
    while i < n:
        level = labels[order[i]]
        j = i
        while j < n and labels[order[j]] == level:
            j += 1
        group = order[i:j]
        for v in group:
            joined[v] = True
            for w in adj[v]:
                if joined[w]:
                    parent[root(v)] = root(w)
        owner: dict[int, int] = {}
        for v in group:
            r = root(v)
            if r in owner:
                return f"label {level} on vertices {owner[r]} and {v} with no larger label between"
            owner[r] = v
        i = j
    return None


@dataclass
class References:
    """What the checker compares against, computed in the parent process."""

    ranks: dict = field(default_factory=dict)    # shape -> rank or None
    coords: dict = field(default_factory=dict)   # shape -> vertex order of rankgrid.graphs.build

    @classmethod
    def for_plan(cls, plan: Plan) -> "References":
        from rankgrid.graphs import build

        shapes = {op["shape"] for op in plan.ops if "shape" in op}
        shapes.update(plan.stored_shapes)
        return cls(
            ranks={s: reference_rank(s) for s in shapes},
            coords={s: [tuple(rc) for rc in build(graph_shape(s)).coords] for s in shapes},
        )


@dataclass
class PassCheck:
    failures: list[str] = field(default_factory=list)
    certificates: int = 0
    interval_gap: int = 0


class Checker:
    """Checks each operation's reply; tracks what the session's cache holds."""

    def __init__(self, plan: Plan, refs: References) -> None:
        self.plan = plan
        self.refs = refs
        self._adj = {s: adjacency(c, s[0] == "triangle") for s, c in refs.coords.items()}

    def check_pass(self, records: list[dict], read_output: Callable[[str], str | None]) -> PassCheck:
        """records[i] is op i's reply; read_output gives the text of an op's
        --out file (by its path in the plan), or None if it is missing."""
        result = PassCheck()
        self._exact_held = set(self.plan.stored_shapes)
        self._pairs_held = set(self.plan.stored_pairs)
        self._chain_labels: dict[str, list[int]] = {}
        for i, (op, rec) in enumerate(zip(self.plan.ops, records)):
            try:
                problem = self._check(op, rec, read_output, result)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                problem = f"malformed reply: {exc!r}"
            if problem:
                result.failures.append(f"op {i} {' '.join(op['argv'])}: {problem}")
        return result

    def _check(self, op: dict, rec: dict, read_output: Callable[[str], str | None],
               result: PassCheck) -> str | None:
        if rec.get("error"):
            return "raised " + rec["error"].strip().splitlines()[-1]
        if "Traceback" in rec["stderr"]:
            return "traceback on stderr"
        kind = op["kind"]
        if kind == "construct":
            return self._construct(op, rec, read_output(op["out"]), result)
        if kind == "render":
            return self._render(op, rec)
        want_rc = 2 if op.get("budgeted") else 0
        if rec["rc"] != want_rc:
            return f"exit code {rec['rc']}, expected {want_rc}"
        reply = json.loads(rec["stdout"])
        return getattr(self, "_" + kind)(op, reply, result)

    def _ranking(self, shape: tuple, labels: list) -> str | None:
        coords = self.refs.coords[shape]
        if set(coords) != expected_coords(shape) or len(coords) != len(set(coords)):
            return "vertex positions differ from the shape"
        return find_violation(labels, self._adj[shape])

    def _exact(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        shape = op["shape"]
        if "--cache" in op["argv"]:
            self._exact_held.add(shape)
        ref = self.refs.ranks[shape]
        labels = reply["labels"]
        result.certificates += 1
        if op.get("budgeted"):
            lb, ub = reply["interval"]
            result.interval_gap += ub - lb
            if reply["budget_exhausted"] is not True:
                return "budget not reported as exhausted"
            if not lb <= ub or (ref is not None and not lb <= ref <= ub):
                return f"interval [{lb}, {ub}] excludes {ref}"
            top = ub
        else:
            top = reply["value"]
            if top != ref:
                return f"value {top}, expected {ref}"
        bad = self._ranking(shape, labels)
        if bad:
            return bad
        if max(labels) != top:
            return f"certificate uses {max(labels)} labels, reply says {top}"
        return None

    def _decide(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        shape, k = op["shape"], op["k"]
        want = k >= self.refs.ranks[shape]
        if "--cache" in op["argv"]:
            self._pairs_held.add((shape, k))
        if reply["feasible"] is not want or reply["proven"] is not True:
            return f"feasible={reply['feasible']} proven={reply['proven']}, expected {want}"
        if not want:
            return None if reply["labels"] is None else "labels on a proven 'no'"
        result.certificates += 1
        bad = self._ranking(shape, reply["labels"])
        if bad:
            return bad
        if max(reply["labels"]) > k:
            return f"certificate uses {max(reply['labels'])} > {k} labels"
        return None

    def _formula(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        ref = closed_form(op["m"], op["n"])
        if reply["value"] != ref:
            return f"value {reply['value']}, expected {ref}"
        bucket = reply["bucket"]
        if bucket is not None and not bucket[0] <= ref <= bucket[1]:
            return f"bucket {bucket} excludes {ref}"
        return None

    def _bounds(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        if "triangle" in op:
            lower = ceil(Fraction(reply["lower"]["cor2"]))
            upper = reply["upper"]["stacked"]
            ref = KNOWN_RANKS.get(("triangle", op["triangle"]))
        else:
            lower = max(reply["lower"]["thm2"], ceil(Fraction(reply["lower"]["cor1"])))
            ups = [reply["upper"]["alpert"], reply["upper"]["diagonal"]]
            upper = min(u for u in ups if u is not None)
            ref = closed_form(op["m"], op["n"])
        return _bracket(lower, upper, ref)

    def _compare(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        a, d = reply["alpert"], reply["diagonal"]
        want = "alpert" if d is None or a < d else "diagonal" if d < a else "tie"
        if reply["tighter"] != want:
            return f"tighter={reply['tighter']} for alpert={a} diagonal={d}"
        return _bracket(1, min(a, d if d is not None else a), closed_form(op["m"], op["n"]))

    def _inspect(self, op: dict, reply: dict, result: PassCheck) -> str | None:
        exact, pairs = len(self._exact_held), len(self._pairs_held)
        got = (reply["entries"], reply["exact"], reply["decisions"])
        if got != (exact + pairs, exact, pairs):
            return f"entries/exact/decisions {got}, expected {(exact + pairs, exact, pairs)}"
        return None

    def _construct(self, op: dict, rec: dict, text: str | None, result: PassCheck) -> str | None:
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}, expected 0"
        if text is None:
            return "no output file"
        data = json.loads(text)
        n = op["width"]
        graph = data["graph"]
        coords = [tuple(rc) for rc in graph["coords"]]
        if set(coords) != expected_coords(("grid", 4, n, "")) or len(coords) != 4 * n:
            return "graph is not the 4 x n grid"
        adj = adjacency(coords)
        edges = {(min(u, v), max(u, v)) for u, v in graph["edges"]}
        if edges != {(u, v) for u, ws in enumerate(adj) for v in ws if u < v}:
            return "graph edges are not the grid's edges"
        labels = data["ranking"]["labels"]
        result.certificates += 1
        bad = find_violation(labels, adj)
        if bad:
            return bad
        self._chain_labels[op["out"]] = labels
        ref = closed_form(4, n)
        end = next(e for e in four_row_endpoints(2 * n + 2) if e >= n)
        top = closed_form(4, end)
        if n == end and max(labels) != ref:
            return f"endpoint chain uses {max(labels)} labels, closed form {ref}"
        return _bracket(ref, top, max(labels))

    def _render(self, op: dict, rec: dict) -> str | None:
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}, expected 0"
        svg = rec["stdout"]
        labels = self._chain_labels[op["src"]]
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "not an svg document"
        if svg.count("<circle") != len(labels):
            return f"{svg.count('<circle')} vertices drawn, chain has {len(labels)}"
        legend = "labels " + "  ".join(f"{l}:{labels.count(l)}" for l in sorted(set(labels)))
        if legend not in svg:
            return "legend does not match the chain's labels"
        return None


def _bracket(lower: int, upper: int, value: int | None) -> str | None:
    if lower > upper or (value is not None and not lower <= value <= upper):
        return f"[{lower}, {upper}] does not bracket {value}"
    return None
