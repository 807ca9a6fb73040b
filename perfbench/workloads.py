"""Seeded operation lists for the three benchmark workloads.

Every workload is one closed-loop caller: it issues `rankgrid` commands in
order and waits for each reply.  An operation is a dict with the command
`argv` (where the token DIR stands for the pass's scratch directory) and the
parameters the checker needs.  This module imports nothing from rankgrid, so
generating inputs never touches the program's module memos.

Shapes are tuples: ("grid", m, n, sticky) with sticky "" or "right",
("path", n) and ("triangle", s).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DIR = "@DIR@"
WORKLOADS = ("exact-grids", "four-row-certs", "cache-session")

BUDGET_NODES = 10_000

# exact-grids: the solver's hot path.  Automorphism counts run 8 (4x4, 5x5,
# 6x6), 4 (plain 3xn and 4xn), 2 (triangle) and 1 (sticky end), which is what
# the solver's symmetry-canonical memo depends on.  Each solve takes 0.02 to
# 1 s, so a pass is a few seconds and a run holds several; the costs spread
# evenly enough that no percentile falls in a wide gap between two of them.
# Multi-second solves (4x7, 3x10, triangle 6, 4x5 with a sticky end) are left
# out: a pass of them takes 17-20 s, a run holds only two, and their median
# latency jumps between neighbouring solves from run to run.
EXACT_SHAPES = (
    ("grid", 4, 4, ""),
    ("grid", 4, 5, ""),
    ("grid", 4, 6, ""),
    ("grid", 5, 5, ""),
    ("grid", 3, 8, ""),
    ("grid", 3, 9, ""),
    ("triangle", 5),
    ("grid", 4, 4, "right"),
    ("grid", 3, 6, "right"),
)
# two proven "no"s (k one below the rank) and two "yes"es
DECISIONS = (
    (("grid", 4, 5, ""), 7),
    (("grid", 4, 6, ""), 7),
    (("grid", 4, 6, ""), 8),
    (("grid", 4, 7, ""), 9),
)
# budgeted solves that stop with an interval: the long tail past exact reach
BUDGETED_SHAPES = (("grid", 4, 8, ""), ("grid", 4, 9, ""), ("grid", 6, 6, ""))

# four-row-certs: widths of the four-row certificate chains.
FOUR_ROW_MIN, FOUR_ROW_MAX = 9, 4093

# cache-session: small shapes whose solves take a few to a few tens of ms,
# in pairs of about equal solve time and rank.  Set-up writes a seeded one of
# each pair to the cache; the session misses the other (solves and appends
# it), so the seed changes which shapes miss but hardly what misses cost.
CACHE_PAIRS = (
    (("grid", 2, 13, ""), ("grid", 3, 7, "")),
    (("grid", 2, 12, ""), ("grid", 2, 11, "")),
    (("grid", 2, 14, ""), ("grid", 3, 6, "")),
    (("grid", 4, 4, ""), ("path", 64)),
    (("grid", 3, 5, ""), ("path", 48)),
    (("grid", 2, 10, ""), ("path", 40)),
    (("grid", 2, 9, ""), ("grid", 3, 4, "")),
    (("grid", 3, 3, ""), ("grid", 2, 8, "")),
    (("grid", 2, 7, ""), ("path", 32)),
    (("grid", 4, 3, ""), ("path", 24)),
    (("grid", 2, 5, ""), ("grid", 2, 6, "")),
    (("path", 12), ("path", 16)),
)
CACHE_POOL = tuple(s for pair in CACHE_PAIRS for s in pair)
# The session's command mix is chosen, not taken from usage data (there is
# none).  Cache commands (exact, decide) are 60% of it, so the session's
# median latency falls among cache reads, the path that validating records
# on read would slow down.  Each uncached shape and decision misses once and
# is a hit after that, so the pool fixes the writes at 24 per pass.  The
# other commands share the remaining 40% equally.
SESSION_MIX = {
    "exact": 90,
    "decide": 90,
    "formula": 20,
    "bounds": 20,
    "compare": 20,
    "construct": 20,
    "render": 20,
    "inspect": 20,
}
# Four-row runs for the session's constructs, each used in every pass so
# every pass pays the same cold base costs; the seed picks widths inside
# them.  Runs ending at 2^k - 2 are left out: their first use costs a
# one-off ~1 s staircase decision that would dominate a session of
# millisecond commands (four-row-certs covers it).
SESSION_RUNS = {
    "b": ((9, 10), (18, 22), (38, 46)),
    "c": ((11, 12), (23, 26), (47, 54)),
    "ruler": ((15, 17), (31, 37), (63, 77)),
}


def shape_flags(shape: tuple) -> list[str]:
    if shape[0] == "grid":
        _, m, n, sticky = shape
        return ["--grid", f"{m}x{n}"] + (["--sticky", sticky] if sticky else [])
    if shape[0] == "path":
        return ["--path", str(shape[1])]
    return ["--triangle", str(shape[1])]


def four_row_endpoints(hi: int) -> list[int]:
    """Widths where the four-row closed form steps up, from 9 up to hi.

    They are the widths the certificate families build directly:
    2^k - 2, 3*2^(k-1) - 2, 7*2^(k-2) - 2 and the ruler widths 5*2^(k-2) - 3.
    """
    out = set()
    for k in range(3, hi.bit_length() + 2):
        for w in ((1 << k) - 2, 3 * (1 << (k - 1)) - 2, 7 * (1 << (k - 2)) - 2,
                  5 * (1 << (k - 2)) - 3):
            if FOUR_ROW_MIN <= w <= hi:
                out.add(w)
    return sorted(out)


@dataclass
class Plan:
    """One pass's inputs: the operations, and what set-up writes to the cache."""

    ops: list[dict]
    stored_shapes: list[tuple] = field(default_factory=list)
    stored_pairs: list[tuple] = field(default_factory=list)


def generate(workload: str, seed: int, ranks: dict | None = None) -> Plan:
    """The inputs of one pass; the same seed gives the same plan.

    exact-grids is the same for every seed; four-row-certs takes its
    interior widths from the seed and cache-session its whole session.
    cache-session needs `ranks`, the rank number of each CACHE_POOL shape,
    to pick decision thresholds around it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cache-session":
        if ranks is None:
            raise ValueError("cache-session needs the pool's rank numbers")
        return _cache_session(rng, ranks)
    if workload == "exact-grids":
        ops = _exact_grids()
    elif workload == "four-row-certs":
        ops = _four_row_certs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # One mixed order for every seed.  The order alone moved every later
    # exact-grids solve by 15-35% on the same inputs, and it decides which
    # construct pays a family's cold base costs; neither should vary with
    # the seed.
    random.Random(workload).shuffle(ops)
    return Plan(ops)


def _exact_grids() -> list[dict]:
    ops = [{"kind": "exact", "shape": s, "argv": ["exact", *shape_flags(s), "--no-cache"]}
           for s in EXACT_SHAPES]
    ops += [{"kind": "decide", "shape": s, "k": k,
             "argv": ["decide", *shape_flags(s), "--k", str(k), "--no-cache"]}
            for s, k in DECISIONS]
    ops += [{"kind": "exact", "shape": s, "budgeted": True,
             "argv": ["exact", *shape_flags(s), "--budget-nodes", str(BUDGET_NODES),
                      "--no-cache"]}
            for s in BUDGETED_SHAPES]
    return ops


def _four_row_certs(rng: random.Random) -> list[dict]:
    """Every run endpoint in range plus one seeded interior width per run.

    All runs are always present and each interior width lies in the middle
    tenth of its run, so the seed hardly moves the cost of any operation
    and the pass cost stays nearly constant.
    """
    widths = []
    start = FOUR_ROW_MIN
    for end in four_row_endpoints(FOUR_ROW_MAX + 1):
        if end <= FOUR_ROW_MAX:
            widths.append(end)
        top = min(end - 1, FOUR_ROW_MAX)
        if top >= start:
            widths.append(start + round((top - start) * rng.uniform(0.45, 0.55)))
        start = end + 1
    return [_construct(w, f"{DIR}/op{i}.json") for i, w in enumerate(widths)]


def _construct(width: int, out: str) -> dict:
    return {"kind": "construct", "width": width, "out": out,
            "argv": ["construct", "--four-rows", str(width), "--out", out]}


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _cache_session(rng: random.Random, ranks: dict) -> Plan:
    cache = f"{DIR}/cache.jsonl"
    stored, missed = [], []
    for pair in CACHE_PAIRS:
        keep = rng.randrange(2)
        stored.append(pair[keep])
        missed.append(pair[1 - keep])
    stored_pairs = [(s, k) for s in stored for k in range(1, 2 * ranks[s] + 1)]
    missed_pairs = [(s, ranks[s] - 1) for s in missed]

    kinds = [kind for kind, count in SESSION_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    first_render, first_construct = kinds.index("render"), kinds.index("construct")
    if first_render < first_construct:
        kinds[first_render], kinds[first_construct] = "construct", "render"

    # each missed shape and pair appears at least once, so every pass has the
    # same number of misses; the rest are hits on any cached entry
    exact_targets = missed + [rng.choice(CACHE_POOL) for _ in range(SESSION_MIX["exact"] - len(missed))]
    decide_targets = missed_pairs + [
        rng.choice(stored_pairs + missed_pairs)
        for _ in range(SESSION_MIX["decide"] - len(missed_pairs))
    ]
    rng.shuffle(exact_targets)
    rng.shuffle(decide_targets)

    ops: list[dict] = []
    seen = {kind: 0 for kind in SESSION_MIX}
    chains: list[str] = []
    for kind in kinds:
        j = seen[kind]
        seen[kind] += 1
        if kind == "exact":
            s = exact_targets[j]
            ops.append({"kind": "exact", "shape": s,
                        "argv": ["exact", *shape_flags(s), "--cache", cache]})
        elif kind == "decide":
            s, k = decide_targets[j]
            ops.append({"kind": "decide", "shape": s, "k": k,
                        "argv": ["decide", *shape_flags(s), "--k", str(k), "--cache", cache]})
        elif kind == "formula":
            m, n = 1 + j % 4, _log_uniform(rng, 1, 10**6)
            ops.append({"kind": "formula", "m": m, "n": n,
                        "argv": ["formula", "--m", str(m), "--n", str(n)]})
        elif kind == "bounds":
            ops.append(_bounds_op(rng, j))
        elif kind == "compare":
            m = rng.randint(2, 12)
            n = _log_uniform(rng, m, 4000)
            ops.append({"kind": "compare", "m": m, "n": n,
                        "argv": ["compare", "--m", str(m), "--n", str(n)]})
        elif kind == "construct":
            family = ("b", "c", "ruler")[j % 3]
            lo, hi = SESSION_RUNS[family][j // 3 % 3]
            out = f"{DIR}/chain{j}.json"
            chains.append(out)
            ops.append(_construct(rng.randint(lo, hi), out))
        elif kind == "render":
            src = rng.choice(chains)
            ops.append({"kind": "render", "src": src,
                        "argv": ["render", src, "--format", "svg"]})
        else:
            ops.append({"kind": "inspect", "argv": ["cache-inspect", "--cache", cache]})
    return Plan(ops, stored, stored_pairs)


def _bounds_op(rng: random.Random, j: int) -> dict:
    """Square sides cycle through strata so every pass reaches each small
    exact solve at the bottom of the square-lower-bound recursion."""
    if j % 5 == 4:
        s = rng.randint(3, 60)
        return {"kind": "bounds", "triangle": s, "argv": ["bounds", "--triangle", str(s)]}
    stratum = j % 5
    if stratum == 0:
        side = 2 + (j // 5) % 3
    else:
        side = rng.randint(*((5, 10), (11, 20), (21, 60))[stratum - 1])
    n = rng.randint(side, 4 * side)
    return {"kind": "bounds", "m": side, "n": n,
            "argv": ["bounds", "--m", str(side), "--n", str(n)]}
