"""Acceptance gate: one test per shipping criterion, one line each under -v.

The extended tier repeats the expensive exact solves; the default run
must pass without it.
"""

from __future__ import annotations

import math
import random
import re
import time
from pathlib import Path

import pytest

import rankgrid
from rankgrid import bounds, construct, formulas
from rankgrid.graphs import GraphShape, build
from rankgrid.solve import rank_decision, rank_exact
from rankgrid.verify import validate

from conftest import brute_force, decided, random_connected_graph

# right ends of the constant-value runs of the 4-row closed form
_RUN_ENDS = (1, 2, 3, 4, 6, 7, 10, 12, 14, 17, 22, 26, 30, 37, 46, 54, 62, 77, 94, 110)


def test_01_four_row_exact_bases():
    t0 = time.monotonic()
    want = {3: 6, 4: 7, 5: 8, 6: 8}
    for n, value in want.items():
        res = rank_exact(build(GraphShape.grid(4, n)))
        assert res.value == value, f"4x{n}"
        assert validate(res.certificate) is None
    assert time.monotonic() - t0 < 300


def test_02_solver_agrees_with_oracle():
    t0 = time.monotonic()
    rng = random.Random(20260826)
    for i in range(200):
        g = random_connected_graph(rng, rng.randint(2, 8))
        assert rank_exact(g).value == brute_force(g).value, f"graph {i}"
    assert time.monotonic() - t0 < 120


def test_03_path_formula_matches_solver():
    for n in range(1, 21):
        assert formulas.rank_path(n) == rank_exact(build(GraphShape.path(n))).value


def test_04_two_and_three_row_formulas_match_solver():
    for n in range(1, 11):
        assert formulas.rank_2xn(n) == rank_exact(build(GraphShape.grid(2, n))).value
    for n in range(1, 7):
        assert formulas.rank_3xn(n) == rank_exact(build(GraphShape.grid(3, n))).value


def test_05_staircase_base_certificates():
    # double-staircase grids, cheaper alignment class per width
    for width, lam, anti in [(1, 5, False), (2, 6, True), (3, 7, False), (4, 8, True)]:
        out = rank_decision(build(construct.two_sticky_shape(width, anti=anti)), lam)
        assert out.feasible, f"two-sided width {width}"
        assert validate(out.ranking) is None
        assert out.ranking.label_count <= lam
    for width, lam in [(3, 6), (4, 7), (5, 8)]:
        r = decided(construct.one_sticky_shape(width), lam)
        assert validate(r) is None
        assert r.label_count == lam


def test_06_endpoint_and_restriction_certificates():
    chains = {c.width: c for c in construct.run_endpoint_certificates(6)}
    for n in _RUN_ENDS:
        c = chains[n]
        assert c.labels == formulas.rank_4xn(n), f"endpoint {n}"
        assert validate(c.final) is None
    for n in range(9, 65):
        c = construct.four_row_certificate(n)
        assert c.final.label_count <= formulas.rank_4xn(n), f"width {n}"
        assert validate(c.final) is None


def test_07_interval_bracket_and_unit_steps():
    t0 = time.monotonic()
    prev = formulas.rank_4xn(9)
    for n in range(9, 65537):
        value = formulas.rank_4xn(n)
        lower, upper = formulas.bucket_4xn(n)
        assert lower <= value <= upper, f"bracket at {n}"
        assert value - prev in (0, 1), f"step at {n}"
        prev = value
    assert time.monotonic() - t0 < 1


def test_08_discrepancy_report_is_reproducible():
    rows = [(n, formulas.rank_4xn(n), formulas.rank_4xn_recursive(n)) for n in range(9, 4097)]
    assert rows == [(n, formulas.rank_4xn(n), formulas.rank_4xn_recursive(n)) for n in range(9, 4097)]
    mismatched = {n for n, closed, recursive in rows if closed != recursive}
    assert mismatched
    for k in range(4, 12):
        n = 2**k + 2 ** (k - 1) - 2
        assert n in mismatched, f"expected mismatch at {n}"


def test_09_square_lower_bound_suite():
    t0 = time.monotonic()
    assert bounds.square_lower(5) == 6
    for m in range(5, 1001):
        assert math.ceil(bounds.corollary_lower_square(m)) <= bounds.square_lower(m)
    for m in range(5, 10001):  # Appendix H: the first extension holds the next square
        k = (m - 1) // 5 + 2
        assert min(2 * k - 3, -(-(m - k) // 2)) >= -(-2 * m // 5) - 1, m
    assert time.monotonic() - t0 < 60


def test_10_unique_max_and_deletion_bounds():
    rng = random.Random(0xACCE55)
    certs = []
    for _ in range(60):
        certs.append(rank_exact(random_connected_graph(rng, rng.randint(2, 8))).certificate)
    for width, lam in [(3, 6), (4, 7), (5, 8)]:
        certs.append(decided(construct.one_sticky_shape(width), lam))
    certs.extend(c.final for c in construct.run_endpoint_certificates(4))
    certs.extend(construct.triangle_ranking(s) for s in range(1, 9))
    for r in certs:
        assert validate(r) is None
        assert r.labels.count(max(r.labels)) == 1, "max label repeated"

    checked = 0
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(3, 12))
        value = rank_exact(g).value
        for v in range(g.vertex_count):
            sub, _ = g.induced_subgraph([u for u in range(g.vertex_count) if u != v])
            if sub.vertex_count == 0:
                continue
            dropped = rank_exact(sub).value
            assert value - 1 <= dropped <= value, f"deletion bound at vertex {v}"
        checked += 1
    assert checked >= 50


def test_11_triangle_rankings_and_report():
    for s in range(1, 33):
        assert validate(construct.triangle_ranking(s)) is None
    for s in range(1, 7):
        exact = rank_exact(build(GraphShape.triangle(s))).value
        assert construct.triangle_ranking(s).label_count == exact
    # the halving recursion advertises 2s - 2floor(log2(s+1)) + 1 labels,
    # which the exact rank exceeds at s = 4 and the row cuts at s = 7
    claimed = [2 * s - 2 * ((s + 1).bit_length() - 1) + 1 for s in range(1, 33)]
    achieved = [construct.triangle_ranking(s).label_count for s in range(1, 33)]
    assert min(claimed) >= 1
    assert (claimed[3], achieved[3]) == (5, 6) and achieved[6] > claimed[6]


def test_12_every_public_name_is_in_the_readme():
    # rankgrid.__all__ holds only documented entry points: each is named
    # inside a backtick span of README.md
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = {word for span in re.findall(r"`([^`\n]+)`", text) for word in re.findall(r"[A-Za-z_]\w*", span)}
    assert sorted(set(rankgrid.__all__) - named) == []


@pytest.mark.extended
def test_extended_four_rows_seven():
    res = rank_exact(build(GraphShape.grid(4, 7)))
    assert res.value == 9


@pytest.mark.extended
def test_extended_four_rows_eight():
    res = rank_exact(build(GraphShape.grid(4, 8)))
    assert res.value == 10


@pytest.mark.extended
def test_extended_four_rows_nine():
    res = rank_exact(build(GraphShape.grid(4, 9)))
    assert res.value == formulas.rank_4xn(9)


@pytest.mark.extended
def test_extended_four_rows_ten():
    res = rank_exact(build(GraphShape.grid(4, 10)))
    assert res.value == formulas.rank_4xn(10)


@pytest.mark.extended
def test_extended_square_six_exact():
    res = rank_exact(build(GraphShape.grid(6, 6)))
    assert res.value == 11
    assert validate(res.certificate) is None and res.certificate.label_count == 11
    assert bounds.square_lower(6) == 9 and bounds.alpert_upper(6, 6) == 13


@pytest.mark.extended
def test_extended_square_five_exact():
    exact = rank_exact(build(GraphShape.grid(5, 5))).value
    assert bounds.square_lower(5) <= exact
