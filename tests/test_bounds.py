"""Upper and lower estimates for wide grids and squares."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from rankgrid import bounds, construct, formulas, solve
from rankgrid.graphs import GraphShape, build
from rankgrid.solve import rank_exact
from rankgrid.verify import validate


def test_alpert_upper_values():
    assert bounds.alpert_upper(1, 7) == 3
    assert bounds.alpert_upper(3, 7) == 8
    assert bounds.alpert_upper(4, 9) == 11
    assert bounds.alpert_upper(4, 20) == 14


def test_alpert_upper_is_orientation_specific():
    # the estimate pays m and halves the columns, so it is a bound for
    # m rows specifically; the transposed call is a different estimate
    assert bounds.alpert_upper(1, 1) == 1
    assert bounds.alpert_upper(2, 9) == 6
    assert bounds.alpert_upper(9, 2) == 13
    for m, n in [(2, 9), (3, 12), (4, 15)]:
        assert bounds.alpert_upper(m, n) <= bounds.alpert_upper(n, m)


def test_alpert_upper_always_unrolls_once():
    # even when a closed form covers (m, n) directly the top level
    # recurses once, so narrow grids can exceed the formula value
    assert bounds.alpert_upper(4, 9) == 4 + formulas.rank_4xn(4)
    assert formulas.rank_4xn(9) == 10


def test_tri_bound_values():
    want = [1, 3, 4, 6, 8, 11, 13, 16]
    assert [bounds.tri_bound(m) for m in range(1, 9)] == want
    # from side 7 up the bound is the label count of the ranking that
    # triangle_ranking builds and validates
    for m in (7, 10, 16):
        assert bounds.tri_bound(m) == construct.triangle_ranking(m).label_count
    with pytest.raises(ValueError):
        bounds.tri_bound(0)


def test_tri_bound_is_at_least_the_exact_rank():
    for s in range(1, 6):
        exact = rank_exact(build(GraphShape.triangle(s))).value
        assert bounds.tri_bound(s) >= exact


def test_diagonal_upper_values():
    assert bounds.diagonal_upper(4, 20) == 18
    assert bounds.diagonal_upper(5, 20) == 23
    assert bounds.diagonal_upper(4, 14) == 16
    assert bounds.diagonal_upper(3, 7) == 9
    assert bounds.diagonal_upper(2, 4) == 4


def test_diagonal_upper_matches_the_built_cut():
    # every printed diagonal value with an exact inner grid (q <= 4) is the
    # label count of a cut that is built and validated; with the halving
    # value for the inner grid (m = 5, q >= 5) the same count is built
    # from a vertical cut of the solved half
    walk = [(m, n) for m in range(2, 6) for n in range(m + 2, m + 11)]
    for m, n in walk + [(5, 16), (5, 17), (5, 18)]:
        q = (n - m + 1) // 2 - 1
        if q > 4:
            inner = construct.vertical_cut(m, q, solve.solved(GraphShape.grid(m, q // 2)))
        else:
            inner = solve.solved(GraphShape.grid(m, q)) if q else None
        cut = construct.diagonal_cut(m, n, inner, solve.solved(construct.corner_shape(m)))
        assert validate(cut) is None
        assert bounds.diagonal_upper(m, n) == cut.label_count, (m, n)
        assert bounds.compare_upper(m, n)["diagonal"] == cut.label_count


def test_diagonal_upper_needs_room():
    # None wherever no cut is built: no room, no corner, or no solved corner
    assert bounds.diagonal_upper(4, 5) is None
    assert bounds.diagonal_upper(3, 3) is None
    assert bounds.diagonal_upper(3, 5) == 7
    assert all(bounds.diagonal_upper(1, n) is None for n in range(1, 41))
    assert all(bounds.diagonal_upper(m, 40) is None for m in range(6, 13))
    for m, n in [(0, 5), (3, 0)]:
        with pytest.raises(ValueError):
            bounds.diagonal_upper(m, n)


def test_compare_upper_reports():
    assert bounds.compare_upper(4, 20) == {
        "m": 4, "n": 20, "alpert": 14, "diagonal": 18, "tighter": "alpert"}
    assert bounds.compare_upper(5, 20) == {
        "m": 5, "n": 20, "alpert": 20, "diagonal": 23, "tighter": "alpert"}
    assert bounds.compare_upper(4, 6) == {
        "m": 4, "n": 6, "alpert": 10, "diagonal": 9, "tighter": "diagonal"}


def test_compare_upper_without_diagonal():
    rep = bounds.compare_upper(4, 5)
    assert rep["diagonal"] is None
    assert rep["tighter"] == "alpert"


def test_compare_upper_consistent_over_sweep():
    for m in range(1, 13):
        for n in range(1, 80):
            rep = bounds.compare_upper(m, n)
            a, d = rep["alpert"], rep["diagonal"]
            assert a == bounds.alpert_upper(m, n)
            assert d == bounds.diagonal_upper(m, n)
            assert (rep["m"], rep["n"]) == (m, n)
            if d is None or a < d:
                assert rep["tighter"] == "alpert"
            elif a > d:
                assert rep["tighter"] == "diagonal"
            else:
                assert rep["tighter"] == "tie"


def test_square_lower_small_sides_are_exact():
    assert [bounds.square_lower(m) for m in range(1, 5)] == [1, 3, 5, 7]


def test_square_lower_known_values():
    assert bounds.square_lower(5) == 6
    assert bounds.square_lower(9) == 14
    assert bounds.square_lower(10) == 15
    assert bounds.square_lower(25) == 39


def test_square_lower_takes_best_certified_bound():
    # at side 14 the recursion alone gives 14 + square_lower(5) = 20,
    # one short of the rounded corollary; the reported bound keeps 21
    assert 14 + bounds.square_lower(5) == 20
    assert math.ceil(bounds.corollary_lower_square(14)) == 21
    assert bounds.square_lower(14) == 21


def test_square_lower_dominates_corollary():
    for m in range(5, 1001):
        assert bounds.square_lower(m) >= math.ceil(bounds.corollary_lower_square(m))


def test_square_lower_below_upper():
    for m in range(5, 61):
        assert bounds.square_lower(m) <= bounds.alpert_upper(m, m)


def test_square_lower_rejects_bad_side():
    with pytest.raises(ValueError):
        bounds.square_lower(0)


def test_corollary_lower_square():
    assert bounds.corollary_lower_square(10) == Fraction(125, 9)
    assert bounds.corollary_lower_square(14) == Fraction(185, 9)
    # exact fractions, no float drift
    assert isinstance(bounds.corollary_lower_square(7), Fraction)


def test_corollary_lower_tri():
    assert bounds.corollary_lower_tri(10) == Fraction(41, 9)
    # small sides drop below zero; callers clamp, the formula does not
    assert bounds.corollary_lower_tri(3) == Fraction(-19, 9)


# The square lower bound's subgrid family for m and k: the base subgrid
# (m, y0), y0 = ceil((m - k)/2), then the extensions (2k - 3 - 2t, y0 + t)
# for t = 0..k-2, each trading two rows for one column.


def test_subgrid_family_members():
    for m, k, members in [(10, 4, [(10, 3), (5, 3), (3, 4), (1, 5)]),
                          (5, 2, [(5, 2), (1, 2)]), (10, 2, [(10, 4), (1, 4)])]:
        y0 = -(-(m - k) // 2)
        assert [(m, y0)] + [(2 * k - 3 - 2 * t, y0 + t) for t in range(k - 1)] == members
        assert 2 <= k <= (m + 2) // 3


def test_subgrid_family_extension_law():
    # widths shrink by 2 while heights grow by 1, down to width 1
    for m, k in [(12, 3), (20, 5), (31, 8)]:
        y0 = -(-(m - k) // 2)
        tail = [(2 * k - 3 - 2 * t, y0 + t) for t in range(k - 1)]
        assert tail[0] == (2 * k - 3, y0) and tail[-1][0] == 1
        for (w0, h0), (w1, h1) in zip(tail, tail[1:]):
            assert (w1, h1) == (w0 - 2, h0 + 1)


def test_subgrid_family_regime_flag():
    # the argument needs 2 <= k <= floor((m + 2)/3)
    assert [2 <= k <= (10 + 2) // 3 for k in (4, 5, 1)] == [True, False, False]


def test_check_app_h_witnesses():
    # Appendix H: at k = floor((m-1)/5) + 2 the first extension
    # (2k - 3, ceil((m - k)/2)) holds the square of side ceil(2m/5) - 1
    # that square_lower recurses onto
    for m, witness in [(13, (4, (5, 5), 5)), (11, (4, (5, 4), 4)), (15, (4, (5, 6), 5))]:
        k = (m - 1) // 5 + 2
        dims, target = (2 * k - 3, -(-(m - k) // 2)), -(-2 * m // 5) - 1
        assert (k, dims, target) == witness
        assert min(dims) >= target
        assert bounds.square_lower(m) >= m + bounds.square_lower(target)


def test_check_app_h_holds_everywhere():
    for m in range(5, 10001):
        k = (m - 1) // 5 + 2
        assert min(2 * k - 3, -(-(m - k) // 2)) >= -(-2 * m // 5) - 1, m


def test_square_lower_sandwich_small():
    for m in range(1, 5):
        exact = rank_exact(build(GraphShape.grid(m, m))).value
        assert bounds.square_lower(m) == exact


@pytest.mark.extended
def test_square_lower_sandwich_side_five():
    exact = rank_exact(build(GraphShape.grid(5, 5))).value
    assert bounds.square_lower(5) <= exact
