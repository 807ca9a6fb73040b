"""Upper and lower bound evaluators for grid rank numbers.

Two constructive upper bounds for ``G_{m,n}``: the halving bound (rank a
separator column, recurse on the wider half) and the diagonal bound (cut
along a staircase diagonal, pay for a glued corner ranking once).  Lower
bounds come from the square-subgrid recursion and its rational corollaries.
Each evaluator returns a plain value: an int, a Fraction, None where no
bound is built, and for compare_upper the dict that ``compare`` prints.
All of it is arithmetic except three table reads: the square recursion
below side 5 reads exact values from solve.grid_rank, the diagonal bound
reads the corner's rank from solve.solved(construct.corner_shape(m)), the
corner construct.diagonal_cut places, and the stacked triangle bound reads
the row-cut table construct._row_cuts, which construct.triangle_ranking
follows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from . import formulas
from .construct import _row_cuts, corner_shape
from .solve import grid_rank, solved

__all__ = [
    "alpert_upper",
    "tri_bound",
    "diagonal_upper",
    "compare_upper",
    "square_lower",
    "corollary_lower_square",
    "corollary_lower_tri",
]


@cache
def _best_known(m: int, n: int) -> int:
    """Value used for the r(m, n) sub-instances inside the recurrences.

    Exact wherever a closed form exists (the short side at most 4),
    otherwise one more halving step.
    """
    if min(m, n) <= 4:
        return formulas.rank_formula(min(m, n), max(m, n))
    return m + _best_known(m, n // 2)


def alpert_upper(m: int, n: int) -> int:
    """Halving upper bound: rank one column with m fresh labels, recurse.

    The recurrence is ``r(m, n) <= m + r(m, ceil((n - 1) / 2))``; the
    sub-instance is evaluated exactly when a closed form applies.  Degenerate
    single-row or single-column grids are paths and get the path value
    directly.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if m == 1 or n == 1:
        return _best_known(m, n)
    return m + _best_known(m, n // 2)


def tri_bound(m: int) -> int:
    """Label count of the stacked-row triangle ranking with m rows.

    This is the row-cut ranking that construct.triangle_ranking builds and
    validates for m >= 7; below that it is at least the exact value.  It
    reads entry 0 of construct._row_cuts(m), the table's column for end
    row m.  Every side shares the columns and a process fills each once,
    so a cold side m costs O(m^3) steps (about 7 ms at m = 60, best of 5
    fresh processes, 2-vCPU host, CPython 3.11.7) and any side below it
    then costs nothing more.
    """
    if m < 1:
        raise ValueError("triangle side must be positive")
    return _row_cuts(m)[0][0]


# diagonal_upper is on the paths that print values, so it must not pay for
# a slow solve: rank_exact solves the glued corner cold in 0.015 s at m = 5,
# 0.21 s at m = 6 and 8.1 s at m = 7 (2-vCPU host, CPython 3.11.7)
_CORNER_MAX_M = 5


def diagonal_upper(m: int, n: int) -> int | None:
    """Diagonal-cut upper bound: the label count of construct.diagonal_cut.

    Evaluates ``m + c(m) + r(m, ceil((n - m) / 2) - 1)``, where c(m) is the
    rank of solve.solved(corner_shape(m)) and the inner grid takes the same
    sub-instance value as :func:`alpert_upper`.  None where no cut is
    built: n < m + 2 leaves no room, one row has no corner, and corners
    past _CORNER_MAX_M rows are not solved here.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if not 2 <= m <= _CORNER_MAX_M or n < m + 2:
        return None
    inner = -(-(n - m) // 2) - 1
    rest = _best_known(m, inner) if inner > 0 else 0
    return m + solved(corner_shape(m)).label_count + rest


def compare_upper(m: int, n: int) -> dict[str, object]:
    """Both upper bounds and the strictly smaller one, as ``compare`` prints them.

    Keys m, n, alpert, diagonal and tighter, which is "alpert", "diagonal"
    or "tie"; where no diagonal cut is built (see diagonal_upper) diagonal
    is None and the halving bound wins by default.
    """
    a = alpert_upper(m, n)
    d = diagonal_upper(m, n)
    if d is None or a < d:
        tighter = "alpert"
    elif d < a:
        tighter = "diagonal"
    else:
        tighter = "tie"
    return {"m": m, "n": n, "alpert": a, "diagonal": d, "tighter": tighter}


@cache
def square_lower(m: int) -> int:
    """Lower bound for the m x m grid via the square-subgrid recursion.

    ``r(m, m) >= m + r(s, s)`` with ``s = ceil(2m/5) - 1``; the recursion
    runs while the side is at least 5 and finishes with the small
    remainder's exact value from ``grid_rank``.  The reported value is
    rounded up to the rational corollary wherever that is tighter (first
    at m=14, where the bare chain 14 -> 5 -> 1 loses ground to rounding),
    so the result is always the best lower bound this module can certify.
    """
    if m < 1:
        raise ValueError("side must be positive")
    if m < 5:
        return grid_rank(m, m)
    recursive = m + square_lower(-(-2 * m // 5) - 1)
    return max(recursive, math.ceil(corollary_lower_square(m)), 1)


def corollary_lower_square(m: int) -> Fraction:
    """Closed-form rational lower bound 5m/3 - 25/9 for the m x m grid.

    Callers round up and clamp to >= 1; small m go negative.
    """
    return Fraction(5 * m, 3) - Fraction(25, 9)


def corollary_lower_tri(n: int) -> Fraction:
    """Closed-form rational lower bound (5/3)*floor(n/2) - 34/9 for tri_n."""
    return Fraction(5, 3) * (n // 2) - Fraction(34, 9)
