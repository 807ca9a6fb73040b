"""Closed forms for 1..4 rows and the interval bracket around the 4-row one."""

from __future__ import annotations

import pytest

from rankgrid import formulas
from rankgrid.graphs import GraphShape, build
from rankgrid.solve import rank_exact


def test_path_values():
    assert [formulas.rank_path(n) for n in range(1, 9)] == [1, 2, 2, 3, 3, 3, 3, 4]
    assert formulas.rank_path(2**10 - 1) == 10
    assert formulas.rank_path(2**10) == 11


def test_two_rows_known_values():
    want = [2, 3, 4, 4, 5, 5, 6, 6, 6, 6]
    assert [formulas.rank_2xn(n) for n in range(1, 11)] == want


def test_three_rows_known_values():
    want = [2, 4, 5, 6, 6, 7, 7]
    assert [formulas.rank_3xn(n) for n in range(1, 8)] == want


def test_three_rows_special_widths_pay_four():
    # widths where the recurrence pays 4 instead of 3
    for n in (16, 17, 68, 69, 276, 277):
        assert formulas.rank_3xn(n) == 4 + formulas.rank_3xn((n - 2) // 2), n
    for n in (15, 18, 67, 70, 275, 278):
        assert formulas.rank_3xn(n) == 3 + formulas.rank_3xn((n - 2) // 2), n


def test_rank_formula_dispatches_by_rows():
    forms = (formulas.rank_path, formulas.rank_2xn, formulas.rank_3xn, formulas.rank_4xn)
    for m, form in enumerate(forms, start=1):
        assert [formulas.rank_formula(m, n) for n in range(1, 40)] == [
            form(n) for n in range(1, 40)
        ]
    for m in (0, 5):
        with pytest.raises(ValueError):
            formulas.rank_formula(m, 3)


def test_four_rows_base_table():
    assert [formulas.rank_4xn(n) for n in range(1, 9)] == [3, 4, 6, 7, 8, 8, 9, 10]


def test_four_rows_small_table_matches_solver():
    for n in range(1, 9):
        assert formulas.rank_4xn(n) == rank_exact(build(GraphShape.grid(4, n))).value


def test_four_rows_closed_examples():
    assert formulas.rank_4xn(9) == 10
    assert formulas.rank_4xn(13) == 12
    assert formulas.rank_4xn(14) == 12
    assert formulas.rank_4xn(37) == 17
    assert formulas.rank_4xn(110) == 23
    assert formulas.rank_4xn(111) == 24


def test_four_rows_monotone_with_unit_steps():
    # below width 9 the table jumps by 2 once (n=2 to n=3); from there on
    # every step is 0 or 1
    prev = formulas.rank_4xn(1)
    for n in range(2, 5000):
        cur = formulas.rank_4xn(n)
        assert cur >= prev, n
        if n > 8:
            assert cur - prev in (0, 1), n
        prev = cur


def test_bucket_brackets_and_width():
    for n in range(9, 4097):
        lower, upper = formulas.bucket_4xn(n)
        assert upper - lower == 1
        assert lower <= formulas.rank_4xn(n) <= upper, n


def test_bucket_cut_positions():
    # 12 closes the last window of k = 3; 13 opens and 16 closes window 0
    # of k = 4, 17 opens its window 1, and 29 opens window 0 of k = 5
    brackets = {12: (11, 12), 13: (12, 13), 16: (12, 13), 17: (13, 14), 29: (16, 17)}
    assert {n: formulas.bucket_4xn(n) for n in brackets} == brackets


def test_recursive_form_matches_closed_mostly():
    same = sum(
        1 for n in range(9, 300)
        if formulas.rank_4xn_recursive(n) == formulas.rank_4xn(n)
    )
    assert same > 250


def test_discrepancy_report_documented_rows():
    # (n, closed form, halving recursion) wherever the two disagree
    rows = [(n, formulas.rank_4xn(n), formulas.rank_4xn_recursive(n)) for n in range(9, 4097)]
    rows = [row for row in rows if row[1] != row[2]]
    assert rows[0] == (10, 10, 11)
    assert (18, 14, 13) in rows
    assert (22, 14, 15) in rows
    assert (38, 18, 17) in rows
    # the family called out in rank_4xn_recursive: n = 2^k + 2^(k-1) - 2
    for k in (4, 5, 6, 7):
        n = 2**k + 2 ** (k - 1) - 2
        assert any(row[0] == n for row in rows), n


def test_discrepancy_report_is_reproducible():
    a, b = ([n for n in range(9, 513) if formulas.rank_4xn(n) != formulas.rank_4xn_recursive(n)]
            for _ in range(2))
    assert a and a == b


def test_preconditions():
    with pytest.raises(ValueError):
        formulas.rank_path(0)
    with pytest.raises(ValueError):
        formulas.rank_2xn(0)
    with pytest.raises(ValueError):
        formulas.rank_3xn(-3)
    with pytest.raises(ValueError):
        formulas.rank_4xn(0)
    with pytest.raises(ValueError):
        formulas.bucket_4xn(4)
