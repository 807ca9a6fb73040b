"""Tests of the benchmark's own correctness checker.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import Checker, References, adjacency, closed_form, find_violation  # noqa: E402
from workloads import CACHE_POOL, DIR, WORKLOADS, Plan, generate  # noqa: E402

GRID_2X3 = ("grid", 2, 3, "")
COORDS_2X3 = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
# a 4-ranking of the 2x3 grid, whose rank number is 4
LABELS_2X3 = [1, 3, 1, 2, 4, 2]


def _reply(payload: dict, rc: int = 0) -> dict:
    return {"rc": rc, "stdout": json.dumps(payload), "stderr": "", "error": None}


def _exact_checker(**op) -> Checker:
    plan = Plan([{"kind": "exact", "shape": GRID_2X3,
                  "argv": ["exact", "--grid", "2x3", "--no-cache"], **op}])
    return Checker(plan, References(ranks={GRID_2X3: 4}, coords={GRID_2X3: COORDS_2X3}))


def _failures(checker: Checker, record: dict, files: dict | None = None) -> list[str]:
    return checker.check_pass([record], (files or {}).get).failures


class FindViolation(unittest.TestCase):
    def test_accepts_a_ranking(self):
        self.assertIsNone(find_violation(LABELS_2X3, adjacency(COORDS_2X3)))

    def test_flags_equal_labels_joined_below_them(self):
        tampered = [1, 1, 1, 2, 4, 2]
        self.assertIn("label 1", find_violation(tampered, adjacency(COORDS_2X3)))

    def test_flags_a_path_through_smaller_labels(self):
        # the two 2s on the top row meet through the 1 between them
        tampered = [2, 1, 2, 3, 4, 3]
        self.assertIn("label 2", find_violation(tampered, adjacency(COORDS_2X3)))

    def test_flags_wrong_length_and_non_positive_labels(self):
        adj = adjacency(COORDS_2X3)
        self.assertIsNotNone(find_violation(LABELS_2X3[:-1], adj))
        self.assertIsNotNone(find_violation([0] + LABELS_2X3[1:], adj))

    def test_triangle_diagonals_count_as_edges(self):
        coords = [(0, 0), (1, 0), (1, 1)]
        self.assertIsNone(find_violation([1, 2, 1], adjacency(coords)))
        self.assertIsNotNone(find_violation([1, 2, 1], adjacency(coords, triangle=True)))


class CheckerFlags(unittest.TestCase):
    def good(self) -> dict:
        return {"method": "exact", "value": 4, "labels": list(LABELS_2X3),
                "budget_exhausted": False}

    def test_correct_reply_passes(self):
        self.assertEqual(_failures(_exact_checker(), _reply(self.good())), [])

    def test_wrong_value(self):
        reply = self.good()
        reply["value"] = 3
        self.assertIn("value 3, expected 4", _failures(_exact_checker(), _reply(reply))[0])

    def test_tampered_label_list(self):
        reply = self.good()
        reply["labels"][1] = 1
        self.assertIn("label 1", _failures(_exact_checker(), _reply(reply))[0])

    def test_certificate_with_more_labels_than_claimed(self):
        reply = self.good()
        reply["labels"] = [1, 3, 1, 2, 5, 2]
        self.assertIn("5 labels", _failures(_exact_checker(), _reply(reply))[0])

    def test_unexpected_exit_code_and_traceback(self):
        self.assertIn("exit code 2", _failures(_exact_checker(), _reply(self.good(), rc=2))[0])
        raised = {"rc": None, "stdout": "", "stderr": "",
                  "error": "Traceback (most recent call last):\nKeyError: 'x'\n"}
        self.assertIn("KeyError", _failures(_exact_checker(), raised)[0])

    def test_interval_that_excludes_the_reference(self):
        checker = _exact_checker(budgeted=True)
        reply = {"method": "exact", "interval": [2, 3], "labels": [1, 3, 1, 2, 3, 2],
                 "budget_exhausted": True}
        result = checker.check_pass([_reply(reply, rc=2)], {}.get)
        self.assertIn("excludes 4", result.failures[0])
        self.assertEqual(result.interval_gap, 1)

    def test_tampered_construct_output(self):
        out = f"{DIR}/op0.json"
        plan = Plan([{"kind": "construct", "width": 9, "out": out,
                      "argv": ["construct", "--four-rows", "9", "--out", out]}])
        checker = Checker(plan, References())
        from rankgrid import four_row_certificate

        text = json.dumps(four_row_certificate(9).to_json_dict())
        record = {"rc": 0, "stdout": "", "stderr": "", "error": None}
        self.assertEqual(_failures(checker, record, {out: text}), [])
        data = json.loads(text)
        data["ranking"]["labels"][0] = data["ranking"]["labels"][1]
        self.assertTrue(_failures(checker, record, {out: json.dumps(data)}))
        data = json.loads(text)
        data["graph"]["edges"].pop()
        self.assertIn("edges", _failures(checker, record, {out: json.dumps(data)})[0])


class FrozenClosedForms(unittest.TestCase):
    def test_match_the_program_at_the_first_release(self):
        from rankgrid import formulas

        for n in range(1, 5000):
            self.assertEqual(closed_form(1, n), formulas.rank_path(n), n)
            self.assertEqual(closed_form(2, n), formulas.rank_2xn(n), n)
            self.assertEqual(closed_form(3, n), formulas.rank_3xn(n), n)
            self.assertEqual(closed_form(4, n), formulas.rank_4xn(n), n)
        self.assertIsNone(closed_form(5, 9))

    def test_formula_reply_with_a_wrong_value(self):
        plan = Plan([{"kind": "formula", "m": 4, "n": 61,
                      "argv": ["formula", "--m", "4", "--n", "61"]}])
        want = closed_form(4, 61)
        ok = {"value": want, "bucket": None}
        self.assertEqual(_failures(Checker(plan, References()), _reply(ok)), [])
        wrong = {"value": want + 1, "bucket": None}
        self.assertIn(f"expected {want}", _failures(Checker(plan, References()), _reply(wrong))[0])


class Workloads(unittest.TestCase):
    def test_same_seed_same_plan(self):
        ranks = {s: 5 for s in CACHE_POOL}
        for name in WORKLOADS:
            self.assertEqual(generate(name, 7, ranks), generate(name, 7, ranks))

    def test_cache_commands_never_use_the_default_cache(self):
        ranks = {s: 5 for s in CACHE_POOL}
        for name in WORKLOADS:
            for op in generate(name, 3, ranks).ops:
                if op["kind"] in ("exact", "decide", "inspect"):
                    self.assertTrue("--no-cache" in op["argv"] or "--cache" in op["argv"], op)


if __name__ == "__main__":
    unittest.main()
