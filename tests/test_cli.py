"""End-to-end checks of the command line entry points."""

from __future__ import annotations

import csv
import io
import json

import pytest

from rankgrid import cli, formulas
from rankgrid.cache import ENV_VAR
from rankgrid.graphs import Graph, GraphShape, build
from rankgrid.verify import Ranking, validate


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "cache.jsonl"))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_grid(capsys):
    code, out, _ = run(capsys, "exact", "--grid", "3x3")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 5
    assert doc["budget_exhausted"] is False
    g = build(GraphShape.grid(3, 3))
    assert validate(Ranking(g, tuple(doc["labels"]))) is None


def test_exact_deterministic_is_byte_identical(capsys):
    a = run(capsys, "exact", "--grid", "2x4", "--deterministic")
    b = run(capsys, "exact", "--grid", "2x4", "--deterministic")
    assert a == b
    assert json.loads(a[1])["elapsed"] == 0.0


def test_exact_uses_cache_on_second_call(capsys, tmp_path):
    path = str(tmp_path / "c.jsonl")
    first = run(capsys, "exact", "--grid", "2x5", "--cache", path)
    second = run(capsys, "exact", "--grid", "2x5", "--cache", path)
    assert first[0] == second[0] == 0
    assert json.loads(first[1])["method"] != "cache"
    assert json.loads(second[1])["method"] == "cache"
    assert json.loads(first[1])["value"] == json.loads(second[1])["value"] == 5


def test_decide_both_ways(capsys):
    code, out, _ = run(capsys, "decide", "--grid", "2x2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert len(doc["labels"]) == 4
    code, out, _ = run(capsys, "decide", "--grid", "2x2", "--k", "2")
    assert code == 0
    assert json.loads(out)["feasible"] is False


def test_decide_json_keys(capsys):
    keys = {"k", "feasible", "proven", "elapsed", "labels", "method"}
    for k in ("3", "2"):
        code, out, _ = run(capsys, "decide", "--grid", "2x2", "--k", k, "--no-cache")
        doc = json.loads(out)
        assert code == 0 and set(doc) == keys and doc["proven"] is True
    code, out, _ = run(capsys, "decide", "--grid", "4x6", "--k", "7", "--no-cache",
                       "--budget-nodes", "5")
    doc = json.loads(out)
    assert code == 2 and set(doc) == keys
    assert doc["feasible"] is None and doc["proven"] is False


def test_formula_closed_and_recursive(capsys):
    code, out, _ = run(capsys, "formula", "--m", "4", "--n", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 9, "value": 10, "form": "closed", "bucket": [10, 11]}
    code, out, _ = run(capsys, "formula", "--m", "4", "--n", "9", "--recursive")
    doc = json.loads(out)
    assert (doc["value"], doc["form"]) == (10, "recursive")
    code, out, _ = run(capsys, "formula", "--m", "1", "--n", "12")
    doc = json.loads(out)
    assert doc["value"] == 4 and doc["bucket"] is None


def test_bounds_grid(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "4", "--n", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"]["thm2"] == 7
    assert doc["lower"]["cor1"] == "35/9"
    assert doc["upper"] == {"alpert": 14, "diagonal": 19}
    assert doc["comparator"]["tighter"] == "alpert"


def test_bounds_triangle(capsys):
    code, out, _ = run(capsys, "bounds", "--triangle", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 10, "lower": {"cor2": "41/9"}, "upper": {"stacked": 20}}


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--m", "5", "--n", "20")
    assert code == 0
    doc = json.loads(out)
    assert (doc["alpert"], doc["diagonal"], doc["tighter"]) == (20, 24, "alpert")


def test_construct_manifest_round_trips(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    code, _, _ = run(capsys, "construct", "--four-rows", "10", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert [s["name"] for s in doc["steps"]]
    g = Graph.from_json_dict(doc["graph"])
    r = Ranking(g, tuple(doc["ranking"]["labels"]))
    assert validate(r) is None
    assert r.label_count == formulas.rank_4xn(10)


def test_construct_endpoints_summary(capsys):
    code, out, _ = run(capsys, "construct", "--endpoints", "4")
    assert code == 0
    doc = json.loads(out)
    widths = [row["width"] for row in doc["chains"]]
    assert widths == list(range(1, 27))
    assert doc["count"] == 26
    for row in doc["chains"]:
        assert row["labels"] == formulas.rank_4xn(row["width"])


def test_render_ascii_and_svg(capsys, tmp_path):
    out_file = tmp_path / "p.json"
    code, _, _ = run(capsys, "construct", "--four-rows", "3", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "render", str(out_file))
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "render", str(out_file), "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_render_rejects_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": {}}')
    code, _, err = run(capsys, "render", str(bad))
    assert code == 1
    assert "error:" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--m", "4", "--n-range", "3:6",
                       "--methods", "formula,exact,cert")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["3", "4", "5", "6"]
    for r in rows:
        assert r["formula"] == r["exact_lo"] == r["exact_hi"]
        assert "formula_exact" in r["flags"]
        assert "cert_matches" in r["flags"]
    assert rows[0]["formula"] == "6" and rows[3]["formula"] == "8"


def test_sweep_one_row_formula_matches_exact(capsys):
    code, out, _ = run(capsys, "sweep", "--m", "1", "--n-range", "1:20",
                       "--methods", "formula,exact", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 20
    for row in doc["rows"]:
        assert row["formula"] == row["exact_lo"] == row["exact_hi"]
        assert "formula_exact" in row["flags"]


def test_exit_code_usage_error(capsys):
    assert run(capsys, "exact")[0] == 1
    assert run(capsys, "formula", "--m", "9", "--n", "3")[0] == 1
    assert run(capsys, "bounds")[0] == 1
    code, out, err = run(capsys, "exact", "--grid", "3x3", "--jobs", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "--jobs" in err and "Traceback" not in err


def test_exit_code_budget_exhausted(capsys):
    code, out, _ = run(capsys, "exact", "--grid", "4x6", "--no-cache",
                       "--budget-nodes", "50")
    assert code == 2
    doc = json.loads(out)
    assert doc["budget_exhausted"] is True
    lo, hi = doc["interval"]
    assert lo < hi


def test_cache_inspect(capsys, tmp_path):
    path = str(tmp_path / "c.jsonl")
    run(capsys, "exact", "--grid", "2x3", "--cache", path)
    code, out, _ = run(capsys, "cache-inspect", "--cache", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 1 and doc["entries"] == 1
    code, out, _ = run(capsys, "cache-inspect", "--cache", path, "--verbose")
    assert json.loads(out)["records"][0]["kind"] == "exact"
