"""Append-only result store shared by the solver and the CLI."""

from __future__ import annotations

import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rankgrid
from rankgrid import cli
from rankgrid.cache import CACHE_VERSION, ENV_VAR, SolutionCache, resolve_cache_path
from rankgrid.graphs import GraphShape, build
from rankgrid.solve import rank_exact

# a valid 4-label ranking of the 2x3 grid, row-major
LABELS = [1, 4, 1, 2, 3, 2]


@pytest.fixture
def g():
    return build(GraphShape.grid(2, 3))


def test_round_trip(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    c = SolutionCache(path)
    assert c.entries() == []
    c.put_exact(g, 4, 4, LABELS, 0.01)
    c.put_decision(g, 3, False, None, 0.002)

    again = SolutionCache(path)
    res = again.get_exact(g)
    assert (res.lb, res.ub, res.method, res.elapsed) == (4, 4, "cache", 0.0)
    assert res.certificate.labels == tuple(LABELS)
    dec = again.get_decision(g, 3)
    assert (dec.feasible, dec.ranking, dec.elapsed) == (False, None, 0.0)
    assert again.get_decision(g, 4) is None
    assert len(again.entries()) == 2


def test_header_written_once(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 4, 4, None, 0.0)
    c.put_decision(g, 4, True, None, 0.0)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"rankgrid_cache": CACHE_VERSION}
    assert sum(1 for ln in lines if "rankgrid_cache" in ln) == 1


def test_repeated_header_is_skipped_quietly(tmp_path, g, caplog):
    # two writers that both found the file empty each write a header
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"rankgrid_cache": CACHE_VERSION}) + "\n"
    rec = {"kind": "decision", "key": g.graph_hash, "k": 4, "feasible": True,
           "labels": LABELS, "elapsed": 0.0}
    path.write_text(header + header + json.dumps(rec) + "\n" + header)
    with caplog.at_level(logging.WARNING, logger="rankgrid.cache"):
        c = SolutionCache(path)
    assert c.writable and len(c.entries()) == 1
    assert caplog.records == []


# each writer opens the cache before the start signal, so all of them may
# find it empty, then appends records whose lines are longer than 8 KiB
_WRITER = """
import sys, time
from pathlib import Path
from rankgrid.cache import SolutionCache
from rankgrid.graphs import GraphShape, build
path, w, ready, go = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4])
c = SolutionCache(path)
g = build(GraphShape.grid(2, 3))
ready.touch()
while not go.exists():
    time.sleep(0.001)
for i in range(25):
    c.put_decision(g, 1000 * w + i, True, [w + 1] * 3000, 0.0)
"""


def test_concurrent_writers_never_tear_a_line(tmp_path, g, caplog):
    path, go = tmp_path / "cache.jsonl", tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=str(Path(rankgrid.__file__).parents[1]))
    ready = [tmp_path / f"ready{w}" for w in range(4)]
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(w), str(ready[w]), str(go)],
                              env=env) for w in range(4)]
    try:
        deadline = time.monotonic() + 60
        while not all(r.exists() for r in ready) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        go.touch()
        codes = [p.wait(timeout=60) for p in procs]
    assert codes == [0, 0, 0, 0]
    assert all(len(line) > 8192 for line in path.read_text().splitlines() if "labels" in line)
    with caplog.at_level(logging.WARNING, logger="rankgrid.cache"):
        c = SolutionCache(path)
    assert caplog.records == []
    got = {rec["k"]: rec["labels"] for rec in c.entries()}
    assert got == {1000 * w + i: [w + 1] * 3000 for w in range(4) for i in range(25)}


def test_version_mismatch_is_read_only(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"rankgrid_cache": CACHE_VERSION + 1}) + "\n")
    c = SolutionCache(path)
    assert not c.writable
    c.put_exact(g, 4, 4, LABELS, 0.0)
    # nothing appended to the foreign file
    assert path.read_text().count("\n") == 1
    assert c.get_exact(g) is not None  # still usable in memory


def test_missing_header_is_read_only(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    path.write_text("not json\n")
    c = SolutionCache(path)
    assert not c.writable
    c.put_decision(g, 2, False, None, 0.0)
    assert path.read_text() == "not json\n"


def test_corrupt_line_skipped(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 4, 4, LABELS, 0.0)
    with open(path, "a") as fh:
        fh.write("{broken\n")
    c2 = SolutionCache(path)
    assert c2.get_exact(g) is not None
    assert len(c2.entries()) == 1


def test_keeps_tightest_interval(tmp_path, g):
    path = tmp_path / "cache.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 2, 6, None, 0.0)
    c.put_exact(g, 4, 4, LABELS, 0.0)
    c.put_exact(g, 2, 6, None, 0.0)
    res = SolutionCache(path).get_exact(g)
    assert (res.lb, res.ub) == (4, 4)


def test_entries_sorted_and_counted(tmp_path, g):
    h = build(GraphShape.path(5))
    c = SolutionCache(tmp_path / "c.jsonl")
    c.put_decision(g, 5, True, None, 0.0)
    c.put_exact(h, 3, 3, None, 0.0)
    c.put_exact(g, 4, 4, None, 0.0)
    kinds = [r["kind"] for r in c.entries()]
    assert kinds == ["decision", "exact", "exact"]


def test_resolve_cache_path_priority(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env.jsonl"))
    assert resolve_cache_path("explicit.jsonl").name == "explicit.jsonl"
    assert resolve_cache_path(None) == tmp_path / "env.jsonl"
    monkeypatch.delenv(ENV_VAR)
    monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "xdg"))
    assert resolve_cache_path(None) == tmp_path / "xdg" / "rankgrid" / "cache.jsonl"


def test_distinct_graphs_do_not_collide(tmp_path):
    a = build(GraphShape.grid(2, 3))
    b = build(GraphShape.grid(3, 2))
    c = SolutionCache(tmp_path / "c.jsonl")
    c.put_exact(a, 4, 4, None, 0.0)
    assert c.get_exact(b) is None


def test_exact_hit_needs_a_valid_ranking_of_lb_labels(tmp_path, g, caplog):
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    wrong = (None, [1] * 6, [1, 2], ["1", "4", "1", "2", "3", "2"], [1, 4, 1, 2, 3, 2.5])
    for lb, labels in [(4, w) for w in wrong] + [(3, LABELS)]:
        c.put_exact(g, lb, lb, labels, 0.0)
        with caplog.at_level("WARNING", logger="rankgrid.cache"):
            caplog.clear()
            assert SolutionCache(path).get_exact(g) is None, (lb, labels)
        assert "fails its check" in caplog.text
        path.unlink()
        c = SolutionCache(path)
    c.put_exact(g, 4, 4, LABELS, 0.0)
    assert SolutionCache(path).get_exact(g).certificate.labels == tuple(LABELS)


def test_interval_record_is_a_quiet_miss(tmp_path):
    # a budget-exhausted solve stores lb < ub; the next run must re-solve
    # without reporting the record as corrupt
    env = dict(os.environ, PYTHONPATH=str(Path(rankgrid.__file__).parents[1]))
    argv = [sys.executable, "-m", "rankgrid.cli", "exact", "--grid", "4x8",
            "--budget-nodes", "200", "--cache", str(tmp_path / "c.jsonl")]
    for _ in range(2):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (2, "")
        assert json.loads(done.stdout)["budget_exhausted"] is True


def test_repeated_budgeted_runs_append_once(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    argv = ["exact", "--grid", "4x8", "--budget-nodes", "200", "--cache", str(path)]
    for _ in range(3):
        assert cli.main(argv) == 2
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"rankgrid_cache": CACHE_VERSION}
    assert len(lines) == 2


def test_budgeted_runs_do_not_append_behind_a_failed_record(tmp_path, capsys, caplog):
    # the forged record fails its check, but on reload its tighter interval
    # still wins over a budget-exhausted one, so appending those grew the
    # file by a line a run; an unbudgeted solve still heals the key, and the
    # hit passes over the forged record quietly
    path = tmp_path / "c.jsonl"
    g = build(GraphShape.grid(4, 8))
    path.write_text(json.dumps({"rankgrid_cache": CACHE_VERSION}) + "\n" + json.dumps(
        {"kind": "exact", "key": g.graph_hash, "lb": 9, "ub": 9, "labels": [1] * 32,
         "elapsed": 0.0, "provenance": "exact"}) + "\n")
    argv = ["exact", "--grid", "4x8", "--cache", str(path)]
    for _ in range(3):
        assert cli.main([*argv, "--budget-nodes", "200"]) == 2
    capsys.readouterr()
    assert len(path.read_text().splitlines()) == 2
    methods = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="rankgrid.cache"):
            assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        methods.append((doc["method"], doc["value"], len(caplog.records)))
    assert methods == [("exact", 10, 1), ("cache", 10, 0)]
    assert len(path.read_text().splitlines()) == 3


def test_only_tightening_intervals_are_appended(tmp_path, g):
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    steps = [(2, 6, True), (2, 6, False), (3, 6, True), (3, 6, False), (2, 5, True),
             (3, 5, True), (4, 4, True), (4, 4, False), (3, 5, False)]
    for lb, ub, written in steps:
        before = path.stat().st_size if path.exists() else 0
        c.put_exact(g, lb, ub, LABELS if lb == ub else None, 0.0)
        assert (path.stat().st_size > before) is written, (lb, ub)
    assert SolutionCache(path).get_exact(g).certificate.labels == tuple(LABELS)


def test_feasible_decision_hit_needs_a_ranking_within_k(tmp_path, g, caplog):
    c = SolutionCache(tmp_path / "c.jsonl")
    c.put_decision(g, 2, True, [1] * 6, 0.0)
    c.put_decision(g, 3, True, LABELS, 0.0)  # uses 4 labels, more than k
    c.put_decision(g, 6, True, None, 0.0)
    c.put_decision(g, 5, True, LABELS, 0.0)
    c.put_decision(g, 1, False, None, 0.0)
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert [c.get_decision(g, k) for k in (2, 3, 6)] == [None, None, None]
    assert caplog.text.count("fails its check") == 3
    assert c.get_decision(g, 5).ranking.labels == tuple(LABELS)
    # a proven "no" carries no labels and is kept as it is
    assert c.get_decision(g, 1).feasible is False


def test_hits_print_the_labels_they_checked(tmp_path, g, capsys):
    # JSON true is not the integer 1, so records labelled with it miss; the
    # search's reply and the hit on the record it writes print int labels
    path = tmp_path / "c.jsonl"
    bools = [True, 4, True, 2, 3, 2]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in (
        {"rankgrid_cache": CACHE_VERSION},
        {"kind": "exact", "key": g.graph_hash, "lb": 4, "ub": 4, "labels": bools,
         "elapsed": 0.0, "provenance": "exact"},
        {"kind": "decision", "key": g.graph_hash, "k": 5, "feasible": True, "labels": bools,
         "elapsed": 0.0})))
    for argv, searched in ((["exact"], "exact"), (["decide", "--k", "5"], "search")):
        docs = []
        for _ in range(2):
            assert cli.main([*argv, "--grid", "2x3", "--cache", str(path)]) == 0
            docs.append(json.loads(capsys.readouterr().out))
            assert [type(label) for label in docs[-1]["labels"]] == [int] * 6, argv
        assert [doc["method"] for doc in docs] == [searched, "cache"]
        assert docs[1]["labels"] == docs[0]["labels"]


def test_checked_exact_ranking_refutes_a_cached_no(tmp_path, capsys):
    # the 3x4 grid has a checked 6-label ranking in the file, so an appended
    # "no" at k = 7 is wrong: the hit is a "yes" carrying that ranking; the
    # "no" at k = 5 is not contradicted and stands
    path = tmp_path / "c.jsonl"
    assert cli.main(["exact", "--grid", "3x4", "--cache", str(path)]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["value"] == 6
    key = build(GraphShape.grid(3, 4)).graph_hash
    with open(path, "a") as fh:
        for k in (7, 5):
            fh.write(json.dumps({"kind": "decision", "key": key, "k": k, "feasible": False}) + "\n")
    for k, feasible, labels in [(7, True, exact["labels"]), (5, False, None)]:
        assert cli.main(["decide", "--grid", "3x4", "--k", str(k), "--cache", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["feasible"], doc["proven"], doc["method"]) == (feasible, True, "cache"), k
        assert doc["labels"] == labels


def test_interval_records_ranking_refutes_a_cached_no(tmp_path, g, capsys):
    # [2, 4] settles nothing, but its labels are a checked 4-label ranking,
    # so a "no" at k = 5 is wrong: the hit is a "yes" with that ranking; the
    # "no" at k = 3 stands, and neither reply writes to the file
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 2, 4, LABELS, 0.0)
    c.put_decision(g, 5, False, None, 0.0)
    c.put_decision(g, 3, False, None, 0.0)
    text = path.read_text()
    for k, feasible, labels in [(5, True, LABELS), (3, False, None)]:
        assert cli.main(["decide", "--grid", "2x3", "--k", str(k), "--cache", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["feasible"], doc["proven"], doc["method"]) == (feasible, True, "cache"), k
        assert doc["labels"] == labels
    assert path.read_text() == text


@pytest.mark.parametrize("records, k, labels", [
    # a settled record that fits, one that does not, and one that fails
    ([(4, 4, LABELS)], 5, LABELS),
    ([(4, 4, LABELS)], 3, None),
    ([(4, 4, [1] * 6)], 5, None),
    # a forged higher lb refuted by the interval record's ranking
    ([(2, 4, LABELS), (5, 5, [1, 2, 1, 3, 5, 4])], 5, LABELS),
    ([(2, 4, LABELS), (5, 5, [1, 2, 1, 3, 5, 4])], 4, LABELS),
    ([(2, 4, LABELS), (5, 5, [1, 2, 1, 3, 5, 4])], 3, None),
    # ... and by a settled record's ranking, which the reply then hands out
    ([(4, 4, LABELS), (5, 5, [1, 2, 1, 3, 5, 4])], 5, LABELS),
])
def test_a_cached_no_validates_each_record_once(tmp_path, g, monkeypatch, records, k, labels):
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    for lb, ub, recorded in records:
        c.put_exact(g, lb, ub, recorded, 0.0)
    c.put_decision(g, k, False, None, 0.0)
    checked = []
    validate = rankgrid.cache.validate
    monkeypatch.setattr(rankgrid.cache, "validate", lambda r: checked.append(r.labels) or validate(r))
    dec = SolutionCache(path).get_decision(g, k)
    assert (dec.ranking and list(dec.ranking.labels)) == labels
    assert len(checked) == len(set(checked)) >= 1


@pytest.mark.parametrize("forged_last", [True, False])
def test_checked_ranking_refutes_a_higher_cached_lb(tmp_path, capsys, caplog, forged_last):
    # [1,4,1,2,5,2,1,6,1] is a valid but not minimal ranking of the 3x3 grid:
    # recorded as lb = ub = 6 it is the tighter record, in either line order;
    # the genuine record's checked 5-label ranking refutes its lb
    path = tmp_path / "c.jsonl"
    assert cli.main(["exact", "--grid", "3x3", "--cache", str(path)]) == 0
    genuine = json.loads(capsys.readouterr().out)
    header, record = path.read_text().splitlines()
    forged = json.dumps({**json.loads(record), "lb": 6, "ub": 6, "labels": [1, 4, 1, 2, 5, 2, 1, 6, 1]})
    path.write_text("\n".join([header, *([record, forged] if forged_last else [forged, record])]) + "\n")
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["exact", "--grid", "3x3", "--cache", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["method"], doc["labels"]) == (5, "cache", genuine["labels"])
    assert "claims lb 6, but a checked ranking has 5 labels" in caplog.text


def _exact_line(key, lb, ub, labels):
    return json.dumps({"kind": "exact", "key": key, "lb": lb, "ub": ub, "labels": labels,
                       "elapsed": 0.0, "provenance": "exact"})


# [2, 4] with a checked ranking, then [2, 4] with labels that fail validate:
# the later record of equal ub must not hide the checked one
MASKED = [(2, 4, LABELS), (2, 4, [1] * 6)]


def test_a_failing_record_of_equal_ub_does_not_hide_a_cached_yes(tmp_path, g, capsys):
    path = tmp_path / "c.jsonl"
    lines = [_exact_line(g.graph_hash, *rec) for rec in MASKED]
    lines.append(json.dumps({"kind": "decision", "key": g.graph_hash, "k": 5, "feasible": False}))
    path.write_text(HEADER + "\n".join(lines) + "\n")
    assert cli.main(["decide", "--grid", "2x3", "--k", "5", "--cache", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["feasible"], doc["proven"], doc["method"], doc["labels"]) == (True, True, "cache", LABELS)


@pytest.mark.parametrize("forged_first", [False, True])
def test_a_failing_record_of_equal_ub_does_not_hide_a_refutation(tmp_path, g, capsys, caplog, forged_first):
    # [1,2,1,3,5,4] is a valid 5-label ranking of the 2x3 grid, whose rank is
    # 4: recorded as lb = ub = 5 it is refuted by the checked 4-label ranking
    # behind the failing record, so the reply is a fresh solve of 4
    path = tmp_path / "c.jsonl"
    forged = _exact_line(g.graph_hash, 5, 5, [1, 2, 1, 3, 5, 4])
    lines = [_exact_line(g.graph_hash, *rec) for rec in MASKED]
    path.write_text(HEADER + "\n".join([forged, *lines] if forged_first else [*lines, forged]) + "\n")
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["exact", "--grid", "2x3", "--cache", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["method"]) == (4, "exact")
    assert "claims lb 5, but a checked ranking has 4 labels" in caplog.text


def test_a_refuting_interval_record_is_a_miss_until_a_solve_settles_it(tmp_path, g):
    # the refuted lb = ub = 5 record loses to the checked 4-label ranking of
    # the interval [2, 4], which settles nothing; the fresh value 4 is
    # written, as on reload it too refutes the record of 5
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 2, 4, LABELS, 0.0)
    c.put_exact(g, 5, 5, [1, 2, 1, 3, 5, 4], 0.0)
    c = SolutionCache(path)
    assert c.get_exact(g) is None
    c.put_exact(g, 4, 4, LABELS, 0.0)
    res = SolutionCache(path).get_exact(g)
    assert (res.lb, res.ub, res.method) == (4, 4, "cache")


HEADER = json.dumps({"rankgrid_cache": CACHE_VERSION}) + "\n"


@pytest.mark.parametrize("records, method, warning", [
    # a label-less settled value is backed by a checked ranking of as many
    # labels in another record
    ([(2, 4, LABELS), (4, 4, None)], "cache", None),
    # a later record of equal interval that fails hides no checked ranking
    ([(4, 4, LABELS), (4, 4, [1] * 6)], "cache", None),
    # a claimed lb above the least checked ranking is dropped
    ([(2, 4, LABELS), (5, 5, None)], "exact", "claims lb 5, but a checked ranking has 4 labels"),
    ([(2, 4, LABELS), (5, 6, [1, 2, 1, 3, 5, 4])], "exact", "claims lb 5, but a checked ranking has 4 labels"),
    # an lb that no checked ranking meets settles nothing
    ([(3, 3, LABELS)], "exact", "fails its check"),
    ([(2, 5, [1, 2, 1, 3, 5, 4]), (4, 4, None)], "exact", "fails its check"),
    ([(2, 4, LABELS), (3, 6, None)], "exact", None),
])
def test_one_state_settles_a_key(tmp_path, g, capsys, caplog, records, method, warning):
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + "".join(_exact_line(g.graph_hash, *rec) + "\n" for rec in records))
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["exact", "--grid", "2x3", "--cache", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["method"]) == (4, method)
    if method == "cache":
        assert doc["labels"] == LABELS
    assert [warning in m for m in caplog.messages] == ([] if warning is None else [True])


def test_a_label_less_value_is_written_once(tmp_path, g):
    # it settles nothing, so writing it again would heal nothing
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    for _ in range(2):
        c.put_exact(g, 4, 4, None, 0.0)
    assert len(path.read_text().splitlines()) == 2


def test_one_cache_validates_each_record_once(tmp_path, g, monkeypatch):
    # a lookup, a cached "no", a write and a lookup after it all read one
    # state per key, so each labelled record is validated once
    path = tmp_path / "c.jsonl"
    c = SolutionCache(path)
    c.put_exact(g, 2, 5, [1, 2, 1, 3, 5, 4], 0.0)
    c.put_exact(g, 4, 4, LABELS, 0.0)
    c.put_decision(g, 4, False, None, 0.0)
    checked = []
    validate = rankgrid.cache.validate
    monkeypatch.setattr(rankgrid.cache, "validate", lambda r: checked.append(r.labels) or validate(r))
    c = SolutionCache(path)
    assert c.get_exact(g).certificate.labels == tuple(LABELS)
    assert c.get_decision(g, 4).ranking.labels == tuple(LABELS)
    c.put_exact(g, 5, 5, [1, 3, 1, 2, 5, 4], 0.0)
    assert c.get_exact(g).certificate.labels == tuple(LABELS)
    assert sorted(checked) == sorted([(1, 2, 1, 3, 5, 4), tuple(LABELS), (1, 3, 1, 2, 5, 4)])


def test_non_utf8_bytes_are_a_corrupt_line(tmp_path, g, capsys, caplog):
    # a line of stray bytes names no key, so only cache-inspect reads it; a
    # record of the key with a non-UTF-8 byte is read, and skipped, by exact
    path = tmp_path / "c.jsonl"
    path.write_bytes(HEADER.encode() + b"\xff\xfe\n" + b'{"kind": "exact", "key": "%s", "x": "\xff"}\n'
                     % g.graph_hash.encode())
    runs = {}
    for argv in (["exact", "--grid", "2x3"], ["decide", "--grid", "2x3", "--k", "4"], ["cache-inspect"]):
        caplog.clear()
        with caplog.at_level("WARNING", logger="rankgrid.cache"):
            assert cli.main([*argv, "--cache", str(path)]) == 0, argv
        runs[argv[0]] = (json.loads(capsys.readouterr().out), caplog.text)
    assert runs["exact"][0]["value"] == 4
    assert runs["exact"][1].count("is corrupt") == 1 and "line 3 is corrupt" in runs["exact"][1]
    assert runs["decide"][0]["feasible"] is True
    doc, text = runs["cache-inspect"]
    assert (doc["exact"], doc["decisions"]) == (1, 1)
    assert "line 2 is corrupt" in text and "line 3 is corrupt" in text


def test_non_utf8_header_ignores_the_file(tmp_path, g, caplog):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xff\xfe\n" + json.dumps({"kind": "exact", "key": g.graph_hash, "lb": 4, "ub": 4,
                                                  "labels": LABELS}).encode() + b"\n")
    before = path.read_bytes()
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        c = SolutionCache(path)
        assert c.get_exact(g) is None and c.entries() == []
    assert "has no valid header; ignoring file" in caplog.text
    assert not c.writable
    c.put_exact(g, 4, 4, LABELS, 0.0)
    assert path.read_bytes() == before


_H = build(GraphShape.grid(2, 3)).graph_hash


@pytest.mark.parametrize("key", [
    "5", "null", '["%s"]' % _H, json.dumps(_H.upper()), json.dumps(_H[:-1]), json.dumps(_H + "0"),
    # the graph hash spelled with JSON escapes: a lookup would not find it
    '"%s"' % "".join("\\u%04x" % ord(c) for c in _H)])
def test_a_key_that_is_not_a_graph_hash_is_a_corrupt_line(tmp_path, capsys, caplog, key):
    path = tmp_path / "c.jsonl"
    assert cli.main(["exact", "--grid", "2x3", "--cache", str(path)]) == 0
    capsys.readouterr()
    with open(path, "a") as fh:
        fh.write('{"kind": "exact", "key": %s, "lb": 1, "ub": 1}\n' % key)
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["cache-inspect", "--cache", str(path), "--verbose"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["exact"], doc["entries"]) == (1, 1)
    assert doc["records"][0]["lb"] == 4
    assert "line 3 is corrupt" in caplog.text


@pytest.mark.parametrize("rec", [
    {"kind": "exact", "lb": True, "ub": 4, "labels": LABELS},
    {"kind": "exact", "lb": 1, "ub": True, "labels": None},
    {"kind": "decision", "k": True, "feasible": False, "labels": None},
], ids=["lb", "ub", "k"])
def test_a_boolean_number_is_a_corrupt_line(tmp_path, g, caplog, rec):
    # true is the int 1 to Python: each record would be one the cache lists
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + json.dumps({**rec, "key": g.graph_hash, "elapsed": 0.0}) + "\n")
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        c = SolutionCache(path)
        assert c.entries() == [] and c.get_decision(g, 1) is None
    assert "line 2 is corrupt" in caplog.text


def test_a_boolean_label_fails_its_check(tmp_path, g, caplog):
    # LABELS with each 1 written as true: read as 1, it would be a hit
    path = tmp_path / "c.jsonl"
    labels = [True if v == 1 else v for v in LABELS]
    path.write_text(HEADER + json.dumps({"kind": "exact", "key": g.graph_hash, "lb": 4, "ub": 4,
                                         "labels": labels, "elapsed": 0.0}) + "\n")
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert SolutionCache(path).get_exact(g) is None
    assert "fails its check; miss" in caplog.text


@pytest.mark.parametrize("order", [("entries", "get_exact"), ("get_exact", "entries")])
def test_one_scan_reads_blank_and_unterminated_lines(tmp_path, g, caplog, order):
    # a full read and a lookup walk the lines alike: blank lines are skipped
    # quietly, and a corrupt last line with no newline is warned about once
    h = build(GraphShape.path(5))
    recs = [{"kind": "exact", "key": g.graph_hash, "lb": 4, "ub": 4, "labels": LABELS},
            {"kind": "exact", "key": h.graph_hash, "lb": 3, "ub": 3, "labels": [1, 2, 1, 3, 1]}]
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + json.dumps(recs[0]) + "\n\n{broken\n" + json.dumps(recs[1]) + "\n  \n"
                    + '{"kind": "exact", "key": "%s", "lb": 2' % g.graph_hash)
    c = SolutionCache(path)
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        for step in order * 2:
            if step == "entries":
                assert c.entries() == sorted(recs, key=lambda rec: rec["key"])
            else:
                assert c.get_exact(g).certificate.labels == tuple(LABELS)
                assert c.get_exact(h).certificate.labels == (1, 2, 1, 3, 1)
    warned = [f"cache {path} line {n} is corrupt; skipped" for n in (4, 7)]
    assert caplog.messages == (warned if order[0] == "entries" else warned[::-1])


class _TalliedBytes(bytes):
    """bytes that tally the bytes each count or split call covers."""

    scanned = 0

    def count(self, sub, start=None, end=None):
        lo, hi, _ = slice(start, end).indices(len(self))
        self.scanned += max(hi - lo, 0)
        return super().count(sub, start, end)

    def split(self, *args, **kwargs):
        self.scanned += len(self)
        return super().split(*args, **kwargs)


def test_corrupt_lines_are_numbered_in_linear_work(tmp_path, g, caplog):
    # a lookup reads the corrupt lines that name its key, out of file order,
    # and a full read then reads the rest: each warning names its line's true
    # number, and numbering 400 corrupt lines covers the file at most twice
    # instead of once per line
    key = g.graph_hash
    lines, named, rest = [], [], []
    for i in range(400):
        if i % 4 == 0:
            lines.append('{"kind": "exact", "key": "%s", "lb": 5, "ub": 3}' % key)
            named.append(len(lines) + 1)  # the header is line 1
        else:
            lines.append("{broken %d" % i)
            rest.append(len(lines) + 1)
        lines.append(json.dumps({"kind": "decision", "key": "%064x" % i, "k": 2, "feasible": False}))
        if i == 200:
            lines.append(json.dumps({"kind": "exact", "key": key, "lb": 4, "ub": 4, "labels": LABELS}))
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + "\n".join(lines) + "\n")
    c = SolutionCache(path)
    c._buf = buf = _TalliedBytes(c._buf)
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert c.get_exact(g).certificate.labels == tuple(LABELS)
        assert len(c.entries()) == 401
    assert caplog.messages == [f"cache {path} line {n} is corrupt; skipped" for n in named + rest]
    assert buf.scanned <= 2 * len(buf)


def _session_file(rng, shapes):
    """A shuffled cache file for each of shapes: equal intervals, records
    that fail their check, a forged higher lb beside a lower checked ranking,
    interval records, decision lines overriding earlier ones, corrupt lines
    that name the key, and another key's record naming the key elsewhere."""
    lines = []
    for shape in shapes:
        g = build(shape)
        key, good = g.graph_hash, list(rank_exact(g).certificate.labels)
        r = max(good)
        forged = [r + 1 if label == r else label for label in good]  # valid, one label too many
        exact = lambda lb, ub, labels: {"kind": "exact", "key": key, "lb": lb, "ub": ub,
                                         "labels": labels, "elapsed": 0.0, "provenance": "exact"}
        recs = [exact(r, r, good), exact(r, r, [1] * len(good)), exact(r, r, good[::-1]),
                exact(r + 1, r + 1, forged), exact(r + 2, r + 2, None), exact(r - 1, r + 1, None),
                exact(1, r, good), exact(r - 2, r + 3, forged)]
        for k in (r - 1, r, r + 1):
            recs += [{"kind": "decision", "key": key, "k": k, "feasible": rng.random() < 0.5,
                      "labels": rng.choice([None, good, forged, [1] * len(good)])} for _ in range(2)]
        lines += [json.dumps(rec) for rec in rng.sample(recs, rng.randint(3, len(recs)))]
        lines += ['{"kind": "exact", "key": "%s", "lb": 5, "ub": 3}' % key,
                  '{"kind": "exact", "key": "%s", "lb": 2' % key,
                  '{"kind": "nope", "key": "%s"}' % key]
    keys = [build(s).graph_hash for s in shapes]
    lines += [json.dumps({"kind": "decision", "key": keys[i], "k": 2, "feasible": True,
                          "labels": None, "note": keys[i - 1]}) for i in range(len(keys))]
    rng.shuffle(lines)
    return HEADER + "\n".join(lines) + "\n"


def _ask(c, g):
    """What c replies for g: writes, a lookup of each k, and a write."""
    good = list(rank_exact(g).certificate.labels)
    r = max(good)
    c.put_decision(g, r, True, good, 0.0)
    c.put_exact(g, r - 1, r + 1, None, 0.0)
    res = c.get_exact(g)
    decisions = [c.get_decision(g, k) for k in range(1, r + 3)]
    c.put_exact(g, r, r, good, 0.0)
    return (None if res is None else (res.lb, res.ub, res.method, res.certificate.labels),
            [None if d is None else (d.feasible, d.ranking and d.ranking.labels) for d in decisions])


@pytest.mark.parametrize("seed", range(12))
def test_a_lookup_reads_what_a_full_read_would(tmp_path, caplog, seed):
    # a fresh cache asked only about one key, one asked about the other keys
    # first, and one that read every line first must reply, write and warn
    # alike for that key; the full read's warnings are those about lines
    # that name the key
    rng = random.Random(seed)
    shapes = [GraphShape.grid(2, 3), GraphShape.grid(3, 3), GraphShape.path(5), GraphShape.grid(2, 4)]
    text = _session_file(rng, shapes)
    lines = text.splitlines()
    for shape in shapes:
        g = build(shape)
        others = [build(s) for s in rng.sample(shapes, len(shapes)) if s != shape]
        got = []
        for mode in ("only", "others first", "entries first"):
            path = tmp_path / f"{mode}.jsonl"
            path.write_text(text)
            c = SolutionCache(path)
            with caplog.at_level("WARNING", logger="rankgrid.cache"):
                caplog.clear()
                if mode == "others first":
                    for h in others:
                        _ask(c, h)
                elif mode == "entries first":
                    c.entries()
                warned = [m for m in caplog.messages if mode == "entries first" and (
                    "is corrupt" not in m or g.graph_hash in lines[int(m.split(" line ")[1].split()[0]) - 1])]
                caplog.clear()
                replies = _ask(c, g)
            appended = [line for line in path.read_text()[len(text):].splitlines() if g.graph_hash in line]
            got.append((replies, [m.replace(str(path), "F") for m in warned + caplog.messages], appended))
        assert got[0] == got[1] == got[2], (seed, shape)


def test_a_lookup_parses_only_its_own_keys_lines(tmp_path, g, capsys, caplog, monkeypatch):
    rng = random.Random(7)
    other = ["%064x" % rng.getrandbits(256) for _ in range(2000)]
    mine = [{"kind": "exact", "key": g.graph_hash, "lb": 2, "ub": 6, "labels": None},
            {"kind": "exact", "key": g.graph_hash, "lb": 4, "ub": 4, "labels": LABELS},
            {"kind": "decision", "key": g.graph_hash, "k": 4, "feasible": True, "labels": LABELS}]
    recs = [{"kind": "decision", "key": key, "k": 3, "feasible": False} for key in other]
    for i, rec in enumerate(mine):
        recs.insert(700 * i + 5, rec)
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + "".join(json.dumps(rec) + "\n" for rec in recs)
                    + '{"kind": "exact", "key": "%s", "lb": 5, "ub": 3}\n' % other[0])
    loads, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, *a, **kw: calls.append(s) or loads(s, *a, **kw))
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["exact", "--grid", "2x3", "--cache", str(path)]) == 0
    parsed = calls[:]
    assert json.loads(capsys.readouterr().out)["method"] == "cache"
    assert caplog.records == []
    assert len(parsed) == 1 + len(mine)  # the header and the key's own lines
    assert all(g.graph_hash in line for line in parsed[1:])
    with caplog.at_level("WARNING", logger="rankgrid.cache"):
        assert cli.main(["cache-inspect", "--cache", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 2002
    assert caplog.messages == [f"cache {path} line {len(recs) + 2} is corrupt; skipped"]
