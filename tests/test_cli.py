"""End-to-end checks of the command line entry points."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import random
import sys

import pytest

from conftest import run_endpoint
from rankgrid import bounds, cli, construct, formulas, graphs
from rankgrid.cache import CACHE_VERSION, ENV_VAR
from rankgrid.graphs import Graph, GraphShape, ShapeError, build
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


def test_exact_path(capsys):
    for n in (1, 2, 7, 8):
        code, out, _ = run(capsys, "exact", "--path", str(n), "--no-cache")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == n.bit_length()
        assert validate(Ranking(build(GraphShape.path(n)), tuple(doc["labels"]))) is None


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
    code, out, _ = run(capsys, "decide", "--grid", "4x6", "--k", "8", "--no-cache",
                       "--budget-nodes", "5")
    doc = json.loads(out)
    assert code == 2 and set(doc) == keys
    assert doc["feasible"] is None and doc["proven"] is False


def test_decide_block_bound_settles_at_the_root(capsys):
    # 4x6 contains a 4x5 block of rank 8, so k=7 is refuted before the
    # search spends its five nodes
    code, out, _ = run(capsys, "decide", "--grid", "4x6", "--k", "7", "--no-cache",
                       "--budget-nodes", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["feasible"] is False and doc["proven"] is True and doc["labels"] is None


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
    assert doc["upper"] == {"alpert": 14, "diagonal": 18}
    assert doc["comparator"] == {"m": 4, "n": 20, "alpert": 14, "diagonal": 18, "tighter": "alpert"}


def test_bounds_triangle(capsys):
    code, out, _ = run(capsys, "bounds", "--triangle", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 10, "lower": {"cor2": "41/9"}, "upper": {"stacked": 20}}


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--m", "5", "--n", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"m": 5, "n": 20, "alpert": 20, "diagonal": 23, "tighter": "alpert"}
    doc = json.loads(run(capsys, "compare", "--m", "4", "--n", "6")[1])
    assert (doc["alpert"], doc["diagonal"], doc["tighter"]) == (10, 9, "diagonal")


def test_print_paths_never_run_the_triangle_dp(capsys, monkeypatch):
    # bounds, compare and sweep print the diagonal bound without the O(m^3)
    # row-cut table; only bounds --triangle prints tri_bound
    def refuse(m):
        raise AssertionError(f"tri_bound({m}) on a print path")

    monkeypatch.setattr(bounds, "tri_bound", refuse)
    for argv in (["bounds", "--m", "400", "--n", "410"], ["compare", "--m", "400", "--n", "410"],
                 ["sweep", "--m", "400", "--n-range", "402:404", "--methods", "bounds"]):
        assert run(capsys, *argv)[0] == 0, argv


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


def test_sweep_builds_each_endpoint_once(capsys, endpoint_builds):
    code, out, _ = run(capsys, "sweep", "--m", "4", "--n-range", "1:64",
                       "--methods", "formula,cert")
    assert code == 0 and len(out.splitlines()) == 65
    assert endpoint_builds == {e: 1 for e in {run_endpoint(n) for n in range(1, 65)}}


def test_sweep_cert_labels_meet_the_formula(capsys):
    code, out, _ = run(capsys, "sweep", "--m", "4", "--n-range", "1:300",
                       "--methods", "formula,cert")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == list(range(1, 301))
    for r in rows:
        n, formula, cert = int(r["n"]), int(r["formula"]), int(r["cert_labels"])
        assert cert >= formula
        if run_endpoint(n) == n:
            assert cert == formula, n


def test_budgeted_sweep_does_not_read_the_table_of_exact_solves(capsys):
    # an unbudgeted sweep fills solve.solved; a budgeted one still searches
    argv = ("sweep", "--m", "4", "--n-range", "6:6", "--methods", "exact")
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--budget-nodes", "50")
    row = next(csv.DictReader(io.StringIO(out)))
    assert code == 0 and int(row["exact_lo"]) < int(row["exact_hi"])


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
    # bad values that parse, each refused by its command with a message
    for argv, problem in [
        (["exact", "--grid", "3by3"], "expected MxN, got '3by3'"),
        (["exact", "--path", "5", "--sticky", "right"], "sticky ends attach only to grids"),
        (["formula", "--m", "3", "--n", "5", "--recursive"], "--recursive applies only to --m 4"),
        (["bounds", "--triangle", "5", "--m", "3"], "--triangle excludes --m/--n"),
        (["construct"], "give exactly one of --four-rows N"),
        (["construct", "--four-rows", "9", "--triangle", "5"], "give exactly one of --four-rows N"),
        (["sweep", "--m", "4", "--n-range", "5"], "expected LO:HI, got '5'"),
        (["sweep", "--m", "4", "--n-range", "6:3"], "empty or invalid range '6:3'"),
        (["sweep", "--m", "4", "--n-range", "1:3", "--methods", "exact,nope"], "unknown methods: ['nope']"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and problem in err and "Traceback" not in err, (argv, err)


# each command's -h, a valid argv, and three usage errors: a missing
# required flag or flag value, an unknown flag, an extra positional
PARSER_CASES = [
    *([name, "-h"] for name in cli._COMMANDS),
    ["exact", "--grid", "3x3", "--sticky", "right:top", "--budget", "1.5", "--no-cache"],
    ["exact", "--grid"], ["exact", "--grid", "3x3", "--jobs", "2"], ["exact", "--grid", "3x3", "decide"],
    ["decide", "--path", "7", "--k", "3", "--budget-nodes", "9", "--deterministic"],
    ["decide", "--grid", "3x3"], ["decide", "--k", "3", "--bogus"], ["decide", "--k", "3", "x"],
    ["formula", "--m", "4", "--n", "9", "--recursive"],
    ["formula", "--m", "4"], ["formula", "--m", "9", "--n", "3"], ["formula", "--m", "4", "--n", "9", "--x"],
    ["formula", "--m", "4", "--n", "9", "x"],
    ["bounds", "--m", "5", "--n", "9"], ["bounds", "--m"], ["bounds", "--k", "1"], ["bounds", "5"],
    ["construct", "--four-rows", "9", "--out", "c.json"],
    ["construct", "--four-rows"], ["construct", "--rows", "4"], ["construct", "--triangle", "5", "x"],
    ["sweep", "--m", "4", "--n-range", "3:6", "--methods", "exact", "--format", "json",
     "--out", "s.json", "--budget", "2", "--budget-nodes", "9"],
    ["sweep", "--m", "4"], ["sweep", "--m", "4", "--n-range", "1:2", "--jobs", "2"],
    ["sweep", "--m", "4", "--n-range", "1:2", "x"],
    ["compare", "--m", "4", "--n", "6"],
    ["compare", "--n", "6"], ["compare", "--m", "4", "--n", "6", "--x"], ["compare", "--m", "4", "--n", "6", "x"],
    ["render", "f.json", "--format", "svg", "--out", "f.svg"],
    ["render"], ["render", "f.json", "--svg"], ["render", "f.json", "g.json"],
    ["cache-inspect", "--cache", "c.jsonl", "--verbose"],
    ["cache-inspect", "--cache"], ["cache-inspect", "--all"], ["cache-inspect", "x"],
]


def _parse(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    except ShapeError as exc:
        result = ("error", str(exc))
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_agrees_with_the_full_parser(capsys, monkeypatch, argv):
    # the same namespace, exit, message and output, except that an
    # unrecognized argument prints the command's own usage
    monkeypatch.setenv("COLUMNS", "80")
    own = cli._build_parser(argv[0])
    result, (out, err) = _parse(own, argv[1:], capsys)
    full, (full_out, full_err) = _parse(cli._build_parser(), argv, capsys)
    if isinstance(full, dict):
        assert full.pop("command") == argv[0]
    elif full[0] == "error" and full[1].startswith("unrecognized arguments"):
        full_err = own.format_usage()
    assert (result, out, err) == (full, full_out, full_err)


USAGE = """usage: rankgrid [-h]
                {exact,decide,formula,bounds,construct,sweep,compare,render,cache-inspect}
                ...
"""
TOP_HELP = USAGE + """
Vertex-ranking toolkit for grid graphs.

positional arguments:
  {exact,decide,formula,bounds,construct,sweep,compare,render,cache-inspect}
    exact               exact rank number with certificate
    decide              is there a ranking with at most k labels
    formula             closed-form values for 1..4 rows
    bounds              lower and upper bounds
    construct           build verified ranking certificates
    sweep               tabulate methods over a width range
    compare             halving vs diagonal upper bound
    render              draw a ranking file as ascii or svg
    cache-inspect       show cache location and contents

options:
  -h, --help            show this help message and exit
"""


def test_top_level_help_and_invalid_choice_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert (exc.value.code, capsys.readouterr()) == (0, (TOP_HELP, ""))
    assert run(capsys, "bogus") == (1, "", USAGE + (
        "error: argument command: invalid choice: 'bogus' (choose from 'exact', 'decide', 'formula',"
        " 'bounds', 'construct', 'sweep', 'compare', 'render', 'cache-inspect')\n"))
    # a named command prints its own usage with every error
    assert run(capsys, "compare", "--m", "4", "--n", "6", "x") == (
        1, "", "usage: rankgrid compare [-h] --m M --n N\nerror: unrecognized arguments: x\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rankgrid", "formula", "--m", "4", "--n", "9"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["value"] == formulas.rank_formula(4, 9)


def test_exit_code_budget_exhausted(capsys):
    code, out, _ = run(capsys, "exact", "--grid", "4x6", "--no-cache",
                       "--budget-nodes", "50")
    assert code == 2
    doc = json.loads(out)
    assert doc["budget_exhausted"] is True
    lo, hi = doc["interval"]
    assert lo < hi


def test_main_restores_the_collector_state(capsys, monkeypatch):
    def broken(n):
        raise AssertionError("forced")

    monkeypatch.setattr(construct, "four_row_certificate", broken)
    commands = [
        (0, ["formula", "--m", "4", "--n", "9"]),
        (1, ["exact", "--grid", "0x4"]),
        (2, ["exact", "--grid", "4x6", "--no-cache", "--budget-nodes", "50"]),
        (3, ["construct", "--four-rows", "9"]),
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            for code, argv in commands:
                assert cli.main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
            with pytest.raises(SystemExit):
                cli.main(["--help"])
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


def test_command_cyclic_garbage_does_not_grow_with_its_work(capsys, tmp_path):
    # main pauses the collector because a command's cyclic garbage is a
    # fixed 27 to 67 objects (its parser's among them), not a share of its
    # work
    small, big = str(tmp_path / "small.json"), str(tmp_path / "big.json")
    cache = tmp_path / "many.jsonl"
    write_cache(cache, *({"kind": "exact", "key": f"{i:064x}", "lb": 1, "ub": 1, "labels": [1],
                          "elapsed": 0.5, "provenance": "exact"} for i in range(2000)))
    pairs = [
        (["construct", "--four-rows", "64", "--out", small], ["construct", "--four-rows", "2000", "--out", big]),
        (["exact", "--grid", "3x4"], ["exact", "--grid", "4x6"]),
        (["render", small], ["render", big, "--format", "svg"]),
        (["cache-inspect", "--cache", str(tmp_path / "none.jsonl")],
         ["cache-inspect", "--cache", str(cache), "--verbose"]),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for pair in pairs:
            counts = []
            for argv in pair:
                gc.collect()
                assert cli.main(argv) == 0
                counts.append(gc.collect())
            assert max(counts) < 400, (pair, counts)
            assert abs(counts[0] - counts[1]) <= 100, (pair, counts)
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


def test_budget_out_during_certificate_extraction_exits_2(capsys):
    # both budgets run out after the search, while its certificate is rebuilt
    code, out, err = run(capsys, "exact", "--grid", "3x5", "--budget-nodes", "40", "--no-cache")
    assert (code, err) == (2, "")
    assert json.loads(out)["interval"] == [6, 8]
    code, out, err = run(capsys, "decide", "--grid", "4x5", "--k", "8", "--budget-nodes", "10",
                         "--no-cache")
    assert (code, err) == (2, "")
    assert json.loads(out)["proven"] is False


def test_sweep_rejects_m_below_one_before_it_writes(capsys, tmp_path):
    out = tmp_path / "s.csv"
    for argv in (["--m", "0"], ["--m", "-1", "--methods", "bounds"], ["--m", "0", "--format", "json"]):
        argv = ["sweep", *argv, "--n-range", "1:3"]
        assert run(capsys, *argv) == (1, "", f"error: sweep needs --m >= 1, got {argv[2]}\n")
        assert run(capsys, *argv, "--out", str(out))[0] == 1
        assert not out.exists()


def test_nan_budget_is_rejected(capsys):
    # NaN fails every comparison, so a "<= 0" test would let it through
    # as an unlimited budget
    for argv in (("exact", "--grid", "3x3", "--no-cache"),
                 ("sweep", "--m", "2", "--n-range", "1:3", "--methods", "exact")):
        code, out, err = run(capsys, *argv, "--budget", "nan")
        assert (code, out) == (1, "")
        assert err == "error: budget seconds must be positive, got nan\n"
    code, out, _ = run(capsys, "exact", "--grid", "3x3", "--no-cache", "--budget", "inf")
    assert code == 0 and json.loads(out)["value"] == 5


def test_cache_inspect(capsys, tmp_path):
    path = str(tmp_path / "c.jsonl")
    run(capsys, "exact", "--grid", "2x3", "--cache", path)
    code, out, _ = run(capsys, "cache-inspect", "--cache", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 1 and doc["entries"] == 1
    code, out, _ = run(capsys, "cache-inspect", "--cache", path, "--verbose")
    assert json.loads(out)["records"][0]["kind"] == "exact"


# SHA-256 of `construct --four-rows N --out F`, taken before graphs were built
# in index space (26, 50 and 110 before the solver found blocks by coords,
# 2046 to 4093 before chains were assembled by rows); the certificate files
# must not change by a byte
FOUR_ROW_SHA256 = {
    9: "282169ab4cf616df8e14d4a7834a3c547321fe8f77556639bfd9fc04e6df0366",
    22: "90bf2fc22184c5c555195f9ad924645a2869e42625b14f4e580a18413546018c",
    37: "83423ac13d488066f76a2e1c43502ba2462c03486b5e741eb7dba46a6e22f186",
    46: "f707fb4d6e1a099fed9df532c63dffc3bb8d19d2959579d99fa18bc7892840a0",
    # endpoints 7 * 2^(k-2) - 2, grown from a solver-decided base with
    # bottom-aligned staircases on both ends
    26: "bc9b54c2c1fb82d2016b9d4d8817657207f9d71052de2f34aa33b84792c319c9",
    110: "3d427878e0f4313e411465d01191fc328b9c3498c06a660a57816e2d63a54411",
    # interior widths, cut from endpoints 12, 46, 54 and 1277
    11: "3a1eff7b319076980ae87cd579a8801e790b9c8931814228854b9b7671eba17d",
    40: "0c31cdcf03dc43ce968e322cfd6b5823fd3ce13397132a3b6adc7d25e8f73922",
    50: "ef8e1ae18c14ddaed60cab37045b3c4cb4380c29881fc68d49aa9ac996794a79",
    1143: "55787894659943c16a616d0f11b98c883cc83aeb89c6caae4133dee4611d9f95",
    # the deepest chain of each family up to 4093: the three doubling
    # families' and the ruler's last endpoints
    2046: "a6666f0538e1aaeca838f521b255343dc871508cabc9cebd8c0686e95df3698f",
    3070: "c90f9066fce5a36521421225170b30bb99250c62b2e35144c219ac8a98ce60ea",
    3582: "de4fc67e639f0364b7b41bf972d7a230aaf16830151f004115b03c532ad672d2",
    4093: "09d68c2e2d53a866edabc5caf5ee9a2043e6e4c7062491a8f8211638abbbd56d",
}


@pytest.mark.parametrize("n", sorted(FOUR_ROW_SHA256))
def test_four_row_certificate_bytes_are_pinned(capsys, tmp_path, n):
    out_file = tmp_path / "chain.json"
    assert run(capsys, "construct", "--four-rows", str(n), "--out", str(out_file))[0] == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == FOUR_ROW_SHA256[n]


def test_four_row_bytes_do_not_depend_on_build_order(capsys, tmp_path):
    texts: dict[int, set[bytes]] = {40: set(), 46: set()}
    for order in ((40, 46), (46, 40)):
        construct._endpoint_record.cache_clear()
        for n in order:
            out_file = tmp_path / f"{order[0]}-{n}.json"
            assert run(capsys, "construct", "--four-rows", str(n), "--out", str(out_file))[0] == 0
            texts[n].add(out_file.read_bytes())
    assert [len(t) for t in texts.values()] == [1, 1]


# SHA-256 of `exact ... --deterministic` stdout, taken before rank_exact ran on
# the decision search; the search may change, its certificates may not
EXACT_SHA256 = {
    "4x5": ("5545ad8e6deca5e9286d7f261f578d4bbb48e1225d2a3fb000871e712b0ea04e",
            "--grid", "4x5"),
    "3x9": ("39086fc912104a0112af5805a092862791676f9e639a714a597678d1fdb5442e",
            "--grid", "3x9"),
    "triangle-5": ("05d698a12ad98f14e314dd55012eb95ee668ea1ca3adbce0ac2e9c985ac11d34",
                   "--triangle", "5"),
    "triangle-6": ("9489dd4202cbde286a59da2ea328449068f79dd89799d30ca0b4b45c68cbb8e4",
                   "--triangle", "6"),
    "4x4-sticky-right": ("6e7c1d80c31f5c82c4600cb650250e00b09fe73171f54382f64f307785b2d1f3",
                         "--grid", "4x4", "--sticky", "right"),
}


@pytest.mark.parametrize("name", sorted(EXACT_SHA256))
def test_exact_certificate_bytes_are_pinned(capsys, name):
    digest, *flags = EXACT_SHA256[name]
    code, out, _ = run(capsys, "exact", *flags, "--deterministic")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `decide ... --deterministic` stdout, taken while rank_decision
# still had its own certificate walk; the walk may change, its labels may not
DECIDE_SHA256 = {
    "4x6-k8": ("732fd966d3e70b9f6a1b1e074a86e7c0e16dba104b75923fdad038188faa9b4c",
               "--grid", "4x6", "--k", "8"),
    "4x7-k9": ("f38a30f052a84457e5840b758f0c8d55bbeea58caf72201a07220659b0dced57",
               "--grid", "4x7", "--k", "9"),
    # k above the rank: the walk caps the top label at the memo's ub
    "4x5-k10": ("8573550415f9c60b7807cd7072aa19abf940dced39832abfe9b436c99af8828f",
                "--grid", "4x5", "--k", "10"),
    "triangle-5-k9": ("3d98c9b209264843b41586031687eda90814eb05c72c2c364b542b03e1ae50a3",
                      "--triangle", "5", "--k", "9"),
    "3x6-sticky-right-k7": ("d92891264050fc3703b24353fd5b9412971406677b13af62c24a3b76116a016a",
                            "--grid", "3x6", "--sticky", "right", "--k", "7"),
}


@pytest.mark.parametrize("name", sorted(DECIDE_SHA256))
def test_decide_certificate_bytes_are_pinned(capsys, name):
    digest, *flags = DECIDE_SHA256[name]
    code, out, _ = run(capsys, "decide", *flags, "--no-cache", "--deterministic")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the concatenated stdout of every command below, per command name,
# taken while the replies were still built by ComparatorReport, BoundBucket
# and SweepRow; the arithmetic replies may not move by a byte
def _reply_commands() -> dict[str, list[list[str]]]:
    widths = [*range(1, 300), 12345, 10**6]
    sweeps = (
        ("4", "1:6", "formula,exact,bucket,bounds,cert"),
        ("4", "5:300", "formula,bucket,bounds,cert"),
        ("3", "1:9", "formula,exact,bounds"),
        ("2", "1:12", "formula,exact,bounds"),
        ("1", "1:60", "formula,bounds"),
        ("5", "1:60", "bounds"),
        ("6", "1:60", "formula,bounds"),
    )
    return {
        "bounds": [["bounds", "--m", str(m), "--n", str(n)] for m in range(1, 13) for n in range(1, 61)]
        + [["bounds", "--m", str(m)] for m in range(1, 13)]
        + [["bounds", "--triangle", str(s)] for s in range(1, 61)],
        "compare": [["compare", "--m", str(m), "--n", str(n)] for m in range(1, 13) for n in range(1, 61)],
        "formula": [["formula", "--m", str(m), "--n", str(n)] for m in range(1, 5) for n in widths]
        + [["formula", "--m", "4", "--n", str(n), "--recursive"] for n in widths],
        "sweep": [["sweep", "--m", m, "--n-range", span, "--methods", methods, "--format", fmt]
                  for m, span, methods in sweeps for fmt in ("json", "csv")],
    }


REPLY_SHA256 = {
    "bounds": "71af7fa7cfbb96c2ac850e4b63a0ba842194115e651ed3a25c66550d9a20d08d",
    "compare": "f8c45d8a45d4c83483e86a515dd64bf3f1afac12319ceeafabcf1f37a05930f5",
    "formula": "63a816c6d0ebc5252ad783e320a95ded4da89fd5c690107010110090d4b5d28b",
    "sweep": "90a88b71d6345992537c260bf67f81f2e4ab3a8957c39430e03aafd9e9ee4e75",
}


def test_arithmetic_reply_bytes_are_pinned(capsys):
    digests = {}
    for name, argvs in _reply_commands().items():
        h = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            h.update(out.encode())
        digests[name] = h.hexdigest()
    assert digests == REPLY_SHA256


@pytest.mark.extended
def test_extended_exact_triangle_seven(capsys):
    code, out, _ = run(capsys, "exact", "--triangle", "7", "--deterministic")
    assert code == 0 and json.loads(out)["value"] == 11
    digest = "cea813ac32f4fce1cb05c50aecbf561957cad2abc406cd4ba5cc26e470b1e491"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_triangle_bytes_are_pinned(capsys, tmp_path):
    # SHA-256 taken while the command still wrote its chain dict by hand
    out_file = tmp_path / "tri.json"
    assert run(capsys, "construct", "--triangle", "7", "--out", str(out_file))[0] == 0
    digest = "9b42bd0346afa37b81d4d80d8becf61c16d2300ea5966bb92fabfe7ec3db63f7"
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("s, step", [(1, "solve"), (5, "solve"), (6, "solve"), (7, "triangle-rows")])
def test_construct_triangle_names_the_step_that_made_it(capsys, s, step):
    # up to s = 6 the ranking is the solver's optimum, above it the row cuts
    code, out, _ = run(capsys, "construct", "--triangle", str(s))
    doc = json.loads(out)
    assert code == 0 and [st["name"] for st in doc["steps"]] == [step]
    assert doc["ranking"]["labels"] == list(construct.triangle_ranking(s).labels)


def test_construct_help_names_the_triangle_steps(capsys, monkeypatch):
    # the help names each step triangle_certificate emits, and the last side
    # the solver ranks
    monkeypatch.setenv("COLUMNS", "400")  # one help line per flag
    with pytest.raises(SystemExit):
        cli.main(["construct", "--help"])
    help_line = next(line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("--triangle"))
    steps = {s: construct.triangle_certificate(s).steps[0].name for s in range(1, 9)}
    assert all(f'"{name}"' in help_line for name in steps.values())
    assert f"S <= {max(s for s, name in steps.items() if name == 'solve')}" in help_line


def test_sweep_help_documents_the_budget_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "wall-clock cap" in out and "search-node cap" in out


def write_cache(path, *records):
    lines = [{"rankgrid_cache": CACHE_VERSION}, *records]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))


def grid_3x3_key():
    return build(GraphShape.grid(3, 3)).graph_hash


def test_exact_ignores_edited_cache_value(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    write_cache(path, {"kind": "exact", "key": grid_3x3_key(), "lb": 9, "ub": 9,
                       "labels": [1] * 9, "elapsed": 0.0, "provenance": "exact"})
    code, out, err = run(capsys, "exact", "--grid", "3x3", "--cache", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 5 and doc["method"] != "cache"


def test_exact_ignores_cached_invalid_labelling(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    write_cache(path, {"kind": "exact", "key": grid_3x3_key(), "lb": 4, "ub": 4,
                       "labels": [1, 2, 1, 2, 4, 2, 1, 2, 1], "elapsed": 0.0,
                       "provenance": "exact"})
    code, out, _ = run(capsys, "exact", "--grid", "3x3", "--cache", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 5 and doc["method"] != "cache"


def test_exact_heals_a_record_that_fails_its_check(capsys, tmp_path):
    # the fresh solve is appended, and of two equal intervals the later
    # wins on reload, so the second run is a hit
    path = tmp_path / "c.jsonl"
    write_cache(path, {"kind": "exact", "key": build(GraphShape.grid(2, 3)).graph_hash,
                       "lb": 4, "ub": 4, "labels": [1] * 6, "elapsed": 0.0,
                       "provenance": "exact"})
    methods = []
    for _ in range(2):
        code, out, _ = run(capsys, "exact", "--grid", "2x3", "--cache", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 4
        methods.append(doc["method"])
    assert methods == ["exact", "cache"]


def test_exact_skips_cache_records_with_non_integer_bounds(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    good = {"kind": "exact", "key": grid_3x3_key(), "lb": 5, "ub": 5,
            "labels": [1, 2, 1, 3, 5, 4, 1, 2, 1], "elapsed": 0.0, "provenance": "exact"}
    write_cache(path, {**good, "lb": "5", "ub": "5"}, good)
    code, out, _ = run(capsys, "exact", "--grid", "3x3", "--cache", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "cache" and doc["value"] == 5
    write_cache(path, {**good, "lb": 5.0, "ub": 5.0})
    code, out, _ = run(capsys, "exact", "--grid", "3x3", "--cache", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "exact" and type(doc["value"]) is int and doc["value"] == 5


def test_decide_ignores_edited_feasible_record(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    write_cache(path, {"kind": "decision", "key": grid_3x3_key(), "k": 2,
                       "feasible": True, "labels": [1] * 9, "elapsed": 0.0})
    code, out, _ = run(capsys, "decide", "--grid", "3x3", "--k", "2", "--cache", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["feasible"] is False and doc["method"] == "search"


def test_decide_hit_repeats_the_search_reply(capsys, tmp_path):
    path = str(tmp_path / "c.jsonl")
    for k, feasible in (("6", True), ("5", False)):
        (code, miss, _), (code2, hit, _) = [
            run(capsys, "decide", "--grid", "3x4", "--k", k, "--cache", path) for _ in range(2)]
        miss, hit = json.loads(miss), json.loads(hit)
        assert code == code2 == 0 and miss["feasible"] is feasible
        assert (miss.pop("method"), hit.pop("method")) == ("search", "cache")
        miss.pop("elapsed")
        assert hit.pop("elapsed") == 0.0 and hit == miss


def path3_file(tmp_path, labels=(1, 2, 1), **graph):
    doc = {"graph": {"shape": None, "vertex_count": 3, "edges": [[0, 1], [1, 2]],
                     "coords": [[0, 0], [0, 1], [0, 2]], **graph}, "labels": list(labels)}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("graph,message", [
    ({"vertex_count": 4}, "lists 3 coords for 4 vertices"),
    ({"edges": [[0, 1], [1, 999]]}, "edge 1-999 is out of range for 3 vertices"),
    ({"edges": [[0, 1], [1, 2], [2, 2]]}, "edge 2-2 is a self-loop"),
    ({"edges": [[0, 1], [1, 2], [2, 1]]}, "lists edge 1-2 twice"),
    ({"coords": [[0, 0], [0, 1], [0, 1]]}, "places two vertices on one coord"),
    # int() would truncate the next three to the valid path
    ({"vertex_count": 3.6}, "needs integer vertex_count, edge endpoints and coords"),
    ({"edges": [[0, 1], [1, 1.5]]}, "needs integer vertex_count, edge endpoints and coords"),
    ({"coords": [[0, 0], [0, 1.7], [0, 2]]}, "needs integer vertex_count, edge endpoints and coords"),
    # a shape of a million vertices is refused without building it
    ({"shape": {"family": "grid", "m": 1000, "n": 1000}}, "does not match its embedded shape"),
    ({"shape": {"family": "grid", "m": 3, "n": 1}}, "does not match its embedded shape"),
    # true is the int 1 to Python: each of these would load as the path
    ({"vertex_count": True}, "needs integer vertex_count, edge endpoints and coords"),
    ({"edges": [[0, True], [True, 2]]}, "needs integer vertex_count, edge endpoints and coords"),
    ({"coords": [[0, 0], [0, True], [0, 2]]}, "needs integer vertex_count, edge endpoints and coords"),
])
def test_render_rejects_inconsistent_graph(capsys, monkeypatch, tmp_path, graph, message):
    def small_build(shape):
        assert shape.m * shape.n <= 100, "built an oversized shape"
        return real_build(shape)

    real_build = graphs.build
    monkeypatch.setattr(graphs, "build", small_build)
    assert run(capsys, "render", path3_file(tmp_path))[0] == 0
    code, out, err = run(capsys, "render", path3_file(tmp_path, **graph))
    assert code == 1 and out == ""
    assert err.startswith("error: graph JSON") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["graph", "ranking", "shape"])
def test_render_rejects_non_object_fields(capsys, tmp_path, field):
    path = path3_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if field == "shape":
        doc["graph"]["shape"] = [1]
    elif field == "ranking":
        doc["ranking"] = doc.pop("labels")
    else:
        doc["graph"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "render", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "is not a JSON object" in err
    assert "Traceback" not in err


def test_render_rejects_a_ranking_of_another_graph(capsys, tmp_path):
    with open(path3_file(tmp_path), encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = doc.pop("labels")
    for graph_hash, want in ((Graph.from_json_dict(doc["graph"]).graph_hash, 0), ("0" * 64, 1)):
        doc["ranking"] = {"graph_hash": graph_hash, "labels": labels}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", str(path))
        assert code == want, err
    assert out == "" and "the ranking's graph_hash does not match its graph" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("labels,graph,message", [
    # a decoration retired from the graph model: the 2x2 grid less its NW corner
    ((1, 1, 2), {"shape": {"family": "grid", "m": 2, "n": 2,
                           "decorations": [{"kind": "remove_corner", "which": "NW"}]},
                 "edges": [[0, 2], [1, 2]], "coords": [[0, 1], [1, 0], [1, 1]]},
     "unknown decoration kind 'remove_corner'"),
    # int() would truncate this to the edge (0, 2)-(0, 1)
    ((1, 2, 1), {"shape": {"family": "grid", "m": 1, "n": 2, "decorations": [
        {"kind": "custom", "extra_edges": [[["0", 2.2], [0, 1]]]}]}},
     "custom edges need integer coords"),
    # a custom decoration no longer adds vertices: the path on three
    # vertices as the 1x2 grid plus a custom vertex
    ((1, 2, 1), {"shape": {"family": "grid", "m": 1, "n": 2, "decorations": [
        {"kind": "custom", "extra_vertices": [[0, 2]], "extra_edges": [[[0, 1], [0, 2]]]}]}},
     "a custom decoration adds edges only, not vertices"),
    # each endpoint is a (row, col) pair: the 2x2 grid's chord (0, 0)-(1, 1)
    # with a third number on one end, or with an end of one number
    ((3, 1, 1, 2), {"shape": {"family": "grid", "m": 2, "n": 2, "decorations": [
        {"kind": "custom", "extra_edges": [[[0, 0, 7], [1, 1]]]}]}, "vertex_count": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]], "coords": [[0, 0], [0, 1], [1, 0], [1, 1]]},
     "custom edges need (row, col) endpoint pairs"),
    ((3, 1, 1, 2), {"shape": {"family": "grid", "m": 2, "n": 2, "decorations": [
        {"kind": "custom", "extra_edges": [[[0], [1, 1]]]}]}, "vertex_count": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]], "coords": [[0, 0], [0, 1], [1, 0], [1, 1]]},
     "custom edges need (row, col) endpoint pairs"),
    # true is the int 1 to Python: this would load as the chord (0, 0)-(1, 1)
    ((3, 1, 1, 2), {"shape": {"family": "grid", "m": 2, "n": 2, "decorations": [
        {"kind": "custom", "extra_edges": [[[0, 0], [True, 1]]]}]}, "vertex_count": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]], "coords": [[0, 0], [0, 1], [1, 0], [1, 1]]},
     "custom edges need integer coords"),
])
def test_render_rejects_the_shape(capsys, tmp_path, labels, graph, message):
    code, out, err = run(capsys, "render", path3_file(tmp_path, labels, **graph))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_render_rejects_non_integer_labels(capsys, tmp_path):
    # int() would truncate these to the valid labels 1, 2, 1
    code, out, err = run(capsys, "render", path3_file(tmp_path, labels=[1.9, 2.9, 1.9]))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "needs integer labels" in err
    assert "Traceback" not in err


def test_render_rejects_boolean_labels(capsys, tmp_path):
    # JSON true is not the label 1: [true, 2] on the 1x2 grid is refused
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"graph": build(GraphShape.grid(1, 2)).to_json_dict(), "labels": [True, 2]}))
    code, out, err = run(capsys, "render", str(path))
    assert (code, out) == (1, "") and err == f"error: ranking file {path} needs integer labels\n"


# -- the indent-2 JSON writer -------------------------------------------------


def _random_payload(rng, depth=0):
    kind = rng.randrange(8 if depth < 4 else 1)
    if kind == 0:
        return rng.choice([
            rng.randint(-5, 5), rng.randint(-2**70, 2**70), True, False, None,
            rng.uniform(-1e3, 1e3), float("nan"), float("inf"), -float("inf"),
            rng.choice(["", "x", 'say "hi"', "100%", "%d %s", "back\\slash", "tab\t", "naïve €"]),
        ])
    if kind == 1:  # int lists, sometimes holding a bool
        return [rng.choice([rng.randint(-9, 2**65), True, False]) if rng.random() < 0.2
                else rng.randint(-9, 2**65) for _ in range(rng.randrange(5))]
    if kind == 2:  # int rows: equal, empty, ragged or mixed, lists or tuples
        width = rng.randrange(4)
        rows = [[rng.randint(-99, 99) for _ in range(width)] for _ in range(rng.randrange(5))]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))].append(rng.choice([7, True, None, "7"]))
        return [tuple(r) if rng.random() < 0.3 else r for r in rows]
    if kind == 3:
        return {rng.choice(["a", "b", 'q"uote', "%s", "é", ""]): _random_payload(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    if kind == 4:
        return {rng.randint(-3, 3): _random_payload(rng, depth + 1) for _ in range(rng.randrange(3))}
    if kind == 5:
        return tuple(_random_payload(rng, depth + 1) for _ in range(rng.randrange(4)))
    return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]


def test_json_writer_matches_json_dumps():
    rng = random.Random(20)
    empties = [[], {}, (), [[]], [()], [{}], ([], ()), [[], [1]], {"a": []}, {"a": {}, "b": ()},
               {"a": [[], {}]}, {1: []}]
    for payload in empties + [_random_payload(rng) for _ in range(2000)]:
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True), payload


def test_commands_never_ask_json_dumps_for_an_indent(capsys, monkeypatch, tmp_path):
    # json.dumps with an indent builds the pure-Python encoder, whose
    # closures are cyclic garbage; the writer writes every reply without it,
    # empty containers included
    indented = []
    dumps = json.dumps

    def spy(*args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    c64 = str(tmp_path / "c64.json")
    for argv in (
        ["construct", "--four-rows", "64", "--out", c64],
        ["exact", "--grid", "3x4"],
        ["decide", "--grid", "3x4", "--k", "6"],
        ["cache-inspect", "--cache", str(tmp_path / "none.jsonl"), "--verbose"],
        ["sweep", "--m", "3", "--n-range", "2:5", "--methods", "formula,bounds", "--format", "json"],
        ["bounds", "--m", "5", "--n", "6"],
        ["compare", "--m", "4", "--n", "6"],
        ["formula", "--m", "4", "--n", "9"],
        ["render", c64],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert indented == []


def test_four_row_output_on_a_large_grid_matches_json_dumps(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    assert run(capsys, "construct", "--four-rows", "4093", "--out", str(out_file))[0] == 0
    want = json.dumps(construct.four_row_certificate(4093).to_json_dict(), indent=2, sort_keys=True)
    assert out_file.read_text(encoding="utf-8") == want + "\n"


def test_sweep_json_is_indent_2_sorted(capsys):
    code, out, _ = run(capsys, "sweep", "--m", "4", "--n-range", "3:6",
                       "--methods", "formula,bucket,bounds,cert", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_out_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    argv = ("sweep", "--m", "3", "--n-range", "2:9", "--methods", "formula,exact,bounds",
            "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / f"sweep.{fmt}"
    code, again, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and again == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("graph,message", [
    ({"shape": {"family": "grid", "m": 1, "n": 3, "decorations": [1]}},
     "'int' object is not subscriptable"),
    ({"shape": {"family": "grid", "m": "1", "n": 3}}, "expected integers"),
    (None, "the top level is not a JSON object"),
    ({"edges": [[0, 1], [0]]}, "not enough values to unpack"),
    # JSON true and false are bools, which == takes as 1 and 0
    ({"shape": {"family": "grid", "m": True, "n": 3}}, "expected integers"),
    ({"shape": {"family": "grid", "m": 1, "n": False}}, "expected integers"),
])
def test_render_names_the_malformed_file(capsys, tmp_path, graph, message):
    path = path3_file(tmp_path, **(graph or {}))
    if graph is None:
        (tmp_path / "g.json").write_text("[1, 2, 1]")
    code, out, err = run(capsys, "render", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: malformed ranking file {path}: ") and message in err
    assert "missing" not in err and "Traceback" not in err
