"""rankgrid benchmark: closed-loop CLI workloads with checked replies.

    python3 perfbench/run.py --workload exact-grids --seed 1 --seconds 30 --trace 0

Run it from the root of a rankgrid checkout; it imports the package from
./src and needs nothing outside the standard library.  Each pass runs in a
fresh interpreter (perfbench/worker.py) so module memos start cold; the
parent repeats passes for about --seconds, checks every reply after its pass,
and prints one JSON line with the end-to-end metrics (--trace 0) or, from
one untraced and one traced pass, the per-layer metrics (--trace 1).  The
line before it records the run's context: Python version, processors,
seed, commit, operation and sample counts, and the unscaled times.

End-to-end times, and trace.overhead_ratio, are given at a reference host
speed (per-layer self times are as measured).  The worker times a fixed
pure-Python loop before and after set-up and each operation; a time measured
while that loop took p seconds is reported as time * PROBE_REF_S / p.  On a
shared host whose speed drifts by half within a minute this keeps the drift
out of the figures while a slower or faster program still moves them in full.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Checker, References, reference_rank  # noqa: E402
from workloads import CACHE_POOL, DIR, WORKLOADS, generate  # noqa: E402

MIN_PASSES = 2
SETUP_BATCH = 4
SETUP_SAMPLES = 12
TIME_LIMIT_S = 170.0
# the speed probe's time at the reference speed (about this loop's time on
# one core of a 2-vCPU cloud host running CPython 3.11)
PROBE_REF_S = 0.001

# the metrics to report, with their units, as declared at the checkout root
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, meta = Run(Path.cwd(), args.workload, args.seed).measure(args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


class Run:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        src = root / "src"
        if not (src / "rankgrid" / "__init__.py").is_file():
            raise BenchError(f"no rankgrid package under {src}; run from a rankgrid checkout")
        sys.path.insert(0, str(src))
        self.root, self.workload, self.seed = root, workload, seed
        self.started = time.monotonic()
        self.work = HERE / "work" / f"{workload}-s{seed}-{os.getpid()}"
        self.ranks = {s: reference_rank(s) for s in CACHE_POOL}
        self.plan = generate(workload, seed, self.ranks)
        self.checker = Checker(self.plan, References.for_plan(self.plan))
        self.env = dict(os.environ)
        self.env.pop("RANKGRID_CACHE", None)
        self.env.update({
            "PYTHONPATH": str(src),
            "PYTHONHASHSEED": "0",
            # any command that forgot --cache/--no-cache would land here
            "XDG_DATA_HOME": str(self.work / "xdg"),
        })
        self.ranks_file = self.work / "ranks.json"
        self.failures: list[str] = []
        self.attempted = 0
        self._passes = 0

    def measure(self, seconds: float, trace: int) -> tuple[dict, dict]:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.ranks_file.write_text(json.dumps([[list(s), r] for s, r in self.ranks.items()]))
            if trace:
                metrics, samples = self._traced()
            else:
                metrics, samples = self._untraced(seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        for line in self.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }
        meta = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(self.root),
            "ops_per_pass": len(self.plan.ops),
            **samples,
        }
        return result, meta

    # -- passes ----------------------------------------------------------

    def _untraced(self, seconds: float) -> tuple[dict, dict]:
        start = time.monotonic()
        # set-up samples come in batches between the passes, so they spread
        # over the run instead of catching one phase of the machine's speed
        setups = self._setups()
        passes: list[dict] = []
        while True:
            passes.append(self._pass())
            setups.append(passes[-1])
            if len(setups) < SETUP_SAMPLES:
                setups += self._setups()
            # at least MIN_PASSES whole passes, then more while the next one
            # should end less than half a pass after the requested time
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            if per_pass * 2 > self._time_left():
                break
            if len(passes) >= MIN_PASSES and elapsed + per_pass / 2 > seconds:
                break
        latencies = [x for p in passes for x in p["latencies"]]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        samples = {"passes": len(passes), "ops_per_run": len(latencies),
                   "samples": {"setup_s": len(setups), "wall_s": len(passes),
                               "op_p50_ms": len(latencies), "op_p90_ms": len(latencies),
                               "peak_rss_mb": len(passes)},
                   "unscaled": {"setup_s": statistics.median(s["raw_setup_s"] for s in setups),
                                "wall_s": statistics.median(p["raw_wall_s"] for p in passes)}}
        return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in SPEC["end_to_end"]}, samples

    def _traced(self) -> tuple[dict, dict]:
        plain = self._pass()
        spans = HERE / "out" / f"spans-{self.workload}-seed{self.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        traced = self._pass(spans=spans)
        layers, check = traced["layers"], traced["check"]
        calls, hits = layers.get("cache.get.calls", 0), layers.get("cache.get.note", 0)
        derived = {
            "solve.budget_exhausted": layers.get("solve.rank_exact.note", 0)
            + layers.get("solve.rank_decision.note", 0),
            "solve.interval_gap": check.interval_gap,
            "graphs.build.us_per_vertex": _per(layers, "graphs.build.self_s", "graphs.build.note", 1e6),
            "verify.validate.us_per_vertex": _per(layers, "verify.validate.self_s", "verify.validate.note", 1e6),
            "verify.validate.per_certificate": _ratio(layers.get("verify.validate.calls", 0), check.certificates),
            "cache.get.hits": hits,
            "cache.get.misses": calls - hits,
            "cache.hit_ratio": _ratio(hits, calls),
            "fail_ratio": _ratio(len(self.failures), self.attempted),
            "trace.overhead_ratio": _ratio(traced["wall_s"], plain["wall_s"]),
        }
        metrics = {m["name"]: {"value": derived.get(m["name"], layers.get(m["name"], 0)),
                               "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        samples = {"passes": 2, "ops_per_run": 2 * len(traced["latencies"]),
                   "traced_wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
                   "unscaled": {"traced_wall_s": traced["raw_wall_s"],
                                "untraced_wall_s": plain["raw_wall_s"]},
                   "spans_file": os.path.relpath(spans, self.root)}
        return metrics, samples

    def _setups(self) -> list[dict]:
        return [self._pass(setup_only=True) for _ in range(SETUP_BATCH)]

    def _pass(self, setup_only: bool = False, spans: Path | None = None) -> dict:
        """Run one worker process and check its replies."""
        self._passes += 1
        pass_dir = self.work / f"p{self._passes}"
        pass_dir.mkdir()
        result_file = pass_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--dir", str(pass_dir), "--ranks", str(self.ranks_file),
               "--result", str(result_file)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self._time_left()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass of {self.workload} overran the {TIME_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0 or not result_file.exists():
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_file.read_text())
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] *= PROBE_REF_S / result["setup_probe_s"]
        if not setup_only:
            result["raw_wall_s"] = sum(result["latencies"])
            result["latencies"] = [t * PROBE_REF_S / p
                                   for t, p in zip(result["latencies"], result["op_probe_s"])]
            result["wall_s"] = sum(result["latencies"])
            result["check"] = self._check(result, pass_dir)
        shutil.rmtree(pass_dir)
        return result

    def _check(self, result: dict, pass_dir: Path):
        def read_output(template: str) -> str | None:
            path = Path(template.replace(DIR, str(pass_dir)))
            return path.read_text(encoding="utf-8") if path.exists() else None

        check = self.checker.check_pass(result["records"], read_output)
        if (self.work / "xdg" / "rankgrid").exists():
            check.failures.append("a command used the default cache location")
        self.attempted += len(result["records"])
        self.failures += check.failures
        del result["records"]
        return check

    def _time_left(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per(layers: dict, numerator: str, denominator: str, scale: float) -> float:
    return _ratio(scale * layers.get(numerator, 0), layers.get(denominator, 0))


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
