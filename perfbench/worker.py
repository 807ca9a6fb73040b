"""One pass of a workload in a fresh interpreter, so every module memo starts cold.

Set-up (import, input generation, filling the session cache) is timed on its
own.  Then each operation calls `rankgrid.cli.main(argv)` in-process with
stdout and stderr captured; only that call is inside the timed window.
Replies are written to the result file and checked by the parent process.

Around set-up and between operations the worker times a fixed pure-Python
loop (`speed_probe`).  The parent divides each measured time by the probe
times taken next to it, so the reported times follow the program and not the
speed of the shared host, which drifts by half or more within a minute.

    python3 perfbench/worker.py --workload W --seed S --dir D --ranks R --result F
"""

import time

_PROBE_TABLE = {k: (7 * k + 3) % 512 for k in range(512)}


def speed_probe() -> float:
    """Seconds a fixed interpreter loop takes now: the best of three repeats,
    about 1 ms each, so a stray interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table, x, acc = _PROBE_TABLE, 1, 0
        for _ in range(10_000):
            x = table[x]
            acc += x & 15
        best = min(best, time.perf_counter() - start)
    return best


PROBE_BEFORE_SETUP = speed_probe()
T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="scratch directory of this pass")
    p.add_argument("--ranks", required=True, help="JSON list of [shape, rank] pairs")
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="trace the pass and write its spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    from rankgrid import cli  # importing the package is part of set-up

    import workloads

    with open(args.ranks, encoding="utf-8") as fh:
        ranks = {tuple(s): r for s, r in json.load(fh)}
    plan = workloads.generate(args.workload, args.seed, ranks)
    argvs = [[a.replace(workloads.DIR, args.dir) for a in op["argv"]] for op in plan.ops]
    cache_path = os.path.join(args.dir, "cache.jsonl")
    if plan.stored_shapes:
        _fill_cache(cache_path, plan)
    setup_s = time.perf_counter() - T0
    probes = [speed_probe()]
    setup_probe = (PROBE_BEFORE_SETUP + probes[0]) / 2
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s, "setup_probe_s": setup_probe})
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    records, latencies, emit_bytes = [], [], 0
    real_out, real_err = sys.stdout, sys.stderr
    for i, (op, argv) in enumerate(zip(plan.ops, argvs)):
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        rc, error = None, None
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        sys.stdout, sys.stderr = real_out, real_err
        latencies.append(latency)
        probes.append(speed_probe())
        records.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "error": error})
        if tracer is not None:
            emit_bytes += len(out.getvalue().encode())
            if "out" in op:
                path = op["out"].replace(workloads.DIR, args.dir)
                emit_bytes += os.path.getsize(path) if os.path.exists(path) else 0

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "latencies": latencies,
        # mean of the probes before and after each operation
        "op_probe_s": [(a + b) / 2 for a, b in zip(probes, probes[1:])],
        "records": records,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["cli.emit_bytes"] = emit_bytes
        layers["cache.file_bytes"] = os.path.getsize(cache_path) if os.path.exists(cache_path) else 0
        result["layers"] = layers
        tracer.write(args.spans)
    _write(args.result, result)
    return 0


def _fill_cache(path: str, plan) -> None:
    """Store exact results for the plan's cached shapes, and decisions at
    every k in the plan, as earlier sessions would have left them."""
    from rankgrid.cache import SolutionCache
    from rankgrid.graphs import build
    from rankgrid.solve import rank_exact

    from check import graph_shape

    store = SolutionCache(path)
    solved = {}
    for shape in plan.stored_shapes:
        g = build(graph_shape(shape))
        res = rank_exact(g)
        labels = list(res.certificate.labels)
        store.put_exact(g, res.lb, res.ub, labels, res.elapsed)
        solved[shape] = (g, res.value, labels)
    for shape, k in plan.stored_pairs:
        g, value, labels = solved[shape]
        store.put_decision(g, k, k >= value, labels if k >= value else None, 0.0)


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
