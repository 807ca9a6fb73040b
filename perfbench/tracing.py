"""Span tracing around rankgrid's layers, installed from outside the program.

`install` replaces each public function of a layer module with a wrapper
that records a span, at every place a rankgrid module binds it: `cli`
imports `build` and `rank_exact` by name, `construct` reaches the solver
through the module, and both must be counted.  Spans stay in memory while
the pass runs and are written out when it ends.  Calls made while no
operation is running (set-up, checks) are not recorded.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("cli", "solve", "graphs", "verify", "construct", "formulas", "bounds",
          "render", "cache")

# (class, method) -> span name, for layer entry points that are methods
METHODS = {
    ("graphs", "Graph", "from_json_dict"): "graphs.from_json",
    ("cache", "SolutionCache", "__init__"): "cache.open",
    ("cache", "SolutionCache", "get_exact"): "cache.get",
    ("cache", "SolutionCache", "get_decision"): "cache.get",
    ("cache", "SolutionCache", "put_exact"): "cache.put",
    ("cache", "SolutionCache", "put_decision"): "cache.put",
}

# A number taken from each call, summed per span name: the vertices a call
# handled, a cache hit, an exhausted budget.
NOTES = {
    "graphs.build": lambda args, result: result.vertex_count,
    "verify.validate": lambda args, result: args[0].graph.vertex_count,
    "cache.get": lambda args, result: int(result is not None),
    "solve.rank_exact": lambda args, result: int(result.budget_exhausted),
    "solve.rank_decision": lambda args, result: int(result.budget_exhausted),
}


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id, note]
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and entry-point methods."""
        import rankgrid  # noqa: F401 - loads every layer module

        modules = [m for k, m in sys.modules.items() if k == "rankgrid" or k.startswith("rankgrid.")]
        for layer in LAYERS:
            mod = sys.modules[f"rankgrid.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, name, wrapped)
        for (layer, cls_name, meth), span in METHODS.items():
            cls = getattr(sys.modules[f"rankgrid.{layer}"], cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(span, raw))

    def summary(self) -> dict[str, float]:
        """Calls, self time and notes per span name, and self time per layer.

        Self time is a span's duration minus the time its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _, note) in enumerate(self.spans):
            own = end - start - covered[i]
            layer = name.split(".")[0]
            for key, value in ((f"{name}.calls", 1), (f"{name}.self_s", own),
                               (f"{name}.note", note), (f"{layer}.self_s", own)):
                out[key] = out.get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
