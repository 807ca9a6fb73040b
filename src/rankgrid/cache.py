"""Persistent cache of solved instances.

Plain JSONL, append-only: a version header line followed by one record
per result, keyed by the graph hash.  Opening a cache reads the file and
checks its header; a record line is parsed only when a lookup or write
asks for a key the line names, or when `entries` lists them all.
Unreadable lines are skipped with a warning when they are read.

The cache is an accelerator, never an authority.  The first lookup of a
key reduces its exact records to one state: the least ranking among their
labels that validate passes, and the greatest claimed lb not above its
label count.  When the two meet the key is settled, and a hit is the
result built on that ranking, so what is printed is what was checked.  A
cached "no" at k falls to that ranking if it has at most k labels; a
"yes" checks its own labels.  Each exact record is checked once.
"""

from __future__ import annotations

import json
import logging
import os
import re
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .graphs import Graph, _require_ints
from .solve import DecisionOutcome, RankResult
from .verify import Ranking, validate

log = logging.getLogger(__name__)

CACHE_VERSION = 1
ENV_VAR = "RANKGRID_CACHE"
# what graph_hash produces: no such key contains another, so a search for one
# key's text finds every line that names it and never matches inside another
_KEY = re.compile("[0-9a-f]{64}")

__all__ = ["SolutionCache", "resolve_cache_path", "CACHE_VERSION", "ENV_VAR"]


class _State(NamedTuple):
    """A key's first n exact records reduced: best, the least checked ranking by
    order (label count, ub, -lb), the later winning ties; [lb, ub], the greatest
    lb not above its label count and that count, else held's (the tightest)."""
    best: Ranking | None = None
    order: tuple = ()
    lb: int = 0
    ub: int = 0
    held: dict | None = None
    n: int = 0


def _tightest(recs: list[dict]) -> dict:
    """The record of highest lb, then lowest ub; the later of equal ones."""
    return max(reversed(recs), key=lambda rec: (rec["lb"], -rec["ub"]))


def resolve_cache_path(explicit: str | None = None) -> Path:
    """--cache flag beats RANKGRID_CACHE beats the default user data dir."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_DATA_HOME") or os.path.join(os.path.expanduser("~"), ".local", "share")
    return Path(base) / "rankgrid" / "cache.jsonl"


class SolutionCache:
    """In-memory view over one cache file, with append write-through."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.writable = True
        self._exact: dict[str, list[dict]] = {}  # each key's exact records, in file order
        self._state: dict[str, _State] = {}
        self._decision: dict[tuple[str, int], dict] = {}
        self._header = b""
        self._buf = b""  # the record lines as read, all after the header
        self._done: set[int] = set()  # offsets of the lines already read
        self._starts: list[int] | None = None  # the offset of each line after the first
        self._load()

    def _load(self) -> None:
        try:
            buf = self.path.read_bytes()
        except FileNotFoundError:
            return
        end = buf.find(b"\n")
        first = buf if end < 0 else buf[:end]
        if not first.strip():
            return
        try:
            version = json.loads(first.decode("utf-8"))["rankgrid_cache"]
        except (ValueError, TypeError, KeyError):
            log.warning("cache %s has no valid header; ignoring file", self.path)
            self.writable = False
            return
        if version != CACHE_VERSION:
            log.warning("cache %s is version %s, expected %s; ignoring file",
                        self.path, version, CACHE_VERSION)
            self.writable = False
            return
        self._header, self._buf = first, buf[end + 1:] if end >= 0 else b""

    def _take(self, key: str | None) -> None:
        """Read, in file order, each unread line that contains key; if key is
        None, the empty needle, found at each line's start, reads them all."""
        buf, done = self._buf, self._done
        needle = b"" if key is None else key.encode()
        at = buf.find(needle)
        while at >= 0:
            start = buf.rfind(b"\n", 0, at) + 1
            end = buf.find(b"\n", at)
            end = len(buf) if end < 0 else end
            if start not in done:
                self._read(start, end, key)
            at = buf.find(needle, end + 1)

    def _read(self, start: int, end: int, key: str | None) -> None:
        """Absorb the line buf[start:end], or warn that it is corrupt.  A
        record of another key than key (one that names key in some other
        field) is left unread: it is absorbed with its own key's records."""
        line = self._buf[start:end]
        if line.strip() and line != self._header:  # else blank, or a racing writer's header
            try:
                text = line.decode("utf-8")
                rec = json.loads(text)
                if key is not None and rec["key"] != key:
                    return
                if rec["key"] not in text:  # spelled with escapes: a lookup would not find it
                    raise ValueError("key not written out")
                self._absorb(rec)
            except (ValueError, TypeError, KeyError):
                if self._starts is None:  # found once, at the first corrupt line
                    self._starts = list(accumulate(len(piece) + 1 for piece in self._buf.split(b"\n")))
                lineno = bisect_right(self._starts, start) + 2  # the header is line 1
                log.warning("cache %s line %d is corrupt; skipped", self.path, lineno)
        self._done.add(start)

    def _absorb(self, rec: dict) -> None:
        kind, key = rec["kind"], rec["key"]
        if not (isinstance(key, str) and _KEY.fullmatch(key)):
            raise ValueError(f"key {key!r} is not a graph hash")
        if kind == "exact":
            _require_ints((rec["lb"], rec["ub"]))
            if rec["lb"] > rec["ub"]:
                raise ValueError("inverted interval")
            self._exact.setdefault(key, []).append(rec)
        elif kind == "decision":
            _require_ints((rec["k"],))
            self._decision[(key, rec["k"])] = rec
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def _append(self, rec: dict) -> None:
        if not self.writable:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # one write on an O_APPEND descriptor: concurrent writers never
        # interleave inside a line; two fresh writers may both add a header
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            head = "" if os.fstat(fd).st_size else json.dumps({"rankgrid_cache": CACHE_VERSION}) + "\n"
            os.write(fd, (head + json.dumps(rec, sort_keys=True) + "\n").encode())
        finally:
            os.close(fd)

    @staticmethod
    def _ranking(g: Graph, rec: dict) -> Ranking | None:
        """The ranking of g by rec's integer labels if validate passes it."""
        try:
            _require_ints(rec["labels"])
            r = Ranking(g, tuple(rec["labels"]))
        except (KeyError, TypeError, ValueError):
            return None
        return r if validate(r) is None else None

    def _settle(self, g: Graph) -> _State:
        """g's state, once its lines are read.  Records read or written since
        the last call are checked and folded in; a new tightest record whose
        claim the state refutes or leaves unbacked is reported."""
        key = g.graph_hash
        recs = self._exact.get(key, [])
        old = self._state.get(key, _State())
        if old.n == len(recs):
            return old
        best, order = old.best, old.order
        for rec in recs[old.n:]:
            r = self._ranking(g, rec)
            if r is not None and (best is None or (r.label_count, rec["ub"], -rec["lb"]) <= order):
                best, order = r, (r.label_count, rec["ub"], -rec["lb"])
        held = _tightest(recs)
        ub = held["ub"] if best is None else best.label_count
        lb = max((rec["lb"] for rec in recs if rec["lb"] <= ub), default=0)
        if held is not old.held:
            if held["lb"] > ub:
                log.warning("cache %s: exact record %s claims lb %d, but a checked ranking has %d"
                            " labels; record dropped", self.path, key, held["lb"], ub)
            elif held["lb"] == held["ub"] and (best is None or held["ub"] != ub):
                log.warning("cache %s: exact record %s fails its check; miss", self.path, key)
        state = self._state[key] = _State(best, order, lb, ub, held, len(recs))
        return state

    # -- exact results -----------------------------------------------------

    def get_exact(self, g: Graph) -> RankResult | None:
        """g's settled value with its checked ranking, or None."""
        self._take(g.graph_hash)
        state = self._settle(g)
        best = state.best if state.lb == state.ub else None
        return None if best is None else RankResult(best.label_count, best.label_count, "cache", best, 0.0)

    def put_exact(self, g: Graph, lb: int, ub: int, labels: list[int] | None,
                  elapsed: float) -> None:
        """Record [lb, ub] for g unless its state is at least as tight, so
        reruns do not grow the file; a settled ranking is still written while
        the key is not settled, which heals a failed record."""
        self._take(g.graph_hash)
        state = self._settle(g)
        heals = lb == ub and labels is not None and not (state.best is not None and state.lb == state.ub)
        if state.lb >= lb and state.ub <= ub and not heals:
            return
        rec = {"kind": "exact", "key": g.graph_hash, "lb": lb, "ub": ub,
               "labels": list(labels) if labels is not None else None,
               "elapsed": round(elapsed, 6), "provenance": "exact"}
        self._absorb(rec)
        self._append(rec)

    # -- decision results --------------------------------------------------

    def get_decision(self, g: Graph, k: int) -> DecisionOutcome | None:
        """The stored answer for (g, k), or None.  A "yes" needs its own labels
        to check; a "no" falls to the key's best ranking if it fits k."""
        key = g.graph_hash
        self._take(key)
        rec = self._decision.get((key, k))
        if rec is None:
            return None
        if rec.get("feasible") is False:
            best = self._settle(g).best
            return DecisionOutcome(best if best is not None and best.label_count <= k else None, False, 0.0)
        r = self._ranking(g, rec)
        if r is not None and rec.get("feasible") is True and r.label_count <= k:
            return DecisionOutcome(r, False, 0.0)
        log.warning("cache %s: %s record %s fails its check; miss", self.path, rec["kind"], key)
        return None

    def put_decision(self, g: Graph, k: int, feasible: bool,
                     labels: list[int] | None, elapsed: float) -> None:
        self._take(g.graph_hash)
        rec = {"kind": "decision", "key": g.graph_hash, "k": k, "feasible": feasible,
               "labels": list(labels) if labels is not None else None, "elapsed": round(elapsed, 6)}
        self._absorb(rec)
        self._append(rec)

    # -- introspection -----------------------------------------------------

    def entries(self) -> list[dict]:
        self._take(None)
        out = [_tightest(recs) for recs in self._exact.values()]
        out.extend(self._decision.values())
        return sorted(out, key=lambda r: (r["kind"], r["key"], r.get("k", 0)))
